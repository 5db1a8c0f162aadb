"""Order statistics the benchmark reports.

Spreads use the same quartiles as ``statistics.quantiles(values, n=4)``,
which is how two sets of runs are compared.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, IQR and sample count of per-run values."""
    if not values:
        raise ValueError("no samples")
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}
