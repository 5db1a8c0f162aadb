"""Extension experiment: per-word amortization curves and the protocol
crossover.

Generalizes Table 2's two sizes into the full cost-per-word curve for all
four protocols, locating the size where the finite-sequence handshake
starts paying for itself against the stream protocol's per-packet
machinery.  Model-generated (same closed forms as Figure 8) with a live
simulation cross-check at the crossover.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.amortization import (
    amortization_curve,
    asymptotic_per_word,
    finite_vs_stream_crossover,
    per_word_table,
)
from repro.analysis.report import render_series
from repro.experiments.common import ExperimentOutput, measure_finite, measure_indefinite

EXPERIMENT_ID = "amortization"
TITLE = "Per-word cost amortization and protocol crossover (extension)"

#: The exact per-word limits of the closed forms at n = 4.
ASYMPTOTES_N4 = {
    "finite-sequence": 11.25,
    "indefinite-sequence": 29.25,
    "cr-finite-sequence": 9.75,
    "cr-indefinite-sequence": 8.5,
}


def run() -> ExperimentOutput:
    checks: Dict[str, bool] = {}
    points = amortization_curve()
    table = per_word_table(points)
    series: Dict[str, List[Tuple[float, float]]] = {
        protocol: sorted(curve.items()) for protocol, curve in table.items()
    }
    rendered = render_series(
        "Instructions per word vs message size (n = 4)",
        "words",
        series,
        y_format="{:.1f}",
    )

    crossover = finite_vs_stream_crossover()
    rendered += f"\n\nFinite-sequence beats the stream from {crossover} words up."
    asymptotes = {
        protocol: asymptotic_per_word(protocol) for protocol in table
    }
    rendered += "\nAsymptotic instructions/word: " + ", ".join(
        f"{protocol} {value:.2f}" for protocol, value in sorted(asymptotes.items())
    )

    # Live cross-check at the crossover size.
    fin = measure_finite(crossover)
    stream = measure_indefinite(crossover)
    checks["crossover verified by simulation"] = fin.total <= stream.total
    fin_below = measure_finite(crossover - 4)
    stream_below = measure_indefinite(crossover - 4)
    checks["below the crossover the stream wins"] = (
        stream_below.total < fin_below.total
    )
    checks["per-word cost decreases with size (finite)"] = (
        sorted(table["finite-sequence"].items())[0][1]
        > sorted(table["finite-sequence"].items())[-1][1]
    )
    checks["stream per-word cost is size-independent (>=8 words)"] = (
        max(v for w, v in table["indefinite-sequence"].items() if w >= 8)
        - min(v for w, v in table["indefinite-sequence"].items() if w >= 8)
        < 2.0
    )
    checks["asymptotes are 11.25 / 29.25 / 9.75 / 8.5 per word"] = (
        asymptotes == ASYMPTOTES_N4
    )
    checks["CR asymptotes below CMAM asymptotes"] = (
        asymptotes["cr-finite-sequence"] < asymptotes["finite-sequence"]
        and asymptotes["cr-indefinite-sequence"] < asymptotes["indefinite-sequence"]
    )
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rendered=rendered,
        data={"crossover_words": crossover, "asymptotes": asymptotes},
        checks=checks,
    )
