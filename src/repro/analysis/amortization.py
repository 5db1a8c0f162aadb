"""Per-word cost amortization and protocol crossover.

Table 2's two message sizes hint at the cost structure: fixed handshake
costs dominate small transfers, per-packet costs dominate large ones.
This study draws the whole curve — instructions per word versus message
size for every protocol — exposing:

* the asymptotic per-word cost each protocol converges to,
* the crossover where the finite-sequence protocol's fixed handshake is
  amortized enough to beat the stream protocol's per-packet machinery,
* how far each CMAM protocol sits above its CR counterpart at every size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.am.costs import CmamCosts
from repro.analysis.formulas import CostFormulas

DEFAULT_SIZES = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

PROTOCOLS = (
    "finite-sequence",
    "indefinite-sequence",
    "cr-finite-sequence",
    "cr-indefinite-sequence",
)


@dataclass(frozen=True)
class AmortizationPoint:
    protocol: str
    message_words: int
    total: int

    @property
    def per_word(self) -> float:
        return self.total / self.message_words


def amortization_curve(
    sizes: Iterable[int] = DEFAULT_SIZES,
    n: int = 4,
    protocols: Iterable[str] = PROTOCOLS,
) -> List[AmortizationPoint]:
    """Instructions per word across message sizes, per protocol."""
    formulas = CostFormulas(CmamCosts(n=n))
    points = []
    for words in sizes:
        for protocol in protocols:
            costs = formulas.by_name(protocol, words)
            points.append(
                AmortizationPoint(
                    protocol=protocol, message_words=words, total=costs.total
                )
            )
    return points


def asymptotic_per_word(protocol: str, n: int = 4) -> float:
    """Large-message per-word cost limit, exactly.

    Over whole packets every protocol's total is affine in the word
    count, so the limit of ``total(w) / w`` is the slope
    ``(total(2m) - total(m)) / m`` for ``m`` a multiple of ``n``
    (``m = 1024`` at the paper's ``n = 4``).
    """
    formulas = CostFormulas(CmamCosts(n=n))
    m = 256 * n
    return (formulas.by_name(protocol, 2 * m).total
            - formulas.by_name(protocol, m).total) / m


def finite_vs_stream_crossover(n: int = 4, limit: int = 1 << 16) -> Optional[int]:
    """Smallest message size (in words) where the finite-sequence protocol
    is at least as cheap as the stream protocol.

    Below the crossover the stream's lack of a handshake wins; above it the
    stream's per-packet sequencing/ack machinery loses to the handshake's
    one-off cost.  Returns None if no crossover occurs up to ``limit``.
    """
    formulas = CostFormulas(CmamCosts(n=n))
    words = n
    while words <= limit:
        fin = formulas.finite_sequence(words).total
        stream = formulas.indefinite_sequence(words).total
        if fin <= stream:
            return words
        words += n
    return None


def per_word_table(points: List[AmortizationPoint]) -> Dict[str, Dict[int, float]]:
    """{protocol: {words: per-word cost}} for rendering."""
    table: Dict[str, Dict[int, float]] = {}
    for point in points:
        table.setdefault(point.protocol, {})[point.message_words] = point.per_word
    return table
