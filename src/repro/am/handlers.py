"""Active-message handler utilities.

An active message names a *handler* to run at the destination with the
message's words as arguments (von Eicken et al., the paper's [26]).  Nodes
hold a name -> callable table; this module adds a stock handler that
records what it is handed.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.node import Node


class CollectingHandler:
    """A stock handler that appends every invocation's payload to a list.

    The workhorse of tests: registering one gives a visible record of what
    was delivered, in what order.
    """

    def __init__(self) -> None:
        self.invocations: List[Tuple[int, ...]] = []

    def __call__(self, node: Node, *words: int) -> None:
        self.invocations.append(tuple(words))

    @property
    def count(self) -> int:
        return len(self.invocations)

    def flat_words(self) -> List[int]:
        return [w for payload in self.invocations for w in payload]
