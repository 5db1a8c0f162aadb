"""Sequencing machinery for the indefinite-sequence protocol.

The stream receiver must present packets to the user in transmission order
while the CM-5 network delivers them in arbitrary order.  The
:class:`ReorderWindow` is a sequence-indexed circular buffer: out-of-order
packets park in their slot (constant-time — which is what justifies the
constant per-packet enqueue cost in the calibrated model), and a drain
walks forward from the expected sequence number when the gap fills.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class SequenceError(RuntimeError):
    """A sequencing invariant was violated (window overflow, duplicate)."""


class SequenceGenerator:
    """Source-side monotone sequence numbers for one channel."""

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def next(self) -> int:
        value = self._next
        self._next += 1
        return value

    @property
    def issued(self) -> int:
        return self._next


class ReorderWindow:
    """Receiver-side reorder buffer.

    ``accept(seq, item)`` returns the in-order run now deliverable:

    * empty list — the packet parked (out of order) or was a duplicate,
    * ``[(seq, item), ...]`` — the packet plus any parked successors it
      unblocked, in sequence order.
    """

    def __init__(self, window: int = 256, start: int = 0) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        if start < 0:
            raise ValueError("start sequence must be non-negative")
        self.window = window
        self.expected = start
        self._slots: List[Optional[object]] = [None] * window
        self._occupied: List[bool] = [False] * window
        self.parked_peak = 0
        self.parked_now = 0
        self.duplicates = 0
        self.ooo_accepted = 0

    def _slot(self, seq: int) -> int:
        return seq % self.window

    def accept(self, seq: int, item: object) -> List[Tuple[int, object]]:
        if seq == self.expected and not self.parked_now:
            # The common case: in order with nothing parked, so there is
            # nothing for a drain to find.
            self.expected = seq + 1
            return [(seq, item)]
        if seq < self.expected:
            # Retransmission of something already delivered.
            self.duplicates += 1
            return []
        if seq >= self.expected + self.window:
            raise SequenceError(
                f"seq {seq} outside window [{self.expected}, "
                f"{self.expected + self.window})"
            )
        if seq == self.expected:
            delivered: List[Tuple[int, object]] = [(seq, item)]
            self.expected += 1
            delivered.extend(self._drain())
            return delivered
        slot = self._slot(seq)
        if self._occupied[slot]:
            # Same slot, seq within window, seq != anything delivered:
            # it must be a duplicate of the parked packet.
            self.duplicates += 1
            return []
        self._slots[slot] = item
        self._occupied[slot] = True
        self.parked_now += 1
        self.parked_peak = max(self.parked_peak, self.parked_now)
        self.ooo_accepted += 1
        return []

    def _drain(self) -> List[Tuple[int, object]]:
        drained: List[Tuple[int, object]] = []
        while True:
            slot = self._slot(self.expected)
            if not self._occupied[slot]:
                break
            item = self._slots[slot]
            self._slots[slot] = None
            self._occupied[slot] = False
            self.parked_now -= 1
            drained.append((self.expected, item))
            self.expected += 1
        return drained

    @property
    def delivered_count(self) -> int:
        """Packets delivered to the user so far (== next expected seq)."""
        return self.expected

    def __repr__(self) -> str:
        return (
            f"ReorderWindow(expected={self.expected}, parked={self.parked_now}, "
            f"window={self.window})"
        )
