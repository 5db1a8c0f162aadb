"""Shared protocol plumbing: endpoint pairs, results, measurement scaffold.

Every paper measurement follows the same shape: set up a source and a
destination node on a network, snapshot both processors' cost matrices,
run the protocol to completion on the event kernel, and report the cost
deltas per endpoint.  :class:`ProtocolRun` packages that shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.arch.counters import CostMatrix
from repro.node import Node
from repro.sim.engine import Simulator


@dataclass
class ProtocolResult:
    """Outcome of one protocol run.

    ``src_costs``/``dst_costs`` are the instruction-count deltas
    accumulated at each endpoint during the run — the reproduction's
    equivalent of one Table 2 column pair.
    """

    protocol: str
    message_words: int
    packet_size: int
    packets_sent: int
    src_costs: CostMatrix
    dst_costs: CostMatrix
    completed: bool
    duration: float
    delivered_words: List[int] = field(default_factory=list)
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.src_costs.total + self.dst_costs.total

    @property
    def overhead_total(self) -> int:
        return self.src_costs.overhead_total + self.dst_costs.overhead_total

    @property
    def overhead_fraction(self) -> float:
        return self.overhead_total / self.total if self.total else 0.0

    def combined(self) -> CostMatrix:
        return self.src_costs + self.dst_costs

    def __str__(self) -> str:
        return (
            f"{self.protocol}: {self.message_words}w in {self.packets_sent} pkts, "
            f"src={self.src_costs.total} dst={self.dst_costs.total} "
            f"total={self.total} (overhead {self.overhead_fraction:.0%})"
        )


class ProtocolRun:
    """Measurement scaffold around a source/destination node pair."""

    def __init__(self, sim: Simulator, src: Node, dst: Node) -> None:
        self.sim = sim
        self.src = src
        self.dst = dst
        self._src_base = src.processor.snapshot()
        self._dst_base = dst.processor.snapshot()

    def restart_measurement(self) -> None:
        """Re-baseline both processors (e.g. after warmup traffic)."""
        self._src_base = self.src.processor.snapshot()
        self._dst_base = self.dst.processor.snapshot()

    def finish(
        self,
        protocol: str,
        message_words: int,
        packet_size: int,
        packets_sent: int,
        completed: bool,
        delivered_words: Optional[List[int]] = None,
        **detail: Any,
    ) -> ProtocolResult:
        return ProtocolResult(
            protocol=protocol,
            message_words=message_words,
            packet_size=packet_size,
            packets_sent=packets_sent,
            src_costs=self.src.processor.delta(self._src_base),
            dst_costs=self.dst.processor.delta(self._dst_base),
            completed=completed,
            duration=self.sim.now,
            delivered_words=delivered_words or [],
            detail=dict(detail),
        )


def packets_for(message_words: int, packet_size: int) -> int:
    """Packets needed for a message (last one may be partial)."""
    if message_words < 0:
        raise ValueError("message_words must be non-negative")
    if packet_size < 1:
        raise ValueError("packet_size must be positive")
    return (message_words + packet_size - 1) // packet_size


def packet_payload_sizes(message_words: int, packet_size: int) -> List[int]:
    """Payload word count of each packet of a message."""
    sizes = []
    remaining = message_words
    while remaining > 0:
        take = min(packet_size, remaining)
        sizes.append(take)
        remaining -= take
    return sizes
