"""Measurement harness for the live runtime.

The runtime equivalent of :class:`repro.protocols.base.ProtocolRun`: on
a two-peer :class:`~repro.runtime.fabric.Fabric` (endpoints ``src`` and
``dst``), run one of the three protocols to completion under a hard
deadline, and package the measured per-feature wall-clock spans into a
:class:`~repro.analysis.timeshare.TimeBreakdown`-ready result.

Synchronous callers (the CLI, benchmarks, tests) use
:func:`measure_live`, which owns the event loop; async callers compose
the ``run_*_live`` coroutines with their own fabric's endpoints.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.timeshare import TimeBreakdown
from repro.arch.attribution import Feature
from repro.runtime.endpoint import RuntimeEndpoint
from repro.runtime.fabric import Fabric
from repro.runtime.protocols import (
    BulkReceiver,
    BulkSender,
    OrderedChannelReceiver,
    OrderedChannelSender,
    SinglePacketReceiver,
    SinglePacketSender,
)
from repro.runtime.reliability import BackoffPolicy
from repro.runtime.tracing import Tracer

#: Backoff used by loopback measurements: quick enough that injected
#: drops are recovered in milliseconds, patient enough that emulated
#: reordering (default 2 ms) never triggers a spurious retransmission.
LOOPBACK_BACKOFF = BackoffPolicy(initial=0.02, factor=1.7, ceiling=0.3, max_retries=12)


@dataclass
class RuntimeRunResult:
    """Outcome + measured attribution of one live protocol run."""

    protocol: str
    mode: str
    transport: str
    message_words: int
    packet_words: int
    packets_sent: int
    completed: bool
    wall_ns: int
    src_ns: Dict[Feature, int]
    dst_ns: Dict[Feature, int]
    retransmissions: int = 0
    retransmitted_bytes: int = 0
    duplicates: int = 0
    acks: int = 0
    data_datagrams: int = 0
    ooo_arrivals: int = 0
    drops_injected: int = 0
    delivered_words: List[int] = field(default_factory=list)
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_ns(self) -> int:
        return sum(self.src_ns.values()) + sum(self.dst_ns.values())

    @property
    def acks_per_data(self) -> float:
        """Ack datagrams sent per data datagram put on the wire."""
        return self.acks / self.data_datagrams if self.data_datagrams else 0.0

    def breakdown(self) -> TimeBreakdown:
        return TimeBreakdown.build(
            protocol=self.protocol,
            mode=self.mode,
            message_words=self.message_words,
            src_ns=self.src_ns,
            dst_ns=self.dst_ns,
        )

    def __str__(self) -> str:
        return (
            f"{self.protocol}/{self.mode}: {self.message_words}w in "
            f"{self.packets_sent} pkts over {self.transport}, "
            f"wall {self.wall_ns / 1e6:.1f}ms, "
            f"retransmissions={self.retransmissions}, "
            f"duplicates={self.duplicates}"
        )


def _finish(src: RuntimeEndpoint, dst: RuntimeEndpoint, fabric: Fabric,
            protocol: str, message_words: int, packet_words: int,
            packets_sent: int, completed: bool, wall_ns: int,
            **extras: Any) -> RuntimeRunResult:
    hub = fabric.hub
    return RuntimeRunResult(
        protocol=protocol,
        mode=fabric.mode,
        transport=fabric.transport,
        message_words=message_words,
        packet_words=packet_words,
        packets_sent=packets_sent,
        completed=completed,
        wall_ns=wall_ns,
        src_ns=src.attribution.snapshot(),
        dst_ns=dst.attribution.snapshot(),
        drops_injected=hub.dropped if hub is not None else 0,
        **extras,
    )


# ---------------------------------------------------------------------------
# the three measured runs
# ---------------------------------------------------------------------------


async def run_single_packet_live(
    src: RuntimeEndpoint,
    dst: RuntimeEndpoint,
    fabric: Fabric,
    message_words: int = 64,
    packet_words: int = 16,
    deadline: float = 30.0,
    backoff: Optional[BackoffPolicy] = None,
) -> RuntimeRunResult:
    """Send the message as independent single-packet datagrams."""
    receiver = SinglePacketReceiver(dst)
    sender = SinglePacketSender(
        src, dst.local_address,
        backoff=backoff or LOOPBACK_BACKOFF,
    )
    message = list(range(1, message_words + 1))
    packets = max(1, (message_words + packet_words - 1) // packet_words)

    async def drive() -> None:
        arrival = receiver.expect(packets)
        cursor = 0
        for _ in range(packets):
            take = min(packet_words, message_words - cursor)
            await sender.send(message[cursor:cursor + take], timeout=deadline)
            cursor += take
        await arrival

    start = time.perf_counter_ns()
    completed = False
    try:
        await asyncio.wait_for(drive(), deadline)
        completed = True
    except asyncio.TimeoutError:
        pass
    finally:
        await sender.close()
    wall_ns = time.perf_counter_ns() - start
    delivered = [w for m in receiver.messages for w in m]
    return _finish(
        src, dst, fabric, "single-packet", message_words, packet_words,
        packets, completed, wall_ns,
        retransmissions=sender.retransmitter.retransmissions,
        retransmitted_bytes=sender.retransmitter.retransmitted_bytes,
        duplicates=receiver.duplicates,
        acks=receiver.acks_sent,
        data_datagrams=packets + sender.retransmitter.retransmissions,
        delivered_words=delivered,
    )


async def run_bulk_live(
    src: RuntimeEndpoint,
    dst: RuntimeEndpoint,
    fabric: Fabric,
    message_words: int = 1024,
    packet_words: int = 16,
    deadline: float = 30.0,
    backoff: Optional[BackoffPolicy] = None,
) -> RuntimeRunResult:
    """One finite-sequence transfer of a known-size message."""
    receiver = BulkReceiver(dst)
    sender = BulkSender(
        src, dst.local_address, packet_words=packet_words,
        backoff=backoff or LOOPBACK_BACKOFF,
    )
    message = list(range(1, message_words + 1))

    async def drive():
        outcome = await sender.send(message, timeout=deadline)
        landed = await receiver.completion(outcome.transfer_id)
        return outcome, landed

    start = time.perf_counter_ns()
    completed = False
    outcome = None
    landed: List[int] = []
    try:
        outcome, landed = await asyncio.wait_for(drive(), deadline)
        completed = landed == message
    except asyncio.TimeoutError:
        pass
    finally:
        await sender.close()
    wall_ns = time.perf_counter_ns() - start
    return _finish(
        src, dst, fabric, "finite-sequence", message_words, packet_words,
        outcome.packets_sent if outcome else 0, completed, wall_ns,
        retransmissions=sender.retransmitter.retransmissions,
        retransmitted_bytes=sender.retransmitter.retransmitted_bytes,
        duplicates=receiver.duplicates,
        acks=receiver.final_acks_sent + receiver.status_acks_sent,
        data_datagrams=(
            (outcome.packets_sent if outcome else 0)
            + sender.retransmitted_data_packets
        ),
        delivered_words=list(landed),
        detail={
            "data_rounds": outcome.data_rounds if outcome else 0,
            "retransmitted_data_bytes": sender.retransmitted_data_bytes,
            "goback_n_equivalent_bytes": sender.goback_n_equivalent_bytes,
        },
    )


async def run_ordered_live(
    src: RuntimeEndpoint,
    dst: RuntimeEndpoint,
    fabric: Fabric,
    message_words: int = 1024,
    packet_words: int = 16,
    window: int = 32,
    deadline: float = 30.0,
    backoff: Optional[BackoffPolicy] = None,
) -> RuntimeRunResult:
    """Stream the message through the indefinite-sequence ordered channel."""
    receiver = OrderedChannelReceiver(
        dst, window=max(256, 2 * window)
    )
    sender = OrderedChannelSender(
        src, dst.local_address, window=window,
        backoff=backoff or LOOPBACK_BACKOFF,
    )
    message = list(range(1, message_words + 1))
    packets = max(1, (message_words + packet_words - 1) // packet_words)

    async def drive() -> None:
        arrival = receiver.expect(packets)
        cursor = 0
        for _ in range(packets):
            take = min(packet_words, message_words - cursor)
            await sender.send(message[cursor:cursor + take])
            cursor += take
        await sender.drain(timeout=deadline)
        await arrival

    start = time.perf_counter_ns()
    try:
        await asyncio.wait_for(drive(), deadline)
    except asyncio.TimeoutError:
        pass
    finally:
        await sender.close()
        receiver.close()
    wall_ns = time.perf_counter_ns() - start
    delivered = receiver.delivered_words()
    return _finish(
        src, dst, fabric, "indefinite-sequence", message_words,
        packet_words, packets, delivered == message, wall_ns,
        retransmissions=sender.retransmitter.retransmissions,
        retransmitted_bytes=sender.retransmitter.retransmitted_bytes,
        duplicates=receiver.duplicates,
        acks=receiver.acks_sent,
        data_datagrams=packets + sender.retransmitter.retransmissions,
        ooo_arrivals=receiver.ooo_arrivals,
        delivered_words=delivered,
        detail={
            "immediate_acks": receiver.immediate_acks,
            "delayed_acks": receiver.delayed_acks,
        },
    )


_RUNNERS = {
    "single": run_single_packet_live,
    "finite": run_bulk_live,
    "indefinite": run_ordered_live,
}

PROTOCOL_NAMES = tuple(_RUNNERS)


def measure_live(
    protocol: str,
    mode: str = "cm5",
    transport: str = "loopback",
    message_words: int = 1024,
    packet_words: int = 16,
    deadline: float = 30.0,
    tracer: Optional[Tracer] = None,
    **faults: Any,
) -> RuntimeRunResult:
    """Synchronous one-shot measurement (owns the event loop).

    The run builds ``Fabric(mode, transport, tracer, **faults)`` with
    peers ``src`` and ``dst``; the fabric rejects fault knobs and CR
    mode on UDP, which provides no services.  A ``tracer`` is threaded
    through both endpoints; its run label is set to ``protocol/mode``
    so events from sequential runs through one tracer stay
    distinguishable.
    """
    try:
        runner = _RUNNERS[protocol]
    except KeyError:
        raise ValueError(
            f"unknown protocol {protocol!r} (expected one of {PROTOCOL_NAMES})"
        ) from None
    if tracer is not None:
        tracer.label = f"{protocol}/{mode}"

    async def session() -> RuntimeRunResult:
        fabric = Fabric(mode, transport, tracer, **faults)
        try:
            src = await fabric.add_peer("src")
            dst = await fabric.add_peer("dst")
            result = await runner(
                src, dst, fabric, message_words=message_words,
                packet_words=packet_words, deadline=deadline,
            )
            result.detail.setdefault("counters", fabric.endpoint_counters())
            if fabric.hub is not None:
                result.detail.setdefault("wire", fabric.hub.wire_counters())
            return result
        finally:
            await fabric.close()

    return asyncio.run(session())
