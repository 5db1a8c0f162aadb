"""Measurement harness for the live runtime.

The runtime equivalent of :class:`repro.protocols.base.ProtocolRun`: on
a two-peer :class:`~repro.runtime.fabric.Fabric` (endpoints ``src`` and
``dst``), run one of the three protocols to completion under a hard
deadline, and package the measured per-feature wall-clock spans into a
:class:`~repro.analysis.timeshare.TimeBreakdown`-ready result.

Each run is a consumer like every other harness: it hands its receiver a
callback that collects the delivered words, and the run is complete
only once that consumer holds exactly the message sent.  All three
share one skeleton for the deadline, the teardown of both ends and the
wall-clock timing, so a pair of peers can carry any number of runs.

Synchronous callers (the CLI, benchmarks, tests) use
:func:`measure_live`, which owns the event loop; async callers compose
the ``run_*_live`` coroutines with their own fabric's endpoints.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.timeshare import TimeBreakdown, WireStats
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
        """Messaging time: every span but the consumer's (``USER``)."""
        return self.breakdown().total_ns

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

    def wire_stats(self) -> WireStats:
        return WireStats(
            data_datagrams=self.data_datagrams,
            ack_datagrams=self.acks,
            retransmissions=self.retransmissions,
            retransmitted_bytes=self.retransmitted_bytes,
            goback_n_equivalent_bytes=self.detail.get(
                "goback_n_equivalent_bytes", 0),
        )

    def to_record(self) -> Dict[str, Any]:
        """The ``protocols/{protocol}/{mode}`` row that the demo's
        ``--json`` writes and :func:`repro.runtime.gates.protocols`
        reads."""
        return {
            "protocol": self.protocol,
            "mode": self.mode,
            "transport": self.transport,
            "message_words": self.message_words,
            "packet_words": self.packet_words,
            "packets_sent": self.packets_sent,
            "completed": self.completed,
            "wall_ns": self.wall_ns,
            "retransmissions": self.retransmissions,
            "duplicates": self.duplicates,
            "ooo_arrivals": self.ooo_arrivals,
            "drops_injected": self.drops_injected,
            "wire": self.wire_stats().to_dict(),
            "breakdown": self.breakdown().to_dict(),
        }

    def __str__(self) -> str:
        return (
            f"{self.protocol}/{self.mode}: {self.message_words}w in "
            f"{self.packets_sent} pkts over {self.transport}, "
            f"wall {self.wall_ns / 1e6:.1f}ms, "
            f"retransmissions={self.retransmissions}, "
            f"duplicates={self.duplicates}"
        )


class _Consumer:
    """The run's application: collects the words its receiver delivers
    and resolves :attr:`done` once it holds as many as :attr:`message`,
    the words ``1..message_words`` the run sends."""

    def __init__(self, message_words: int) -> None:
        self.message = list(range(1, message_words + 1))
        self.words: List[int] = []
        self.done = asyncio.get_running_loop().create_future()

    def take(self, words: Sequence[int]) -> None:
        self.words.extend(words)
        if len(self.words) >= len(self.message) and not self.done.done():
            self.done.set_result(None)


async def _drive(sending: Awaitable[Any], consumer: _Consumer, sender: Any,
                 receiver: Any, deadline: float) -> Tuple[Any, int]:
    """Await ``sending``, then the consumer, both under ``deadline``;
    close both ends whatever happens.  Returns what ``sending`` returned
    (None if it did not finish) and the wall time."""
    outcome = None

    async def run() -> None:
        nonlocal outcome
        outcome = await sending
        await consumer.done

    start = time.perf_counter_ns()
    try:
        await asyncio.wait_for(run(), deadline)
    except asyncio.TimeoutError:
        pass
    finally:
        await sender.close()
        receiver.close()
    return outcome, time.perf_counter_ns() - start


def _finish(src: RuntimeEndpoint, dst: RuntimeEndpoint, fabric: Fabric,
            protocol: str, consumer: _Consumer, packet_words: int,
            packets_sent: int, wall_ns: int, **extras: Any) -> RuntimeRunResult:
    hub = fabric.hub
    return RuntimeRunResult(
        protocol=protocol,
        mode=fabric.mode,
        transport=fabric.transport,
        message_words=len(consumer.message),
        packet_words=packet_words,
        packets_sent=packets_sent,
        completed=consumer.words == consumer.message,
        wall_ns=wall_ns,
        src_ns=src.attribution.snapshot(),
        dst_ns=dst.attribution.snapshot(),
        drops_injected=hub.dropped if hub is not None else 0,
        delivered_words=consumer.words,
        **extras,
    )


def _packets(message: List[int], packet_words: int) -> List[List[int]]:
    return [message[cursor:cursor + packet_words]
            for cursor in range(0, len(message), packet_words)]


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
    consumer = _Consumer(message_words)
    receiver = SinglePacketReceiver(dst, on_message=consumer.take)
    sender = SinglePacketSender(
        src, dst.local_address,
        backoff=backoff or LOOPBACK_BACKOFF,
    )
    packets = _packets(consumer.message, packet_words)

    async def send() -> None:
        for packet in packets:
            await sender.send(packet, timeout=deadline)

    _, wall_ns = await _drive(send(), consumer, sender, receiver, deadline)
    return _finish(
        src, dst, fabric, "single-packet", consumer, packet_words,
        len(packets), wall_ns,
        retransmissions=sender.retransmitter.retransmissions,
        retransmitted_bytes=sender.retransmitter.retransmitted_bytes,
        duplicates=receiver.duplicates,
        acks=receiver.acks_sent,
        data_datagrams=len(packets) + sender.retransmitter.retransmissions,
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
    consumer = _Consumer(message_words)
    receiver = BulkReceiver(dst, on_complete=consumer.take)
    sender = BulkSender(
        src, dst.local_address, packet_words=packet_words,
        backoff=backoff or LOOPBACK_BACKOFF,
    )
    outcome, wall_ns = await _drive(
        sender.send(consumer.message, timeout=deadline),
        consumer, sender, receiver, deadline)
    packets = outcome.packets_sent if outcome else 0
    return _finish(
        src, dst, fabric, "finite-sequence", consumer, packet_words,
        packets, wall_ns,
        retransmissions=sender.retransmitter.retransmissions,
        retransmitted_bytes=sender.retransmitter.retransmitted_bytes,
        duplicates=receiver.duplicates,
        acks=receiver.final_acks_sent + receiver.status_acks_sent,
        data_datagrams=packets + sender.retransmitted_data_packets,
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
    consumer = _Consumer(message_words)
    receiver = OrderedChannelReceiver(
        dst, window=max(256, 2 * window),
        deliver=lambda _seq, payload: consumer.take(payload),
    )
    sender = OrderedChannelSender(
        src, dst.local_address, window=window,
        backoff=backoff or LOOPBACK_BACKOFF,
    )
    packets = _packets(consumer.message, packet_words)

    async def send() -> None:
        for packet in packets:
            await sender.send(packet)
        await sender.drain(timeout=deadline)

    _, wall_ns = await _drive(send(), consumer, sender, receiver, deadline)
    return _finish(
        src, dst, fabric, "indefinite-sequence", consumer, packet_words,
        len(packets), wall_ns,
        retransmissions=sender.retransmitter.retransmissions,
        retransmitted_bytes=sender.retransmitter.retransmitted_bytes,
        duplicates=receiver.duplicates,
        acks=receiver.acks_sent,
        data_datagrams=len(packets) + sender.retransmitter.retransmissions,
        ooo_arrivals=receiver.ooo_arrivals,
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
