"""Concurrent load generation over the N-peer fabric.

The live analogue of sweeping packet count ``p`` in the paper's Figure 8
cost model: drive **M concurrent ordered channels × K framed messages**
across **P fabric peers** and measure, per run,

* throughput (messages/s and words/s, against the wall clock),
* per-message delivery latency (submit → in-order delivery at the
  destination) folded into a :class:`~repro.runtime.tracing.LatencyHistogram`
  for p50/p90/p99,
* acknowledgement traffic per data datagram (the coalescing quality
  under fan-out),
* and the per-feature wall-clock timeshare summed over every peer — so
  the CM-5-vs-CR overhead collapse can be checked *at every peer
  count*, not just for one src→dst pair.

:func:`measure_load` is the synchronous one-shot (owns the event loop);
:func:`run_load` is the coroutine for async callers;
:func:`sweep_peer_counts` runs one config across several peer counts
and both transport modes, producing the records
:func:`repro.analysis.timeshare.render_fabric_sweep` tabulates.
"""

from __future__ import annotations

import asyncio
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.attribution import Feature
from repro.runtime.channels import LiveFramedChannel
from repro.runtime.fabric import Fabric, FabricConnection
from repro.runtime.flowcontrol import BackpressureSignal, FlowControlConfig
from repro.runtime.reliability import BackoffPolicy
from repro.runtime.runner import LOOPBACK_BACKOFF
from repro.runtime.telemetry import FlightRecorder
from repro.runtime.tracing import LatencyHistogram, Tracer


@dataclass
class LoadConfig:
    """One load-generation scenario."""

    peers: int = 8               #: P — fabric endpoints
    channels: int = 32           #: M — concurrent ordered channels
    messages: int = 16           #: K — framed messages per channel
    message_words: int = 64      #: payload words per message
    packet_words: int = 16
    window: int = 32             #: send window per channel
    mode: str = "cm5"            #: "cm5" | "cr"
    transport: str = "loopback"
    drop_rate: float = 0.01
    dup_rate: float = 0.0
    reorder_rate: float = 0.05
    seed: int = 0x5CA1E
    ack_every: int = 8
    ack_delay: float = 0.005
    deadline: float = 60.0
    backoff: Optional[BackoffPolicy] = None
    audit: bool = False          #: run the exactly-once delivery ledger
    #: Offered-load multiplier.  1.0 is the paced baseline; >1 arms the
    #: overload scenario: each lane *offers* ``messages × overload``
    #: messages and reacts to backpressure — SOFT delays by
    #: ``soft_delay``, HARD sheds (counted, never stamped into the
    #: ledger, so the audit stays exact).
    overload: float = 1.0
    soft_delay: float = 0.002    #: pause per SOFT signal under overload
    #: Per-channel credit window; None derives a default sized to a few
    #: send windows (generous at baseline load, binding at overload).
    flow: Optional[FlowControlConfig] = None

    def __post_init__(self) -> None:
        if self.peers < 2:
            raise ValueError("a fabric load needs at least 2 peers")
        if self.channels < 1 or self.messages < 1:
            raise ValueError("channels and messages must be positive")
        if self.message_words < 3:
            # The first three payload words carry the channel id, the
            # message index, and a per-message checksum, so exactly-once
            # in-order delivery can be audited end to end.
            raise ValueError("message_words must be at least 3")
        if self.overload <= 0:
            raise ValueError("overload multiplier must be positive")
        if self.soft_delay < 0:
            raise ValueError("soft_delay must be non-negative")

    def flow_config(self) -> FlowControlConfig:
        """The credit window this run arms every channel with.

        At baseline load the derived window is generous (several send
        windows) so credit never constrains a healthy run; under
        overload it tightens to roughly one send window, making the
        credit machinery — not luck — what bounds buffer growth and
        drives the SOFT/HARD reactions the scenario exists to exercise.
        """
        if self.flow is not None:
            return self.flow
        packet_bytes = self.packet_words * 4
        if self.overload > 1.0:
            return FlowControlConfig(
                window_bytes=max(2048, self.window * packet_bytes),
                window_msgs=max(16, self.window),
            )
        return FlowControlConfig(
            window_bytes=max(4096, 4 * self.window * packet_bytes),
            window_msgs=max(64, 4 * self.window),
        )

    def fault_kwargs(self) -> Dict[str, float]:
        return {
            "drop_rate": self.drop_rate, "dup_rate": self.dup_rate,
            "reorder_rate": self.reorder_rate, "seed": self.seed,
        }


@dataclass
class LoadResult:
    """What one load run measured."""

    config: LoadConfig
    completed: bool
    wall_ns: int
    messages_sent: int
    messages_delivered: int
    corrupt_messages: int
    latency: LatencyHistogram
    feature_ns: Dict[Feature, int]
    wire: Dict[str, int] = field(default_factory=dict)
    per_peer_counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    audit: Optional[AuditReport] = None
    messages_shed: int = 0       #: offered messages dropped on HARD signal
    soft_delays: int = 0         #: SOFT-signal pauses taken by senders
    #: Peak-memory accounting: high-water buffer occupancies against
    #: their configured bounds (the overload survival gate).
    peaks: Dict[str, int] = field(default_factory=dict)

    @property
    def lost_messages(self) -> int:
        return self.messages_sent - self.messages_delivered

    @property
    def throughput_msgs_per_s(self) -> float:
        secs = self.wall_ns / 1e9
        return self.messages_delivered / secs if secs else 0.0

    @property
    def throughput_words_per_s(self) -> float:
        return self.throughput_msgs_per_s * self.config.message_words

    @property
    def total_ns(self) -> int:
        return sum(self.feature_ns.values())

    def share(self, feature: Feature) -> float:
        total = self.total_ns
        return self.feature_ns.get(feature, 0) / total if total else 0.0

    @property
    def ordering_fault_share(self) -> float:
        """The Figure 6 quantity, fabric-wide."""
        return self.share(Feature.IN_ORDER) + self.share(Feature.FAULT_TOLERANCE)

    @property
    def acks_per_data(self) -> float:
        data = self.wire.get("data_datagrams", 0)
        return self.wire.get("ack_datagrams", 0) / data if data else 0.0

    @property
    def messages_offered(self) -> int:
        """Everything the senders tried to submit (sent + shed)."""
        return self.messages_sent + self.messages_shed

    @property
    def shed_share(self) -> float:
        offered = self.messages_offered
        return self.messages_shed / offered if offered else 0.0

    @property
    def flow_control_share(self) -> float:
        """Wall-clock share of the credit machinery (admission
        accounting, advertisements, probes — not idle blocked time)."""
        return self.share(Feature.FLOW_CONTROL)

    def to_record(self) -> Dict[str, Any]:
        """JSON-friendly summary (the shape ``render_fabric_sweep`` and
        ``BENCH_runtime.json`` consume)."""
        return {
            "mode": self.config.mode,
            "transport": self.config.transport,
            "peers": self.config.peers,
            "channels": self.config.channels,
            "messages_per_channel": self.config.messages,
            "message_words": self.config.message_words,
            "completed": self.completed,
            "wall_ns": self.wall_ns,
            "overload": self.config.overload,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_shed": self.messages_shed,
            "messages_offered": self.messages_offered,
            "shed_share": self.shed_share,
            "soft_delays": self.soft_delays,
            "lost_messages": self.lost_messages,
            "corrupt_messages": self.corrupt_messages,
            "peaks": dict(self.peaks),
            "throughput_msgs_per_s": self.throughput_msgs_per_s,
            "throughput_words_per_s": self.throughput_words_per_s,
            "latency": self.latency.to_dict(),
            "wire": dict(self.wire),
            "acks_per_data": self.acks_per_data,
            "features": {
                feature.value: {
                    "ns": self.feature_ns.get(feature, 0),
                    "share": self.share(feature),
                }
                for feature in Feature
            },
            "ordering_fault_share": self.ordering_fault_share,
            "flow_control_share": self.flow_control_share,
            "errors": list(self.errors),
            "audit": self.audit.to_dict() if self.audit is not None else None,
        }

    def __str__(self) -> str:
        return (
            f"load {self.config.mode}/P={self.config.peers}"
            f"/M={self.config.channels}/K={self.config.messages}: "
            f"{self.messages_delivered}/{self.messages_sent} delivered in "
            f"{self.wall_ns / 1e6:.1f}ms "
            f"({self.throughput_msgs_per_s:.0f} msg/s, "
            f"p99 {self.latency.p99 / 1e6:.2f}ms)"
        )


def message_checksum(cid: int, index: int, filler: Sequence[int]) -> int:
    """Application-level CRC-32 over one message's identity and body.

    Independent of the wire-frame checksum: this one is computed by the
    *producer* and verified by the *consumer*, so it catches anything
    the messaging layers could mangle end to end — truncation,
    word-level damage, cross-channel mixups — not just per-datagram bit
    flips.
    """
    body = ("%d|%d|" % (cid, index)).encode("ascii")
    body += b",".join(b"%d" % w for w in filler)
    return zlib.crc32(body)


@dataclass
class AuditReport:
    """The verdict of one end-to-end delivery audit."""

    offered: int                 #: messages stamped into the ledger
    delivered: int               #: messages that arrived and verified
    duplicates: int              #: arrivals of an already-delivered index
    misordered: int              #: arrivals that skipped ahead of a gap
    checksum_failures: int       #: arrivals whose CRC or identity lied
    missing: int                 #: never arrived on a *live* lane
    missing_on_broken: int       #: never arrived on a ChannelBroken lane
    broken_lanes: int

    @property
    def violations(self) -> int:
        """Exactly-once/in-order breaches.  Messages missing on a lane
        that ended in a typed ``ChannelBroken`` are *not* violations —
        a permanently dead peer loses data loudly, by contract."""
        return (self.duplicates + self.misordered
                + self.checksum_failures + self.missing)

    @property
    def clean(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "delivered": self.delivered,
            "duplicates": self.duplicates,
            "misordered": self.misordered,
            "checksum_failures": self.checksum_failures,
            "missing": self.missing,
            "missing_on_broken": self.missing_on_broken,
            "broken_lanes": self.broken_lanes,
            "violations": self.violations,
        }


class AuditLedger:
    """Global sequence ledger proving exactly-once in-order delivery.

    Producers :meth:`stamp` every message before sending (embedding the
    channel id, per-channel index, and a CRC-32 into the payload);
    consumers :meth:`record_delivery` every arrival.  Because each lane
    is an ordered channel, the ledger demands per-channel indices arrive
    as exactly ``0, 1, 2, ...`` — anything else is counted as a
    duplicate, a misorder, or (via :meth:`verdict`) a loss.
    """

    def __init__(self) -> None:
        self.offered = 0
        self.delivered = 0
        self.duplicates = 0
        self.misordered = 0
        self.checksum_failures = 0
        self._offered_next: Dict[int, int] = {}    # cid -> next index to stamp
        self._delivered_next: Dict[int, int] = {}  # cid -> next index expected

    def stamp(self, cid: int, index: int, filler: Sequence[int]) -> List[int]:
        """Build (and register) the payload for message ``index`` of
        lane ``cid``: ``[cid, index, crc, *filler]``."""
        expected = self._offered_next.get(cid, 0)
        if index != expected:
            raise ValueError(
                f"lane {cid} stamped index {index}, expected {expected}")
        self._offered_next[cid] = index + 1
        self.offered += 1
        return [cid, index, message_checksum(cid, index, filler)] + list(filler)

    def record_delivery(self, cid: int, words: Sequence[int]) -> bool:
        """Verify one arrival; returns True when it was a fresh, intact,
        in-order delivery."""
        if len(words) < 3 or words[0] != cid:
            self.checksum_failures += 1
            return False
        index, crc = words[1], words[2]
        if crc != message_checksum(cid, index, words[3:]):
            self.checksum_failures += 1
            return False
        expected = self._delivered_next.get(cid, 0)
        if index < expected:
            self.duplicates += 1
            return False
        if index > expected:
            # The lane skipped over a gap: one misorder violation, then
            # resynchronize so the rest of the lane is still auditable.
            self.misordered += 1
            self._delivered_next[cid] = index + 1
            self.delivered += 1
            return False
        self._delivered_next[cid] = index + 1
        self.delivered += 1
        return True

    def lane_delivered(self, cid: int) -> int:
        return self._delivered_next.get(cid, 0)

    def verdict(self, broken_lanes: Iterable[int] = ()) -> AuditReport:
        """Close the books: anything stamped but never delivered is a
        loss — a violation unless its lane ended in ``ChannelBroken``."""
        broken = set(broken_lanes)
        missing = 0
        missing_on_broken = 0
        for cid, offered in self._offered_next.items():
            gap = offered - self._delivered_next.get(cid, 0)
            if gap <= 0:
                continue
            if cid in broken:
                missing_on_broken += gap
            else:
                missing += gap
        return AuditReport(
            offered=self.offered,
            delivered=self.delivered,
            duplicates=self.duplicates,
            misordered=self.misordered,
            checksum_failures=self.checksum_failures,
            missing=missing,
            missing_on_broken=missing_on_broken,
            broken_lanes=len(broken),
        )


def spread_pairs(names: Sequence[str], count: int) -> List[Tuple[str, str]]:
    """``count`` directed (src, dst) pairs spread evenly over ``names``.

    The first ``P`` pairs form a stride-1 ring, the next ``P`` a
    stride-2 ring, and so on — every peer sources (and sinks) an equal
    share of the channels, unlike a lexicographic all-pairs prefix
    which would pile every channel onto the first peer.
    """
    n = len(names)
    if n < 2:
        raise ValueError("need at least two peers to form pairs")
    pairs = []
    for i in range(count):
        src = i % n
        stride = 1 + (i // n) % (n - 1)
        pairs.append((names[src], names[(src + stride) % n]))
    return pairs


#: Hard cap on per-lane in-flight send timestamps.  Far above any
#: credit window the load harness configures, so at sane loads every
#: message is sampled — the cap only engages when backlog explodes.
SEND_STAMP_LIMIT = 1024


class SendStampReservoir:
    """Index-matched send timestamps with a hard size bound.

    The old design queued one timestamp per send in an unbounded deque,
    paired *positionally* with deliveries — so (a) peak memory grew
    with offered load (an overload sweep's whole backlog sat in the
    deque), and (b) any never-delivered message skewed every later
    latency sample by one position.  This keyed reservoir caps the
    footprint at ``limit`` in-flight stamps — overflow sends simply go
    unsampled, counted in :attr:`unsampled` — and pairs each delivery
    with *its own* send by message index, so samples stay exact under
    loss and shedding.
    """

    __slots__ = ("limit", "_ts", "peak", "unsampled")

    def __init__(self, limit: int = SEND_STAMP_LIMIT) -> None:
        if limit < 1:
            raise ValueError("reservoir limit must be positive")
        self.limit = limit
        self._ts: Dict[int, int] = {}
        #: High-water mark of in-flight stamps (bounded by ``limit``).
        self.peak = 0
        #: Sends that arrived with the reservoir full and went unsampled.
        self.unsampled = 0

    def __len__(self) -> int:
        return len(self._ts)

    def stamp(self, index: int, now: int) -> None:
        """Record the send time of message ``index`` (drop when full)."""
        if len(self._ts) >= self.limit:
            self.unsampled += 1
            return
        self._ts[index] = now
        if len(self._ts) > self.peak:
            self.peak = len(self._ts)

    def resolve(self, index: int, now: int) -> Optional[int]:
        """Latency of message ``index``, or ``None`` if unsampled."""
        sent = self._ts.pop(index, None)
        return None if sent is None else now - sent


class _LoadChannel:
    """One driven channel: framing, send timestamps, delivery latency."""

    def __init__(self, conn: FabricConnection, expect: int,
                 hist: LatencyHistogram,
                 ledger: Optional[AuditLedger] = None,
                 recorder: Optional[FlightRecorder] = None) -> None:
        self.conn = conn
        self.framed = LiveFramedChannel(conn.channel)
        self.expect = expect
        self.hist = hist
        self.ledger = ledger
        self.recorder = recorder
        self.sent = 0
        self.delivered = 0
        self.corrupt = 0
        self.shed = 0
        self.soft_delays = 0
        self._last_signal = BackpressureSignal.OK
        self._last_mark_ns = 0
        self._send_ts = SendStampReservoir()
        self._done: "asyncio.Future" = asyncio.get_running_loop().create_future()
        self.framed.on_message(self._on_message)

    def _on_message(self, words: List[int]) -> None:
        now = time.perf_counter_ns()
        index = self.delivered
        self.delivered += 1
        delta = self._send_ts.resolve(index, now)
        if delta is not None:
            self.hist.record(delta)
        # Integrity: the channel is ordered, so message k must carry
        # [cid, k, ...] exactly.
        if len(words) < 2 or words[0] != self.conn.cid or words[1] != index:
            self.corrupt += 1
        if self.ledger is not None:
            self.ledger.record_delivery(self.conn.cid, words)
        if (self.expect is not None and self.delivered >= self.expect
                and not self._done.done()):
            self._done.set_result(True)

    async def drive(self, message_words: int, overload: float = 1.0,
                    soft_delay: float = 0.002) -> None:
        reserved = 2 if self.ledger is None else 3
        filler = list(range(reserved, message_words))
        offered = max(1, round(self.expect * overload))
        # Payload plus the framing layer's length-prefix word — what one
        # message will consume from the credit window.
        msg_bytes = (message_words + 1) * 4
        if overload > 1.0:
            # The delivery target is only known once shedding resolves.
            self.expect = None
        for _attempt in range(offered):
            if overload > 1.0:
                signal = self.conn.channel.flow_signal(msg_bytes)
                if signal is BackpressureSignal.OK:
                    # The offered send fits (OK is binary admission);
                    # pacing advice comes from the advisory headroom
                    # estimate instead.
                    signal = self.conn.channel.flow_signal()
                if self.recorder is not None and signal is not self._last_signal:
                    # Mark episode *starts* only, debounced: the signal
                    # flaps at the SOFT boundary, and a mark per flap
                    # would drown the timeline.  Recovery shows up in
                    # the curves themselves.
                    now = time.perf_counter_ns()
                    if (signal is not BackpressureSignal.OK
                            and now - self._last_mark_ns > 100_000_000):
                        self.recorder.annotate(
                            f"backpressure {signal.name} ch{self.conn.cid}")
                        self._last_mark_ns = now
                    self._last_signal = signal
                if signal is BackpressureSignal.HARD:
                    # Shed *before* stamping: a shed message never
                    # enters the ledger, so it can never be counted
                    # missing — or delivered.
                    self.shed += 1
                    continue
                if signal is BackpressureSignal.SOFT:
                    self.soft_delays += 1
                    await asyncio.sleep(soft_delay)
            k = self.sent
            if self.ledger is not None:
                payload = self.ledger.stamp(self.conn.cid, k, filler)
            else:
                payload = [self.conn.cid, k] + filler
            self._send_ts.stamp(k, time.perf_counter_ns())
            await self.framed.send_message(payload)
            self.sent += 1
        if self.expect is None:
            self.expect = self.sent
            if self.delivered >= self.expect and not self._done.done():
                self._done.set_result(True)
        await self.conn.drain()
        # Acks confirm the source buffer; delivery (and CR mode, which
        # has no acks at all) still needs the receive side to finish.
        await self._done


async def run_load(config: LoadConfig,
                   tracer: Optional[Tracer] = None,
                   recorder: Optional[FlightRecorder] = None) -> LoadResult:
    """Run one load scenario on the current event loop."""
    fabric = Fabric(
        mode=config.mode, transport=config.transport, tracer=tracer,
        backoff=config.backoff or LOOPBACK_BACKOFF,
        **(config.fault_kwargs() if config.transport == "loopback" else {}),
    )
    hist = LatencyHistogram()
    ledger = AuditLedger() if config.audit else None
    errors: List[str] = []
    completed = False
    lanes: List[_LoadChannel] = []
    try:
        names = [f"p{i:03d}" for i in range(config.peers)]
        for name in names:
            await fabric.add_peer(name)
            if recorder is not None:
                recorder.register_endpoint(fabric.peer(name))
        pairs = spread_pairs(names, config.channels)
        flow = config.flow_config()
        reorder_window = max(256, 2 * config.window)
        for src, dst in pairs:
            conn = await fabric.connect(
                src, dst, window=config.window,
                packet_words=config.packet_words,
                reorder_window=reorder_window,
                ack_every=config.ack_every, ack_delay=config.ack_delay,
                flow=flow,
            )
            lanes.append(_LoadChannel(conn, config.messages, hist,
                                      ledger=ledger, recorder=recorder))

        if recorder is not None:
            recorder.annotate(
                f"load {config.mode} x{config.peers} "
                f"overload={config.overload:g} start")
            recorder.start()
        start = time.perf_counter_ns()
        tasks = [asyncio.ensure_future(
                     lane.drive(config.message_words,
                                overload=config.overload,
                                soft_delay=config.soft_delay))
                 for lane in lanes]
        try:
            await asyncio.wait_for(asyncio.gather(*tasks), config.deadline)
            completed = True
        except asyncio.TimeoutError:
            errors.append(f"deadline of {config.deadline}s expired")
        except Exception as exc:  # ProtocolFailure et al.
            errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            # One failed lane must not leave its siblings running into
            # the fabric teardown below.
            for task in tasks:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        wall_ns = time.perf_counter_ns() - start

        feature_ns = fabric.attribution_totals()
        wire = fabric.wire_totals()
        per_peer = fabric.endpoint_counters()
        # High-water buffer occupancies, gathered before teardown: the
        # quantities the credit window exists to bound.
        peaks = {
            "reorder_parked": max(
                (lane.conn.channel.receiver.reorder.parked_peak
                 for lane in lanes), default=0),
            "reorder_window": reorder_window,
            "tracked": max(
                (lane.conn.channel.sender.retransmitter.tracked_peak
                 for lane in lanes), default=0),
            "send_window": config.window,
            "buffered_bytes": max(
                (lane.conn.channel.receiver.flow.peak_buffered_bytes
                 for lane in lanes
                 if lane.conn.channel.receiver.flow is not None), default=0),
            "window_bytes": flow.window_bytes,
            "send_stamps": max(
                (lane._send_ts.peak for lane in lanes), default=0),
            "send_stamp_limit": SEND_STAMP_LIMIT,
        }
    finally:
        if recorder is not None:
            await recorder.stop()
        await fabric.close()
    return LoadResult(
        config=config,
        completed=completed,
        wall_ns=wall_ns,
        messages_sent=sum(lane.sent for lane in lanes),
        messages_delivered=sum(lane.delivered for lane in lanes),
        corrupt_messages=sum(lane.corrupt for lane in lanes),
        latency=hist,
        feature_ns=feature_ns,
        wire=wire,
        per_peer_counters=per_peer,
        errors=errors,
        audit=ledger.verdict() if ledger is not None else None,
        messages_shed=sum(lane.shed for lane in lanes),
        soft_delays=sum(lane.soft_delays for lane in lanes),
        peaks=peaks,
    )


def measure_load(config: LoadConfig,
                 tracer: Optional[Tracer] = None,
                 recorder: Optional[FlightRecorder] = None) -> LoadResult:
    """Synchronous one-shot load run (owns the event loop)."""
    return asyncio.run(run_load(config, tracer=tracer, recorder=recorder))


def sweep_peer_counts(
    base: LoadConfig,
    peer_counts: Sequence[int],
    modes: Sequence[str] = ("cm5", "cr"),
) -> List[LoadResult]:
    """Run ``base`` at every peer count × mode; returns the results in
    sweep order (the live analogue of sweeping ``p`` in Figure 8)."""
    results = []
    for peers in peer_counts:
        for mode in modes:
            results.append(measure_load(replace(base, peers=peers, mode=mode)))
    return results


def sweep_overload(
    base: LoadConfig,
    factors: Sequence[float] = (1.0, 2.0, 5.0, 10.0),
    modes: Sequence[str] = ("cm5", "cr"),
    recorder: Optional[FlightRecorder] = None,
) -> List[LoadResult]:
    """The overload survival curve: run ``base`` at each offered-load
    multiple × mode.  The interesting quantities per cell are delivered
    throughput (does it degrade gracefully or collapse?), the shed
    share, the flow-control timeshare, and the peak buffer occupancies
    against their advertised bounds.  A shared ``recorder`` stitches the
    whole ramp into one timeline: each cell re-registers its endpoints
    (same peer names, so the instruments swap over) and the start marks
    plus SOFT/HARD transitions delimit the episodes."""
    results = []
    for mode in modes:
        for factor in factors:
            results.append(measure_load(
                replace(base, mode=mode, overload=factor, audit=True),
                recorder=recorder))
    return results
