"""The workload driver: concurrent load, and chaos, over the N-peer fabric.

The live analogue of sweeping packet count ``p`` in the paper's Figure 8
cost model: drive **M concurrent lanes × K messages** across **P fabric
peers** and measure, per run,

* throughput (messages/s and words/s, against the wall clock),
* per-message delivery latency (submit → in-order delivery at the
  destination) folded into a :class:`~repro.runtime.tracing.LatencyHistogram`
  for p50/p90/p99,
* acknowledgement traffic per data datagram (the coalescing quality
  under fan-out),
* and the per-feature wall-clock timeshare summed over every peer — so
  the CM-5-vs-CR overhead collapse can be checked *at every peer
  count*, not just for one src→dst pair.

Every lane runs one of the paper's three protocols
(:attr:`LoadConfig.protocol`): framed messages on an ordered channel
(``indefinite``, the default), one bulk transfer per message
(``finite``), or one-packet messages (``single``).  A protocol cell of
the paper's Figure 6 is a two-peer, one-lane run
(:func:`protocol_cell`) with no credit window (:attr:`LoadConfig.metered`
off), since the paper's protocols have no flow control.

A chaos run is a load run plus a fault script: given a scenario name
from :data:`repro.runtime.chaos.SCENARIOS`, :func:`run_load` also arms
a :class:`~repro.runtime.chaos.ChaosInjector` and the SWIM detector and
runs the script alongside the traffic (:data:`CHAOS` is the soak shape).

:func:`measure_load` is the synchronous one-shot (owns the event loop);
:func:`run_load` is the coroutine for async callers;
:func:`sweep_overload` runs one config across offered-load multiples.
"""

from __future__ import annotations

import asyncio
import struct
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.attribution import Feature
from repro.runtime.channels import LiveFramedChannel
from repro.runtime.chaos import (
    CHAOS_BACKOFF,
    SCENARIOS,
    ChaosEngine,
    ChaosInjector,
)
from repro.runtime.fabric import Fabric, FabricConnection
from repro.runtime.flowcontrol import BackpressureSignal, FlowControlConfig
from repro.runtime.membership import SwimConfig, SwimDetector
from repro.runtime.protocols import (
    BulkReceiver,
    BulkSender,
    ChannelBroken,
    RecoveryPolicy,
    SinglePacketReceiver,
    SinglePacketSender,
)
from repro.runtime.reliability import BackoffPolicy
from repro.runtime.tracing import EventType, LatencyHistogram, Tracer

#: Backoff used by loopback runs: quick enough that injected drops are
#: recovered in milliseconds, patient enough that emulated reordering
#: (default 2 ms) never triggers a spurious retransmission.
LOOPBACK_BACKOFF = BackoffPolicy(initial=0.02, factor=1.7, ceiling=0.3, max_retries=12)


#: The paper's three protocols, by the name :attr:`LoadConfig.protocol`
#: takes.
PROTOCOL_NAMES = ("single", "finite", "indefinite")


@dataclass
class LoadConfig:
    """One run of the workload driver (plus a scenario, a chaos run)."""

    peers: int = 8               #: P — fabric endpoints
    channels: int = 32           #: M — concurrent ordered channels
    messages: int = 16           #: K — framed messages per channel
    message_words: int = 64      #: payload words per message
    packet_words: int = 16
    window: int = 32             #: send window per channel
    mode: str = "cm5"            #: "cm5" | "cr"
    transport: str = "loopback"
    #: What every lane runs, one of :data:`PROTOCOL_NAMES`: one-packet
    #: messages, one bulk transfer per message, or framed messages on
    #: an ordered channel.
    protocol: str = "indefinite"
    drop_rate: float = 0.01
    dup_rate: float = 0.0
    reorder_rate: float = 0.05
    corrupt_rate: float = 0.0
    seed: int = 0x5CA1E
    ack_every: int = 8
    ack_delay: float = 0.005
    deadline: float = 60.0
    #: Pause after each send, so paced traffic spans a fault script
    #: (0 sends unpaced).
    send_interval: float = 0.0
    backoff: Optional[BackoffPolicy] = None
    #: Epoch renegotiation after retry exhaustion (None: none armed).
    recovery: Optional[RecoveryPolicy] = None
    #: SWIM gossip membership; the detector runs when this is set.
    membership: Optional[SwimConfig] = None
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
    #: Whether ordered lanes carry a credit window at all.  A protocol
    #: cell runs without one: the paper's stream protocol has no flow
    #: control, and its Figure 6 shares must not count one.
    metered: bool = True

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOL_NAMES:
            raise ValueError(f"unknown protocol {self.protocol!r} "
                             f"(expected one of {PROTOCOL_NAMES})")
        if self.protocol == "single" and self.message_words > self.packet_words:
            raise ValueError("a single-packet message must fit in one "
                             "packet (message_words <= packet_words)")
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
        if self.soft_delay < 0 or self.send_interval < 0:
            raise ValueError("soft_delay and send_interval must be "
                             "non-negative")

    def flow_config(self) -> Optional[FlowControlConfig]:
        """The credit window this run arms every channel with (None:
        unmetered, when :attr:`metered` is off).

        At baseline load the derived window is generous (several send
        windows) so credit never constrains a healthy run; under
        overload it tightens to roughly one send window, making the
        credit machinery — not luck — what bounds buffer growth and
        drives the SOFT/HARD reactions the scenario exists to exercise.
        """
        if not self.metered:
            return None
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
        """The hub's static fault profile (UDP takes none)."""
        if self.transport != "loopback":
            return {}
        return {
            "drop_rate": self.drop_rate, "dup_rate": self.dup_rate,
            "reorder_rate": self.reorder_rate,
            "corrupt_rate": self.corrupt_rate, "seed": self.seed,
        }


#: The chaos soak shape: a small fabric of paced, audited lanes under a
#: lossy hub, with SWIM watching and epoch recovery armed, so every
#: scripted fault lands on live traffic.
CHAOS = LoadConfig(
    peers=6, channels=8, messages=36, message_words=12, packet_words=8,
    window=16, drop_rate=0.01, dup_rate=0.01, reorder_rate=0.05,
    corrupt_rate=0.002, seed=0xC4A05, ack_every=4, ack_delay=0.004,
    deadline=30.0, send_interval=0.012, backoff=CHAOS_BACKOFF,
    recovery=RecoveryPolicy(), membership=SwimConfig(), audit=True,
)


def protocol_cell(protocol: str, packets: int, packet_words: int = 16,
                  **fields: Any) -> LoadConfig:
    """One cell of the paper's protocol × network matrix as a load run:
    two peers and one audited, unmetered lane carrying ``packets ×
    packet_words`` words — ``packets`` one-packet messages for
    ``single``, one message for ``finite`` and ``indefinite``.
    ``fields`` set the rest of the config (mode, transport, faults,
    deadline)."""
    single = protocol == "single"
    return LoadConfig(
        peers=2, channels=1, protocol=protocol, audit=True, metered=False,
        messages=packets if single else 1,
        message_words=packet_words if single else packets * packet_words,
        packet_words=packet_words, **fields)


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
    #: Each live peer's share of :attr:`feature_ns` (a two-peer cell's
    #: source and destination columns).
    peer_feature_ns: Dict[str, Dict[Feature, int]] = field(default_factory=dict)
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

    def feature_record(self) -> Dict[str, Dict[str, float]]:
        """Per-feature nanoseconds and shares, keyed by feature name."""
        return {
            feature.value: {"ns": self.feature_ns.get(feature, 0),
                            "share": self.share(feature)}
            for feature in Feature
        }

    @property
    def ordering_fault_share(self) -> float:
        """The Figure 6 quantity, fabric-wide."""
        return self.share(Feature.IN_ORDER) + self.share(Feature.FAULT_TOLERANCE)

    @property
    def acks_per_data(self) -> float:
        data = self.wire.get("data_datagrams", 0)
        return self.wire.get("ack_datagrams", 0) / data if data else 0.0

    def counter(self, leaf: str) -> int:
        """Every peer's counters named ``<scope>.<leaf>``, summed (say
        ``"data_rounds"`` for the bulk senders' ``bulk_tx.data_rounds``)."""
        return sum(value for counters in self.per_peer_counters.values()
                   for name, value in counters.items()
                   if name.rpartition(".")[2] == leaf)

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
            "protocol": self.config.protocol,
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
            "features": self.feature_record(),
            "peer_features": {
                name: {feature.value: ns for feature, ns in by_feature.items()}
                for name, by_feature in self.peer_feature_ns.items()},
            "ordering_fault_share": self.ordering_fault_share,
            "flow_control_share": self.flow_control_share,
            "errors": list(self.errors),
            "audit": self.audit.to_dict() if self.audit is not None else None,
        }

    def __str__(self) -> str:
        return (
            f"load {self.config.protocol}/{self.config.mode}/P={self.config.peers}"
            f"/M={self.config.channels}/K={self.config.messages}: "
            f"{self.messages_delivered}/{self.messages_sent} delivered in "
            f"{self.wall_ns / 1e6:.1f}ms "
            f"({self.throughput_msgs_per_s:.0f} msg/s, "
            f"p99 {self.latency.p99 / 1e6:.2f}ms)"
        )


@dataclass
class ChaosResult(LoadResult):
    """A load run with a fault script: what the scenario proved."""

    scenario: str = ""
    broken_lanes: List[Tuple[int, str]] = field(default_factory=list)
    detection_latency: Optional[float] = None   #: seconds, crash scenarios
    detection_expected: bool = False
    detection_bound: float = 0.0                #: configured ceiling (s)
    detector_counts: Dict[str, int] = field(default_factory=dict)
    refutations: int = 0                 #: suspicions recanted by the accused
    false_dead: List[str] = field(default_factory=list)
    refutation_expected: bool = False

    @property
    def fault_tolerance_share(self) -> float:
        return self.share(Feature.FAULT_TOLERANCE)

    @property
    def recoveries(self) -> int:
        """Epoch renegotiations completed."""
        return self.counter("recoveries_completed")

    @property
    def detection_within_bound(self) -> Optional[bool]:
        """Detection latency <= the SWIM config's derived bound (None
        when the scenario kills nobody)."""
        if self.detection_latency is None:
            return None
        return self.detection_latency <= self.detection_bound

    def to_record(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "mode": self.config.mode,
            "peers": self.config.peers,
            "lanes": self.config.channels,
            "messages_per_lane": self.config.messages,
            "completed": self.completed,
            "wall_ns": self.wall_ns,
            "audit": self.audit.to_dict(),
            "broken_lanes": [
                {"cid": cid, "reason": reason}
                for cid, reason in self.broken_lanes
            ],
            "detection_latency_s": self.detection_latency,
            "detection_expected": self.detection_expected,
            "detection_bound_s": self.detection_bound,
            "detection_within_bound": self.detection_within_bound,
            "refutations": self.refutations,
            "false_dead": list(self.false_dead),
            "refutation_expected": self.refutation_expected,
            "recoveries": self.recoveries,
            "wire": dict(self.wire),
            "detector": dict(self.detector_counts),
            "features": self.feature_record(),
            "fault_tolerance_share": self.fault_tolerance_share,
            "errors": list(self.errors),
        }

    def __str__(self) -> str:
        audit = self.audit
        verdict = "clean" if audit.clean else f"{audit.violations} violations"
        detect = (f", detected in {self.detection_latency * 1e3:.0f}ms"
                  if self.detection_latency is not None else "")
        return (
            f"chaos {self.scenario}/{self.config.mode}: "
            f"{audit.delivered}/{audit.offered} delivered, audit {verdict}, "
            f"{len(self.broken_lanes)} broken lane(s){detect}, "
            f"ft share {self.fault_tolerance_share:.1%}"
        )


#: Little-endian word packers by word count, compiled on first use.
_WORD_STRUCTS: Dict[int, struct.Struct] = {}


def message_checksum(cid: int, index: int, filler: Sequence[int]) -> int:
    """Application-level CRC-32 over one message's identity and body.

    Independent of the wire-frame checksum: this one is computed by the
    *producer* and verified by the *consumer*, so it catches anything
    the messaging layers could mangle end to end — truncation,
    word-level damage, cross-channel mixups — not just per-datagram bit
    flips.  The words are packed as 32-bit values; a word outside that
    range (a damaged message) yields -1, which no CRC-32 equals.
    """
    count = len(filler) + 2
    packer = _WORD_STRUCTS.get(count)
    if packer is None:
        packer = _WORD_STRUCTS[count] = struct.Struct(f"<{count}I")
    try:
        return zlib.crc32(packer.pack(cid, index, *filler))
    except struct.error:
        return -1


@dataclass
class AuditReport:
    """The verdict of one end-to-end delivery audit."""

    offered: int                 #: messages stamped into the ledger
    delivered: int               #: messages that arrived and verified
    duplicates: int              #: arrivals of an already-delivered index
    misordered: int              #: arrivals that skipped ahead of a gap
    checksum_failures: int       #: arrivals whose CRC or identity lied
    missing: int                 #: never arrived on an unexcused lane
    missing_on_broken: int       #: never arrived on an excused broken lane
    broken_lanes: int

    @property
    def violations(self) -> int:
        """Exactly-once/in-order breaches.  Messages missing on an
        excused lane — one that ended in a typed ``ChannelBroken`` into
        a peer that is still crashed — are *not* violations: a
        permanently dead peer loses data loudly, by contract."""
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
        expected = message_checksum(cid, index, words[3:])
        if crc != expected or expected < 0:
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

    def verdict(self, broken_lanes: Iterable[int] = ()) -> AuditReport:
        """Close the books: anything stamped but never delivered is a
        loss — a violation unless its lane is in ``broken_lanes``, the
        lanes the run excuses (broken into a permanently crashed peer)."""
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


def spread_pairs(names: Sequence[str], count: int,
                 victim: Optional[str] = None) -> List[Tuple[str, str]]:
    """``count`` directed (src, dst) pairs spread evenly over ``names``.

    The first ``P`` pairs form a stride-1 ring, the next ``P`` a
    stride-2 ring, and so on — every peer sources (and sinks) an equal
    share of the channels, unlike a lexicographic all-pairs prefix
    which would pile every channel onto the first peer.

    A ``victim`` (the peer a fault script crashes) never *sources* a
    pair — its senders would die with it — but at least one pair
    *sinks* at it, so crash scenarios always exercise receiver-side
    recovery.
    """
    n = len(names)
    if n < 2:
        raise ValueError("need at least two peers to form pairs")
    sources = [i for i, name in enumerate(names) if name != victim]
    pairs = []
    for i in range(count):
        src = sources[i % len(sources)]
        stride = 1 + (i // len(sources)) % (n - 1)
        pairs.append((names[src], names[(src + stride) % n]))
    if victim is not None and all(dst != victim for _, dst in pairs):
        pairs[0] = (pairs[0][0], victim)
    return pairs


#: Hard cap on per-lane in-flight send timestamps.  Far above any
#: credit window the load harness configures, so at sane loads every
#: message is sampled — the cap only engages when backlog explodes.
SEND_STAMP_LIMIT = 1024


class SendStampReservoir:
    """Index-matched send timestamps with a hard size bound.

    Bounded, so peak memory does not grow with offered load: at most
    ``limit`` stamps are in flight, and overflow sends simply go
    unsampled, counted in :attr:`unsampled`.  Keyed by message index,
    so each delivery pairs with *its own* send and a lost or shed
    message cannot skew any later latency sample.
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


class _OrderedPort:
    """An ``indefinite`` lane's port: framed messages on a fabric
    connection (an ordered channel)."""

    def __init__(self, conn: FabricConnection) -> None:
        self.cid = conn.cid
        self.conn = conn
        self.channel = conn.channel
        framed = LiveFramedChannel(conn.channel)
        self.send_message = framed.send_message
        self.on_message = framed.on_message

    async def drain(self) -> None:
        await self.conn.drain()

    async def close(self) -> None:
        await self.conn.close(drain=False)


class _DatagramPort:
    """A ``single`` or ``finite`` lane's port: a sender and receiver
    pair bound on a fresh channel id.  A send returns once the message
    is acknowledged, so there is nothing left to drain."""

    #: No ordered channel: nothing for credit or the buffer peaks.
    channel = None

    def __init__(self, cid: int, sender: Any, receiver: Any,
                 timeout: float) -> None:
        self.cid = cid
        self.sender = sender
        self.receiver = receiver
        self.timeout = timeout

    async def send_message(self, words: Sequence[int]) -> None:
        await self.sender.send(words, timeout=self.timeout)

    def on_message(self, callback: Callable[[List[int]], None]) -> None:
        self.receiver.on_message = callback

    async def drain(self) -> None:
        pass

    async def close(self) -> None:
        await self.sender.close()
        self.receiver.close()


async def _open_ordered(fabric: Fabric, src: str, dst: str,
                        config: LoadConfig,
                        flow: Optional[FlowControlConfig]) -> _OrderedPort:
    return _OrderedPort(await fabric.connect(
        src, dst, window=config.window, packet_words=config.packet_words,
        reorder_window=max(256, 2 * config.window),
        ack_every=config.ack_every, ack_delay=config.ack_delay, flow=flow))


async def _open_single(fabric: Fabric, src: str, dst: str,
                       config: LoadConfig,
                       flow: Optional[FlowControlConfig]) -> _DatagramPort:
    cid, tx, rx = fabric.allocate_channel(), fabric.peer(src), fabric.peer(dst)
    return _DatagramPort(
        cid, SinglePacketSender(tx, rx.local_address, channel=cid,
                                backoff=fabric.backoff),
        SinglePacketReceiver(rx, channel=cid), config.deadline)


async def _open_finite(fabric: Fabric, src: str, dst: str,
                       config: LoadConfig,
                       flow: Optional[FlowControlConfig]) -> _DatagramPort:
    cid, tx, rx = fabric.allocate_channel(), fabric.peer(src), fabric.peer(dst)
    return _DatagramPort(
        cid, BulkSender(tx, rx.local_address, channel=cid,
                        packet_words=config.packet_words,
                        backoff=fabric.backoff),
        BulkReceiver(rx, channel=cid), config.deadline)


#: One lane opener per protocol, each returning a port with the same
#: ``send_message``/``on_message``/``drain``/``close`` surface.  Only
#: the ordered port takes the credit window ``flow``.
LANE_OPENERS = {
    "single": _open_single,
    "finite": _open_finite,
    "indefinite": _open_ordered,
}


class _Lane:
    """One driven lane over a protocol port: paced or unpaced sends,
    backpressure reactions under overload, audit stamps, latency
    samples, and a permanently dead peer caught as :attr:`broken`."""

    def __init__(self, port: Any, src: str, dst: str, config: LoadConfig,
                 hist: LatencyHistogram, tracer: Tracer,
                 ledger: Optional[AuditLedger] = None) -> None:
        self.port = port
        self.cid = port.cid
        self.src = src
        self.dst = dst
        self.config = config
        self.expect: Optional[int] = config.messages
        self.hist = hist
        self.ledger = ledger
        self.tracer = tracer
        self.sent = 0
        self.delivered = 0
        self.corrupt = 0
        self.shed = 0
        self.soft_delays = 0
        #: Why the channel broke (a typed ``ChannelBroken``, or a fault
        #: script's verdict), or None while it is whole.
        self.broken: Optional[str] = None
        self.task: Optional[asyncio.Task] = None
        self._last_signal = BackpressureSignal.OK
        self._last_mark_ns = 0
        self._send_ts = SendStampReservoir()
        self._done: "asyncio.Future" = asyncio.get_running_loop().create_future()
        port.on_message(self._on_message)

    def _on_message(self, words: List[int]) -> None:
        now = time.perf_counter_ns()
        index = self.delivered
        self.delivered += 1
        delta = self._send_ts.resolve(index, now)
        if delta is not None:
            self.hist.record(delta)
        # Integrity: every lane delivers in order, so message k must
        # carry [cid, k, ...] exactly.
        if len(words) < 2 or words[0] != self.cid or words[1] != index:
            self.corrupt += 1
        if self.ledger is not None:
            self.ledger.record_delivery(self.cid, words)
        if (self.expect is not None and self.delivered >= self.expect
                and not self._done.done()):
            self._done.set_result(True)

    async def _admit(self, msg_bytes: int) -> bool:
        """React to backpressure before an overloaded send: False sheds
        the message (HARD), SOFT pauses for ``soft_delay`` first."""
        channel = self.port.channel
        signal = channel.flow_signal(msg_bytes)
        if signal is BackpressureSignal.OK:
            # The offered send fits (OK is binary admission); pacing
            # advice comes from the advisory headroom estimate instead.
            signal = channel.flow_signal()
        if self.tracer.enabled and signal is not self._last_signal:
            # Mark episode *starts* only, debounced: the signal flaps at
            # the SOFT boundary, and a mark per flap would drown the
            # timeline.  Recovery shows up in the curves themselves.
            now = time.perf_counter_ns()
            if (signal is not BackpressureSignal.OK
                    and now - self._last_mark_ns > 100_000_000):
                self.tracer.emit(
                    EventType.MARK, endpoint=self.src, channel=self.cid,
                    kind=f"backpressure {signal.name} ch{self.cid}")
                self._last_mark_ns = now
            self._last_signal = signal
        if signal is BackpressureSignal.HARD:
            # Shed *before* stamping: a shed message never enters the
            # ledger, so it can never be counted missing — or delivered.
            self.shed += 1
            return False
        if signal is BackpressureSignal.SOFT:
            self.soft_delays += 1
            await asyncio.sleep(self.config.soft_delay)
        return True

    async def drive(self) -> None:
        config = self.config
        reserved = 2 if self.ledger is None else 3
        filler = list(range(reserved, config.message_words))
        offered = max(1, round(config.messages * config.overload))
        overloaded = config.overload > 1.0
        # Payload plus the framing layer's length-prefix word — what one
        # message will consume from the credit window.
        msg_bytes = (config.message_words + 1) * 4
        if overloaded:
            # The delivery target is only known once shedding resolves.
            self.expect = None
        try:
            for _attempt in range(offered):
                if overloaded and not await self._admit(msg_bytes):
                    continue
                k = self.sent
                if self.ledger is not None:
                    payload = self.ledger.stamp(self.cid, k, filler)
                else:
                    payload = [self.cid, k] + filler
                self._send_ts.stamp(k, time.perf_counter_ns())
                await self.port.send_message(payload)
                self.sent += 1
                if config.send_interval:
                    await asyncio.sleep(config.send_interval)
            if self.expect is None:
                self.expect = self.sent
                if self.delivered >= self.expect and not self._done.done():
                    self._done.set_result(True)
            await self.port.drain()
            # Acks confirm the source buffer; delivery (and CR mode,
            # which has no acks at all) still needs the receive side.
            await self._done
        except ChannelBroken as exc:
            self.broken = str(exc)


async def run_load(config: LoadConfig, scenario: Optional[str] = None,
                   tracer: Optional[Tracer] = None) -> LoadResult:
    """Run one workload on the current event loop.

    With a ``scenario`` (a name in :data:`repro.runtime.chaos.SCENARIOS`)
    the run is a chaos run: the last peer is the victim, a
    :class:`ChaosInjector` and the SWIM detector are armed (SWIM with
    default knobs if neither config nor scenario sets them), the ledger
    audits every lane, the script runs alongside the traffic, and a
    :class:`ChaosResult` comes back.
    A lane that broke is excused in the audit only if its destination
    is still crashed when the run ends; any other broken lane is an
    error.  A ``tracer`` is labelled with the cell (scenario and mode,
    or protocol, mode, peers and overload factor), so runs that share
    one tracer stay apart; each scripted fault and each backpressure
    episode lands on it as a ``MARK``.

    Overload and fault scripts drive ordered lanes only: any other
    ``config.protocol`` with either raises ``ValueError``.
    """
    if config.protocol != "indefinite" and (scenario is not None
                                            or config.overload > 1.0):
        raise ValueError(f"overload and fault scenarios drive "
                         f"'indefinite' lanes, not {config.protocol!r}")
    scen = None
    membership = config.membership
    if scenario is not None:
        try:
            scen = SCENARIOS[scenario]
        except KeyError:
            raise ValueError(
                f"unknown scenario {scenario!r} "
                f"(have: {', '.join(sorted(SCENARIOS))})") from None
        if config.transport != "loopback":
            raise ValueError("a fault script needs the loopback hub")
        membership = scen.membership or membership or SwimConfig()
    if tracer is not None:
        tracer.label = (f"{scenario}/{config.mode}" if scen else
                        f"load/{config.protocol}/{config.mode}"
                        f"/p{config.peers}/x{config.overload:g}")
    fabric = Fabric(
        mode=config.mode, transport=config.transport, tracer=tracer,
        backoff=config.backoff or LOOPBACK_BACKOFF,
        recovery=(scen and scen.recovery) or config.recovery,
        **config.fault_kwargs(),
    )
    detector = SwimDetector(fabric, membership) if membership else None
    hist = LatencyHistogram()
    ledger = AuditLedger() if config.audit or scen else None
    errors: List[str] = []
    lanes: List[_Lane] = []
    engine: Optional[ChaosEngine] = None
    try:
        names = [f"p{i:03d}" for i in range(config.peers)]
        for name in names:
            await fabric.add_peer(name)
        victim = None
        if scen is not None:
            victim = names[-1]
            engine = ChaosEngine(
                fabric, ChaosInjector(fabric, seed=config.seed ^ 0xFA57),
                detector, victim, lanes)
        if detector is not None:
            detector.start()
        # A chaos lane is metered only when the scenario or config names
        # a window; the derived default sizes a load run.
        flow = (config.flow_config() if scen is None
                else scen.flow or config.flow)
        opener = LANE_OPENERS[config.protocol]
        for src, dst in spread_pairs(names, config.channels, victim):
            port = await opener(fabric, src, dst, config, flow)
            lanes.append(_Lane(port, src, dst, config, hist, fabric.tracer,
                               ledger=ledger))

        start = time.perf_counter_ns()
        for lane in lanes:
            lane.task = asyncio.ensure_future(lane.drive())
        tasks = [lane.task for lane in lanes]
        labels = [f"lane {lane.cid}->{lane.dst}" for lane in lanes]
        if engine is not None:
            tasks.append(asyncio.ensure_future(scen.script(engine)))
            labels.append("scenario script")
        try:
            outcomes = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True),
                config.deadline)
        except asyncio.TimeoutError:
            outcomes = []
            errors.append(f"deadline of {config.deadline}s expired")
        finally:
            # One failed lane must not leave its siblings running into
            # the fabric teardown below.
            for task in tasks:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        wall_ns = time.perf_counter_ns() - start
        for label, outcome in zip(labels, outcomes):
            # A lane a fault script cancelled ends in CancelledError,
            # which is no Exception: it is judged by ``broken`` below.
            if isinstance(outcome, Exception):
                errors.append(f"{label}: {type(outcome).__name__}: {outcome}")
        crashed = set(fabric.crashed_peers)
        excused = [lane.cid for lane in lanes
                   if lane.broken is not None and lane.dst in crashed]
        errors += [f"lane {lane.cid}->{lane.dst} broke: {lane.broken}"
                   for lane in lanes
                   if lane.broken is not None and lane.dst not in crashed]

        feature_ns = fabric.attribution_totals()
        peer_ns = {name: fabric.peer(name).attribution.snapshot()
                   for name in fabric.peer_names}
        wire = fabric.wire_totals()
        per_peer = fabric.endpoint_counters()
        # High-water buffer occupancies of the ordered lanes, gathered
        # before teardown: the quantities the credit window exists to
        # bound.
        channels = [lane.port.channel for lane in lanes
                    if lane.port.channel is not None]
        peaks = {
            "reorder_parked": max(
                (ch.receiver.reorder.parked_peak for ch in channels),
                default=0),
            "reorder_window": max(
                (ch.receiver.reorder.window for ch in channels), default=0),
            "tracked": max(
                (ch.sender.retransmitter.tracked_peak for ch in channels),
                default=0),
            "send_window": config.window,
            "buffered_bytes": max(
                (ch.receiver.flow.peak_buffered_bytes for ch in channels
                 if ch.receiver.flow is not None), default=0),
            "window_bytes": flow.window_bytes if flow is not None else 0,
            "send_stamps": max(
                (lane._send_ts.peak for lane in lanes), default=0),
            "send_stamp_limit": SEND_STAMP_LIMIT,
        }
    finally:
        if detector is not None:
            await detector.stop()
        for lane in lanes:
            await lane.port.close()
        await fabric.close()
    result = dict(
        config=config,
        completed=not errors,
        wall_ns=wall_ns,
        messages_sent=sum(lane.sent for lane in lanes),
        messages_delivered=sum(lane.delivered for lane in lanes),
        corrupt_messages=sum(lane.corrupt for lane in lanes),
        latency=hist,
        feature_ns=feature_ns,
        peer_feature_ns=peer_ns,
        wire=wire,
        per_peer_counters=per_peer,
        errors=errors,
        audit=ledger.verdict(excused) if ledger is not None else None,
        messages_shed=sum(lane.shed for lane in lanes),
        soft_delays=sum(lane.soft_delays for lane in lanes),
        peaks=peaks,
    )
    if engine is None:
        return LoadResult(**result)
    crashed_victim = {victim} if engine.crash_time is not None else set()
    detection = None
    if crashed_victim and victim in detector.dead_at:
        detection = detector.dead_at[victim] - engine.crash_time
    return ChaosResult(
        **result,
        scenario=scen.name,
        broken_lanes=[(lane.cid, lane.broken) for lane in lanes
                      if lane.broken is not None],
        detection_latency=detection,
        detection_expected=scen.expects_detection,
        detection_bound=membership.detection_bound,
        detector_counts=detector.counters.to_dict(),
        refutations=detector.counters.get("refutations"),
        false_dead=detector.false_dead(crashed_victim),
        refutation_expected=scen.expects_refutation,
    )


def measure_load(config: LoadConfig, scenario: Optional[str] = None,
                 tracer: Optional[Tracer] = None) -> LoadResult:
    """Synchronous one-shot run (owns the event loop)."""
    return asyncio.run(run_load(config, scenario=scenario, tracer=tracer))


def sweep_overload(
    base: LoadConfig,
    factors: Sequence[float] = (1.0, 2.0, 5.0, 10.0),
    modes: Sequence[str] = ("cm5", "cr"),
    tracer: Optional[Tracer] = None,
) -> List[LoadResult]:
    """The overload survival curve: run ``base`` at each offered-load
    multiple × mode.  The interesting quantities per cell are delivered
    throughput (does it degrade gracefully or collapse?), the shed
    share, the flow-control timeshare, and the peak buffer occupancies
    against their advertised bounds.  A shared ``tracer`` records the
    whole ramp: each cell runs under its own label, so a timeline of it
    marks every cell's start beside the SOFT/HARD episodes."""
    results = []
    for mode in modes:
        for factor in factors:
            results.append(measure_load(
                replace(base, mode=mode, overload=factor, audit=True),
                tracer=tracer))
    return results
