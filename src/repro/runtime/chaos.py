"""Chaos engine: scripted faults, failure detection, channel recovery.

The paper measures what fault tolerance *costs* when nothing actually
fails; this module measures the same feature buckets while things fail
on purpose.  Three cooperating parts:

* :class:`ChaosInjector` — a scripted fault layer the
  :class:`~repro.runtime.transport.LoopbackHub` consults per datagram,
  on top of its static :class:`~repro.runtime.transport.FaultProfile`:
  time-phased partitions (bidirectional or asymmetric), node isolation
  and link flaps, burst loss/corruption, and per-run latency spikes —
  all under a seeded RNG so every scenario replays identically.  On a
  *reliable* (CR) hub a partition holds the bytes and replays them in
  FIFO order on heal — the reliable network keeps its contract; on a
  CM-5 hub suppression is loss, and the protocol layers do the work.

* failure detection — :class:`~repro.runtime.membership.SwimDetector`
  runs under every scenario, so crash scenarios gate detection latency
  against its configured bound and the latency spike gates refutation.
  Its probes and bookkeeping are charged to ``Feature.FAULT_TOLERANCE``,
  including on CR, where the transport covers loss but not peer death.

* the **scenario engine** (:func:`run_chaos`) — named, scripted fault
  schedules (``partition-heal``, ``crash-restart``, ``rolling-flap``,
  ``burst-loss``, ``crash-permanent``) driven against paced traffic on
  audited lanes.  Every message is stamped into an
  :class:`~repro.runtime.loadgen.AuditLedger` before sending and
  verified on delivery, so each scenario ends with an end-to-end
  exactly-once, in-order verdict — or a *typed*
  :class:`~repro.runtime.protocols.ChannelBroken` on lanes whose peer
  is permanently gone.  Never a silent hang, never silent loss.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.arch.attribution import Feature
from repro.runtime.channels import LiveFramedChannel
from repro.runtime.fabric import Fabric, FabricConnection
from repro.runtime.flowcontrol import FlowControlConfig
from repro.runtime.loadgen import AuditLedger, AuditReport
from repro.runtime.membership import SwimConfig, SwimDetector
from repro.runtime.protocols import ChannelBroken, RecoveryPolicy
from repro.runtime.reliability import BackoffPolicy
from repro.runtime.telemetry import FlightRecorder
from repro.runtime.tracing import Tracer
from repro.runtime.transport import LoopbackHub, flip_bit

#: Retry schedule tuned for chaos scenarios: give-up lands around 260ms,
#: fast enough that a half-second outage exercises epoch renegotiation
#: instead of just patient retransmission.
CHAOS_BACKOFF = BackoffPolicy(initial=0.02, factor=1.5, ceiling=0.1,
                              max_retries=4)

#: Extra delay the latency-spike scenario adds to every datagram: far
#: past the SWIM probe timeouts (so suspicion is certain) but inside
#: that scenario's suspicion window (so refutation can win).
LATENCY_SPIKE_S = 0.6


# ---------------------------------------------------------------------------
# scripted fault injection
# ---------------------------------------------------------------------------


class ChaosInjector:
    """Scripted faults layered on a :class:`LoopbackHub`.

    Installs itself as ``hub.chaos`` and implements the hub's filter
    contract: ``filter(src, dst, data) -> (data, verdict, extra_delay)``.
    Faults are directed — an asymmetric partition blocks one direction
    only — and time-phased by whoever drives the scenario script.

    On a reliable hub, suppressed datagrams are *held* per directed link
    and replayed in original FIFO order when the link heals, so CR-mode
    delivery guarantees survive scripted outages.  Bursts (loss and bit
    damage) are no-ops on a reliable hub for the same reason.
    """

    def __init__(self, hub: LoopbackHub, seed: int = 0xC4A05) -> None:
        import random
        self.hub = hub
        self._rng = random.Random(seed)
        self._blocked: Set[Tuple[str, str]] = set()   # directed links
        self._isolated: Set[str] = set()              # whole nodes
        self._held: Dict[Tuple[str, str], List[bytes]] = {}
        self.drop_burst = 0.0
        self.corrupt_burst = 0.0
        self.extra_delay = 0.0
        self.replayed = 0
        #: Observer for scripted actions (e.g. a flight recorder's
        #: ``annotate``): called with a one-line description whenever
        #: the fault schedule changes, so telemetry timelines can show
        #: partition start/heal against the curves they bend.
        self.on_event: Optional[Callable[[str], None]] = None
        hub.chaos = self

    def _note(self, description: str) -> None:
        if self.on_event is not None:
            self.on_event(description)

    # -- the hub-facing contract ----------------------------------------------

    def _link_blocked(self, src: str, dst: str) -> bool:
        return (src in self._isolated or dst in self._isolated
                or (src, dst) in self._blocked)

    def filter(self, src: str, dst: str,
               data: bytes) -> Tuple[bytes, Optional[str], float]:
        if self._link_blocked(src, dst):
            if self.hub.reliable:
                self._held.setdefault((src, dst), []).append(data)
            return data, "partitioned", 0.0
        if not self.hub.reliable:
            if self.drop_burst and self._rng.random() < self.drop_burst:
                return data, "dropped", 0.0
            if self.corrupt_burst and self._rng.random() < self.corrupt_burst:
                return flip_bit(data, self._rng), "corrupted", 0.0
        return data, None, self.extra_delay

    # -- scripted actions -----------------------------------------------------

    def block_link(self, src: str, dst: str) -> None:
        """Suppress ``src -> dst`` only (asymmetric partition)."""
        self._blocked.add((src, dst))
        self._note(f"block {src}->{dst}")

    def partition_link(self, a: str, b: str) -> None:
        """Suppress both directions between ``a`` and ``b``."""
        self._blocked.add((a, b))
        self._blocked.add((b, a))
        self._note(f"partition {a}<->{b}")

    def partition_groups(self, left: Sequence[str],
                         right: Sequence[str]) -> None:
        """Split the network: no datagram crosses between the groups."""
        for a in left:
            for b in right:
                self._blocked.add((a, b))
                self._blocked.add((b, a))
        self._note(f"partition groups {'/'.join(left)} | {'/'.join(right)}")

    def isolate(self, name: str) -> None:
        """Cut every link touching ``name`` (node-level outage)."""
        self._isolated.add(name)
        self._note(f"isolate {name}")

    def heal_link(self, src: str, dst: str) -> None:
        self._blocked.discard((src, dst))
        self._note(f"heal {src}->{dst}")
        self._flush()

    def heal_node(self, name: str) -> None:
        self._isolated.discard(name)
        self._blocked = {(s, d) for s, d in self._blocked
                         if name not in (s, d)}
        self._note(f"heal {name}")
        self._flush()

    def heal_all(self) -> None:
        self._blocked.clear()
        self._isolated.clear()
        self._note("heal all")
        self._flush()

    def set_burst(self, drop: float = 0.0, corrupt: float = 0.0) -> None:
        """Set (or with no arguments clear) burst loss/corruption rates."""
        if not 0.0 <= drop <= 1.0 or not 0.0 <= corrupt <= 1.0:
            raise ValueError("burst rates must be in [0, 1]")
        self.drop_burst = drop
        self.corrupt_burst = corrupt
        self._note(f"burst drop={drop} corrupt={corrupt}")

    def spike_latency(self, delay: float = 0.0) -> None:
        """Add ``delay`` seconds to every delivered datagram (0 clears)."""
        if delay < 0:
            raise ValueError("latency spike must be non-negative")
        self.extra_delay = delay
        self._note(f"latency spike {delay * 1e3:.0f}ms")

    def _flush(self) -> None:
        """Replay held datagrams for links that are no longer blocked,
        preserving per-link FIFO order."""
        for link in list(self._held):
            if self._link_blocked(*link):
                continue
            src, dst = link
            for data in self._held.pop(link):
                if self.hub.inject(dst, data, src):
                    self.replayed += 1

    @property
    def held_count(self) -> int:
        return sum(len(q) for q in self._held.values())


# ---------------------------------------------------------------------------
# audited traffic lanes
# ---------------------------------------------------------------------------


def chaos_pairs(names: Sequence[str], count: int,
                victim: Optional[str] = None) -> List[Tuple[str, str]]:
    """``count`` directed lanes spread over ``names``, chaos-aware:

    the victim peer (the one scenarios crash) never *sources* a lane —
    its senders would die with it, which is uninteresting — but at least
    one lane is guaranteed to *sink* at the victim, so crash scenarios
    always exercise receiver-side recovery.
    """
    if len(names) < 2:
        raise ValueError("need at least two peers to form lanes")
    sources = [n for n in names if n != victim] or list(names)
    pairs: List[Tuple[str, str]] = []
    for i in range(count):
        src = sources[i % len(sources)]
        stride = 1 + (i // len(sources)) % (len(names) - 1)
        dst = names[(names.index(src) + stride) % len(names)]
        pairs.append((src, dst))
    if victim is not None and pairs and all(d != victim for _, d in pairs):
        pairs[0] = (pairs[0][0], victim)
    return pairs


class _ChaosLane:
    """One audited, paced traffic lane over a fabric connection."""

    def __init__(self, conn: FabricConnection, messages: int,
                 message_words: int, send_interval: float,
                 ledger: AuditLedger) -> None:
        self.conn = conn
        self.cid = conn.cid
        self.dst = conn.dst
        self.framed = LiveFramedChannel(conn.channel)
        self.messages = messages
        self.filler = list(range(3, message_words))
        self.send_interval = send_interval
        self.ledger = ledger
        self.sent = 0
        self.broken: Optional[str] = None
        self._all_delivered = asyncio.Event()
        self.framed.on_message(self._on_message)

    def _on_message(self, words: List[int]) -> None:
        self.ledger.record_delivery(self.cid, words)
        if self.ledger.lane_delivered(self.cid) >= self.messages:
            self._all_delivered.set()

    async def drive(self) -> None:
        """Send the lane's messages, paced so traffic spans the fault
        schedule, then drain.  A permanently dead peer surfaces as a
        typed :class:`ChannelBroken` — recorded, never re-raised as a
        hang."""
        try:
            for k in range(self.messages):
                payload = self.ledger.stamp(self.cid, k, self.filler)
                await self.framed.send_message(payload)
                self.sent += 1
                await asyncio.sleep(self.send_interval)
            await self.conn.drain(timeout=20.0)
        except ChannelBroken as exc:
            self.broken = str(exc)

    async def settle(self, timeout: float) -> None:
        """Wait for everything sent to be delivered (broken lanes are
        excused — the audit books their losses under the contract)."""
        if self.broken is not None or self.sent == 0:
            return
        try:
            await asyncio.wait_for(self._all_delivered.wait(), timeout)
        except asyncio.TimeoutError:
            pass  # the audit's `missing` count reports it loudly


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


class ChaosEngine:
    """What a scenario script gets to drive."""

    def __init__(self, config: "ChaosConfig", fabric: Fabric,
                 injector: ChaosInjector, detector: SwimDetector,
                 ledger: AuditLedger, victim: str) -> None:
        self.config = config
        self.fabric = fabric
        self.injector = injector
        self.detector = detector
        self.ledger = ledger
        self.victim = victim
        self.lanes: List[_ChaosLane] = []
        self.crash_time: Optional[float] = None
        self._tasks: Dict[int, asyncio.Task] = {}

    def start_traffic(self) -> None:
        loop = asyncio.get_running_loop()
        for lane in self.lanes:
            self._tasks[lane.cid] = loop.create_task(lane.drive())

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    async def crash_victim(self) -> None:
        """Isolate, settle, then kill the victim.

        The isolate-first discipline matters on a reliable hub: traffic
        toward the victim must be *held* by the partition (for replay
        after restart), not blackholed at a missing destination — and
        datagrams the event loop already committed to deliver get their
        ticks before the endpoint disappears.
        """
        self.injector.isolate(self.victim)
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        await asyncio.sleep(0.002)
        self.crash_time = asyncio.get_running_loop().time()
        self.injector._note(f"crash {self.victim}")
        await self.fabric.crash_peer(self.victim)

    async def restart_victim(self) -> None:
        """Bring the victim back and heal its links (replaying anything
        a reliable hub held across the outage)."""
        await self.fabric.restart_peer(self.victim)
        self.injector._note(f"restart {self.victim}")
        self.injector.heal_node(self.victim)

    def break_victim_lanes(self, reason: str) -> None:
        """For a permanent crash: fail lanes sinking at the victim.

        On CM-5 the senders break organically — recovery probes go
        unanswered and raise :class:`ChannelBroken` — so only CR lanes
        (which have no retransmission path to time out) are aborted
        here, with the failure detector's verdict as the reason.
        """
        if self.fabric.mode != "cr":
            return
        for lane in self.lanes:
            if lane.dst == self.victim and lane.broken is None:
                lane.broken = reason
                task = self._tasks.get(lane.cid)
                if task is not None and not task.done():
                    task.cancel()

    async def finish(self, settle_timeout: float = 8.0) -> List[str]:
        """Let traffic run out, then wait for deliveries to settle.
        Returns error strings for anything that failed atypically."""
        errors: List[str] = []
        results = await asyncio.gather(*self._tasks.values(),
                                       return_exceptions=True)
        for lane, outcome in zip(self.lanes, results):
            if isinstance(outcome, asyncio.CancelledError):
                continue  # an aborted (broken-by-contract) lane
            if isinstance(outcome, Exception):
                errors.append(
                    f"lane {lane.cid}->{lane.dst}: "
                    f"{type(outcome).__name__}: {outcome}")
        deadline = asyncio.get_running_loop().time() + settle_timeout
        for lane in self.lanes:
            left = deadline - asyncio.get_running_loop().time()
            await lane.settle(max(0.1, left))
        return errors


ScenarioScript = Callable[[ChaosEngine], Awaitable[None]]


@dataclass(frozen=True)
class Scenario:
    """One named fault schedule."""

    name: str
    summary: str
    script: ScenarioScript
    #: Override the run's recovery policy (e.g. trimmed probes so a
    #: permanent crash breaks within the scenario window).
    recovery: Optional[RecoveryPolicy] = None
    #: Arm every lane with credit-based flow control (a *tight* window,
    #: so the scenario actually exhausts credit, not just carries it).
    flow: Optional[FlowControlConfig] = None
    #: Gate detection latency (the scenario kills a peer outright).
    expects_detection: bool = False
    #: Override the run's SWIM membership config (e.g. a long suspicion
    #: window so a latency spike can be refuted instead of killing).
    membership: Optional[SwimConfig] = None
    #: Gate that the scenario produced >= 1 suspicion refutation and
    #: zero DEAD verdicts (nobody actually dies in it).
    expects_refutation: bool = False


async def _script_partition_heal(eng: ChaosEngine) -> None:
    await eng.sleep(0.15)
    names = eng.fabric.peer_names
    half = max(1, len(names) // 2)
    eng.injector.partition_groups(names[:half], names[half:])
    await eng.sleep(0.35)
    eng.injector.heal_all()


async def _script_crash_restart(eng: ChaosEngine) -> None:
    await eng.sleep(0.15)
    await eng.crash_victim()
    await eng.sleep(0.6)
    await eng.restart_victim()


async def _script_rolling_flap(eng: ChaosEngine) -> None:
    await eng.sleep(0.1)
    for name in eng.fabric.peer_names[:3]:
        eng.injector.isolate(name)
        await eng.sleep(0.12)
        eng.injector.heal_node(name)
        await eng.sleep(0.05)


async def _script_burst_loss(eng: ChaosEngine) -> None:
    await eng.sleep(0.1)
    eng.injector.set_burst(drop=0.25, corrupt=0.05)
    await eng.sleep(0.3)
    eng.injector.set_burst()


async def _script_overload_partition(eng: ChaosEngine) -> None:
    """A partition *through* live, credit-metered traffic.

    The lanes run with a deliberately tight flow-control window, so the
    steady state depends on a continuous trickle of credit grants from
    the receivers.  Partitioning the fabric mid-traffic cuts that
    trickle: senders run their credit dry, block (``FLOW_BLOCK``), and
    probe into the void.  What the scenario proves is the *recovery*:
    after the heal, piggybacked grants on acks / epoch replies — or a
    probe answered with a fresh full-state advertisement — must revive
    every blocked sender, and the audit must come back exactly-once
    clean.  A wedged sender surfaces as `missing` in the audit, never as
    a silent hang.
    """
    await eng.sleep(0.12)
    names = eng.fabric.peer_names
    half = max(1, len(names) // 2)
    eng.injector.partition_groups(names[:half], names[half:])
    # Long enough for credit exhaustion on active lanes *and* for the
    # CM-5 retry schedule to exhaust into epoch renegotiation.
    await eng.sleep(0.45)
    eng.injector.heal_all()


async def _script_crash_permanent(eng: ChaosEngine) -> None:
    await eng.sleep(0.15)
    await eng.crash_victim()
    # Give the detector time to call it, then fail CR lanes by verdict
    # (CM-5 lanes break themselves via exhausted recovery probes).
    await eng.sleep(1.5 * eng.config.membership.detection_bound)
    eng.break_victim_lanes(
        f"peer {eng.victim!r} declared dead by the failure detector")


async def _script_latency_spike(eng: ChaosEngine) -> None:
    """A fabric-wide latency spike of :data:`LATENCY_SPIKE_S`.

    Every probe and ack is delayed far past the probe timeouts, so
    suspicion is guaranteed — but the SWIM suspicion window (this
    scenario's membership override) is long enough for the accused
    peers' incarnation-bumping refutations to land.  The gate demands
    *zero* DEAD verdicts and >= 1 refutation.
    """
    await eng.sleep(0.12)
    eng.injector.spike_latency(LATENCY_SPIKE_S)
    await eng.sleep(0.5)
    eng.injector.spike_latency(0.0)
    # Let the delayed frames drain and the refutations disseminate.
    await eng.sleep(LATENCY_SPIKE_S + 0.5)


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario for scenario in (
        Scenario(
            name="partition-heal",
            summary="split the fabric in half mid-traffic, then heal",
            script=_script_partition_heal,
        ),
        Scenario(
            name="crash-restart",
            summary="crash a peer, restart it under the same address, "
                    "resume from its durable cumulative ack",
            script=_script_crash_restart,
            expects_detection=True,
        ),
        Scenario(
            name="rolling-flap",
            summary="isolate each of three peers in turn, briefly",
            script=_script_rolling_flap,
        ),
        Scenario(
            name="burst-loss",
            summary="a burst of 25% loss + 5% bit damage, then clear air",
            script=_script_burst_loss,
        ),
        Scenario(
            name="overload-partition",
            summary="partition credit-starved lanes mid-overload; blocked "
                    "senders must recover their credit state on heal",
            script=_script_overload_partition,
            flow=FlowControlConfig(window_bytes=1024, window_msgs=16,
                                   probe_interval=0.05),
        ),
        Scenario(
            name="crash-permanent",
            summary="crash a peer forever; lanes into it must fail "
                    "loudly with ChannelBroken, not hang",
            script=_script_crash_permanent,
            recovery=RecoveryPolicy(max_epochs=1, probe_retries=4,
                                    probe_interval=0.05),
            expects_detection=True,
        ),
        Scenario(
            name="latency-spike-no-false-dead",
            summary="a 600 ms latency spike must end with zero DEAD "
                    "verdicts and at least one refuted suspicion",
            script=_script_latency_spike,
            membership=SwimConfig(suspect_timeout=2.5),
            expects_refutation=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# the soak run
# ---------------------------------------------------------------------------


@dataclass
class ChaosConfig:
    """One chaos soak: fabric shape, traffic pacing, fault parameters."""

    mode: str = "cm5"            #: "cm5" | "cr"
    peers: int = 6
    lanes: int = 8
    messages: int = 36           #: per lane
    message_words: int = 12
    packet_words: int = 8
    window: int = 16
    send_interval: float = 0.012  #: pacing, so traffic spans the faults
    seed: int = 0xC4A05
    drop_rate: float = 0.01      #: static profile under the scripted layer
    dup_rate: float = 0.01
    reorder_rate: float = 0.05
    corrupt_rate: float = 0.002
    deadline: float = 30.0
    #: SWIM gossip membership knobs (scenario override wins).
    membership: SwimConfig = field(default_factory=SwimConfig)
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    backoff: BackoffPolicy = field(default_factory=lambda: CHAOS_BACKOFF)
    #: Arm lanes with credit-based flow control (scenario override wins).
    flow: Optional[FlowControlConfig] = None

    def __post_init__(self) -> None:
        if self.peers < 2 or self.lanes < 1 or self.messages < 1:
            raise ValueError("peers >= 2, lanes >= 1, messages >= 1")
        if self.message_words < 3:
            raise ValueError(
                "message_words must be at least 3 (cid, index, checksum)")

    def fault_kwargs(self) -> Dict[str, float]:
        if self.mode == "cr":
            return {}
        return {
            "drop_rate": self.drop_rate, "dup_rate": self.dup_rate,
            "reorder_rate": self.reorder_rate,
            "corrupt_rate": self.corrupt_rate, "seed": self.seed,
        }


@dataclass
class ChaosResult:
    """What one scenario run proved (and what it cost)."""

    scenario: str
    config: ChaosConfig
    completed: bool
    wall_ns: int
    audit: AuditReport
    broken_lanes: List[Tuple[int, str]]
    detection_latency: Optional[float]   #: seconds, crash scenarios only
    detection_expected: bool
    detection_bound: float               #: configured ceiling (seconds)
    feature_ns: Dict[Feature, int]
    wire: Dict[str, int]
    detector_counts: Dict[str, int]
    recoveries: int                      #: epoch renegotiations completed
    refutations: int = 0                 #: suspicions recanted by the accused
    false_dead: List[str] = field(default_factory=list)
    refutation_expected: bool = False
    errors: List[str] = field(default_factory=list)

    @property
    def total_ns(self) -> int:
        return sum(self.feature_ns.values())

    def share(self, feature: Feature) -> float:
        total = self.total_ns
        return self.feature_ns.get(feature, 0) / total if total else 0.0

    @property
    def fault_tolerance_share(self) -> float:
        return self.share(Feature.FAULT_TOLERANCE)

    @property
    def flow_control_share(self) -> float:
        """Credit bookkeeping time (zero on unmetered scenarios)."""
        return self.share(Feature.FLOW_CONTROL)

    @property
    def flow_blocked(self) -> int:
        """Times any sender ran its credit dry and had to wait."""
        return self.wire.get("flow.blocked", 0)

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
            "lanes": self.config.lanes,
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
            "features": {
                feature.value: {
                    "ns": self.feature_ns.get(feature, 0),
                    "share": self.share(feature),
                }
                for feature in Feature
            },
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


async def run_chaos(config: ChaosConfig, scenario: str = "partition-heal",
                    tracer: Optional[Tracer] = None,
                    recorder: Optional["FlightRecorder"] = None) -> ChaosResult:
    """Run one named scenario against paced, audited traffic.

    With a ``recorder`` (a :class:`repro.runtime.telemetry.FlightRecorder`),
    every peer's throughput/queue instruments are sampled for the run's
    duration and each scripted fault action lands as a mark, so the
    exported timeline shows the partition bending the curves.
    """
    try:
        scen = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r} "
            f"(have: {', '.join(sorted(SCENARIOS))})") from None
    fabric = Fabric(
        mode=config.mode, transport="loopback", tracer=tracer,
        backoff=config.backoff, recovery=scen.recovery or config.recovery,
        **config.fault_kwargs(),
    )
    injector = ChaosInjector(fabric.hub, seed=config.seed ^ 0xFA57)
    membership = scen.membership or config.membership
    detector = SwimDetector(fabric, membership)
    ledger = AuditLedger()
    errors: List[str] = []
    start = time.perf_counter_ns()
    try:
        names = [f"p{i:02d}" for i in range(config.peers)]
        for name in names:
            await fabric.add_peer(name)
        victim = names[-1]
        if recorder is not None:
            injector.on_event = recorder.annotate
            for name in names:
                recorder.register_endpoint(fabric.peer(name))
            recorder.annotate(f"scenario {scen.name}/{config.mode} start")
            recorder.start()
        detector.start()
        engine = ChaosEngine(config, fabric, injector, detector, ledger,
                             victim)
        for src, dst in chaos_pairs(names, config.lanes, victim):
            conn = await fabric.connect(
                src, dst, window=config.window,
                packet_words=config.packet_words,
                reorder_window=max(256, 4 * config.window),
                ack_every=4, ack_delay=0.004,
                flow=scen.flow or config.flow,
            )
            engine.lanes.append(_ChaosLane(
                conn, config.messages, config.message_words,
                config.send_interval, ledger,
            ))
        engine.start_traffic()
        try:
            await asyncio.wait_for(scen.script(engine), config.deadline)
        except Exception as exc:
            errors.append(f"scenario script: {type(exc).__name__}: {exc}")
        errors.extend(await engine.finish())
        wall_ns = time.perf_counter_ns() - start
        detection = None
        if engine.crash_time is not None and victim in detector.dead_at:
            detection = detector.dead_at[victim] - engine.crash_time
        feature_ns = fabric.attribution_totals()
        wire = fabric.wire_totals()
        recoveries = sum(
            value
            for counters in fabric.endpoint_counters().values()
            for key, value in counters.items()
            if key.endswith("recoveries_completed")
        )
        broken = [(lane.cid, lane.broken) for lane in engine.lanes
                  if lane.broken is not None]
        crashed = {victim} if engine.crash_time is not None else set()
        false_dead = detector.false_dead(crashed)
        refutations = detector.counters.get("refutations")
    finally:
        if recorder is not None:
            await recorder.stop()
        await detector.stop()
        await fabric.close()
    audit = ledger.verdict(cid for cid, _reason in broken)
    return ChaosResult(
        scenario=scen.name,
        config=config,
        completed=not errors,
        wall_ns=wall_ns,
        audit=audit,
        broken_lanes=broken,
        detection_latency=detection,
        detection_expected=scen.expects_detection,
        detection_bound=membership.detection_bound,
        feature_ns=feature_ns,
        wire=wire,
        detector_counts=detector.counters.to_dict(),
        recoveries=recoveries,
        refutations=refutations,
        false_dead=false_dead,
        refutation_expected=scen.expects_refutation,
        errors=errors,
    )


def measure_chaos(config: ChaosConfig, scenario: str = "partition-heal",
                  tracer: Optional[Tracer] = None,
                  recorder: Optional["FlightRecorder"] = None) -> ChaosResult:
    """Synchronous one-shot scenario run (owns the event loop)."""
    return asyncio.run(run_chaos(config, scenario=scenario, tracer=tracer,
                                 recorder=recorder))


def run_scenario_matrix(
    base: ChaosConfig,
    scenarios: Optional[Iterable[str]] = None,
    modes: Sequence[str] = ("cm5", "cr"),
) -> List[ChaosResult]:
    """Every requested scenario x mode, each in its own event loop."""
    from dataclasses import replace
    results = []
    for name in (scenarios or list(SCENARIOS)):
        for mode in modes:
            results.append(measure_chaos(replace(base, mode=mode),
                                         scenario=name))
    return results
