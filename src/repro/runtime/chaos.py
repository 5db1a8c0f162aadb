"""Chaos engine: scripted faults, failure detection, channel recovery.

The paper measures what fault tolerance *costs* when nothing actually
fails; this module measures the same feature buckets while things fail
on purpose.  Three cooperating parts:

* :class:`ChaosInjector` — a scripted fault layer the fabric's
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

* **scenarios** (:data:`SCENARIOS`) — named, scripted fault schedules
  (``partition-heal``, ``crash-restart``, ``rolling-flap``,
  ``burst-loss``, ``crash-permanent``, ...).  A chaos run is a load run
  plus one of these scripts: :func:`repro.runtime.loadgen.run_load`
  drives paced traffic on audited lanes while the script runs.  Every
  message is stamped into an :class:`~repro.runtime.loadgen.AuditLedger`
  before sending and verified on delivery, so each scenario ends with
  an end-to-end exactly-once, in-order verdict — or a *typed*
  :class:`~repro.runtime.protocols.ChannelBroken` on lanes whose peer
  is permanently gone.  Never a silent hang, never silent loss.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import (
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.runtime.fabric import Fabric
from repro.runtime.flowcontrol import FlowControlConfig
from repro.runtime.membership import SwimConfig, SwimDetector
from repro.runtime.protocols import RecoveryPolicy
from repro.runtime.reliability import BackoffPolicy
from repro.runtime.tracing import EventType
from repro.runtime.transport import flip_bit

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
    """Scripted faults layered on a fabric's loopback hub.

    Installs itself as ``hub.chaos`` and implements the hub's filter
    contract: ``filter(src, dst, data) -> (data, verdict, extra_delay)``.
    Faults are directed — an asymmetric partition blocks one direction
    only — and time-phased by whoever drives the scenario script.  Each
    schedule change is a ``MARK`` event on the fabric's tracer.

    On a reliable hub, suppressed datagrams are *held* per directed link
    and replayed in original FIFO order when the link heals, so CR-mode
    delivery guarantees survive scripted outages.  Bursts (loss and bit
    damage) are no-ops on a reliable hub for the same reason.
    """

    def __init__(self, fabric: Fabric, seed: int = 0xC4A05) -> None:
        self.hub = fabric.hub
        self._tracer = fabric.tracer
        self._rng = random.Random(seed)
        self._blocked: Set[Tuple[str, str]] = set()   # directed links
        self._isolated: Set[str] = set()              # whole nodes
        self._held: Dict[Tuple[str, str], List[bytes]] = {}
        self.drop_burst = 0.0
        self.corrupt_burst = 0.0
        self.extra_delay = 0.0
        self.replayed = 0
        self.hub.chaos = self

    def _note(self, description: str) -> None:
        self._tracer.emit(EventType.MARK, endpoint="chaos", kind=description)

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


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


class ChaosEngine:
    """What a scenario script gets to drive: the fabric, the injector,
    the detector, the victim peer, and the run's traffic lanes."""

    def __init__(self, fabric: Fabric, injector: ChaosInjector,
                 detector: SwimDetector, victim: str,
                 lanes: Sequence) -> None:
        self.fabric = fabric
        self.injector = injector
        self.detector = detector
        self.victim = victim
        self.lanes = lanes
        self.crash_time: Optional[float] = None

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
                if not lane.task.done():
                    lane.task.cancel()


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
    await eng.sleep(1.5 * eng.detector.config.detection_bound)
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
