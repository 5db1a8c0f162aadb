"""SWIM-style gossip membership: scalable failure detection.

Pairwise heartbeating costs O(N²) control frames per period, and a
single latency spike ages healthy peers into DEAD with no way to
recant.  This module detects failures with the SWIM discipline (Das et
al.) instead, sized so the paper's central concern — what fault
tolerance *costs* on the messaging hot path — stays a measured constant
instead of a quadratic:

* **random-k probing** — each protocol period every member pings a
  random ``k``-subset of its view, so per-member probe load is O(k)
  regardless of fabric size;
* **indirect probes** — a silent target is re-probed through ``j``
  proxy members (``PING_REQ`` → relayed ``PING`` → forwarded
  ``PING_ACK``) before anyone is accused, so one lossy or slow link
  cannot manufacture a suspicion on its own;
* **suspicion with refutation** — an unreachable member enters SUSPECT
  for ``suspect_timeout`` seconds; when the accused hears the rumor it
  bumps its *incarnation number* and gossips a REFUTE, which outranks
  the suspicion and restores ALIVE everywhere.  Only an unrefuted
  suspicion ages into DEAD;
* **piggybacked gossip** — membership updates (JOIN / ALIVE / SUSPECT /
  DEAD / LEFT / REFUTE, each tagged with an incarnation) ride on the
  probe and ack frames themselves, bounded per frame and retransmitted
  O(log N) times each, so dissemination costs no extra datagrams;
* **graceful leave** — a peer departing through :meth:`Fabric.remove_peer`
  is marked LEFT immediately at every observer (the fabric's ``leave``
  event is authoritative) and never transits SUSPECT or DEAD.

Incarnation arithmetic (the per-member logical clock only the member
itself may advance) is what makes rumors safe to reorder:

* an update with a *lower* incarnation than the current record is
  stale and ignored;
* a *higher* incarnation always wins, whatever the states — which is
  how a restarted peer (incarnation bumped on restart) rejoins past an
  absorbing DEAD verdict;
* at the *same* incarnation severity decides (ALIVE < SUSPECT < LEFT <
  DEAD), except that a REFUTE — an ALIVE assertion from the accused
  itself — beats a same-incarnation SUSPECT, because second-hand
  rumor never outranks first-hand testimony.

Everything here is charged to ``Feature.FAULT_TOLERANCE`` on the
observer, so the SWIM control plane shows up in the timeshare reports
next to the features the paper measures.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Set, Tuple
import zlib

from repro.arch.attribution import Feature
from repro.runtime.fabric import Fabric
from repro.runtime.frames import (
    FrameError,
    GOSSIP_ALIVE,
    GOSSIP_DEAD,
    GOSSIP_JOIN,
    GOSSIP_LEFT,
    GOSSIP_REFUTE,
    GOSSIP_SUSPECT,
    FrameKind,
    decode_gossip,
    encode_gossip,
    ping_ack_frame,
    ping_frame,
    ping_req_frame,
)
from repro.runtime.tracing import Counters, EventType, Tracer

#: Well-known logical channel for SWIM membership traffic (clear of
#: CH_COLLECTIVE=5, below FIRST_FABRIC_CHANNEL; channel 4 stays unused).
CH_MEMBERSHIP = 6


class MemberState(Enum):
    """One observer's belief about one member."""

    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"
    LEFT = "left"


#: Same-incarnation precedence: a higher-severity update overrides a
#: lower one; equal or lower is ignored (REFUTE excepted, see
#: :meth:`MembershipView.apply`).
_SEVERITY = {
    MemberState.ALIVE: 0,
    MemberState.SUSPECT: 1,
    MemberState.LEFT: 2,
    MemberState.DEAD: 3,
}

#: Gossip code → the state it asserts.
_STATE_BY_CODE = {
    GOSSIP_JOIN: MemberState.ALIVE,
    GOSSIP_ALIVE: MemberState.ALIVE,
    GOSSIP_REFUTE: MemberState.ALIVE,
    GOSSIP_SUSPECT: MemberState.SUSPECT,
    GOSSIP_DEAD: MemberState.DEAD,
    GOSSIP_LEFT: MemberState.LEFT,
}

_CODE_BY_STATE = {
    MemberState.ALIVE: GOSSIP_ALIVE,
    MemberState.SUSPECT: GOSSIP_SUSPECT,
    MemberState.DEAD: GOSSIP_DEAD,
    MemberState.LEFT: GOSSIP_LEFT,
}

#: Trace event for each observed transition.
_EVENT_BY_STATE = {
    MemberState.ALIVE: EventType.PEER_ALIVE,
    MemberState.SUSPECT: EventType.PEER_SUSPECT,
    MemberState.DEAD: EventType.PEER_DEAD,
    MemberState.LEFT: EventType.PEER_LEFT,
}


def member_id(name: str) -> int:
    """Stable 32-bit wire id for a peer name (CRC-32, the same
    convention as the endpoint's ``trace_origin``)."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


@dataclass
class SwimConfig:
    """Protocol knobs for one SWIM detector.

    The derived :attr:`detection_bound` is what the chaos/bench gates
    check a crash against: one period of wait before the victim is
    probed, one period for the direct probe to time out, one for the
    indirect round, the suspicion window, and scheduling slack.
    """

    period: float = 0.025        #: protocol period (probe + evaluate)
    probes: int = 2              #: k — direct probe targets per period
    proxies: int = 2             #: j — indirect relays per failed probe
    suspect_timeout: float = 0.08  #: unrefuted SUSPECT → DEAD
    gossip_piggyback: int = 8    #: max updates piggybacked per frame
    gossip_lambda: float = 3.0   #: retransmit budget = λ·log2(fanout)
    seed: int = 0x5317           #: probe/proxy selection RNG seed

    def __post_init__(self) -> None:
        if self.period <= 0 or self.suspect_timeout <= 0:
            raise ValueError("period and suspect_timeout must be positive")
        if self.probes < 1 or self.proxies < 0:
            raise ValueError("need probes >= 1 and proxies >= 0")
        if self.gossip_piggyback < 1 or self.gossip_lambda <= 0:
            raise ValueError("gossip_piggyback >= 1, gossip_lambda > 0")

    @property
    def detection_bound(self) -> float:
        """Configured ceiling on crash-detection latency (seconds)."""
        return 6 * self.period + 2 * self.suspect_timeout

    @property
    def control_bound_per_period(self) -> float:
        """Ceiling on membership control frames one member sends per
        protocol period — a constant in ``k`` and ``j``, independent of
        fabric size (each member sends k pings, answers ~k pings it is
        probed with, plus an indirect-probe allowance)."""
        return 4.0 * self.probes + 3.0 * self.proxies + 4.0

    def retransmit_budget(self, fanout: int) -> int:
        """O(log N) per-update gossip retransmission budget."""
        return max(1, math.ceil(self.gossip_lambda
                                * math.log2(max(2, fanout))))


@dataclass
class MemberRecord:
    """One row of an observer's membership table."""

    state: MemberState
    incarnation: int
    since: float  #: loop time of the last state change


class MembershipView:
    """One observer's incarnation-tagged membership table.

    :meth:`apply` is the whole SWIM update algebra, kept free of any
    I/O so the incarnation edge cases are unit-testable in isolation.
    """

    def __init__(self) -> None:
        self.members: Dict[str, MemberRecord] = {}

    def record(self, name: str) -> Optional[MemberRecord]:
        return self.members.get(name)

    def state(self, name: str) -> MemberState:
        rec = self.members.get(name)
        return rec.state if rec is not None else MemberState.ALIVE

    def seed(self, name: str, incarnation: int, now: float) -> None:
        """Install a fresh ALIVE row (initial roster, mid-run join)."""
        self.members[name] = MemberRecord(MemberState.ALIVE, incarnation, now)

    def apply(self, name: str, code: int, incarnation: int,
              now: float) -> Optional[MemberState]:
        """Apply one gossip update; returns the new state on a
        transition, ``None`` when the update was stale or a no-op."""
        new_state = _STATE_BY_CODE[code]
        rec = self.members.get(name)
        if rec is None:
            self.members[name] = MemberRecord(new_state, incarnation, now)
            return new_state
        if incarnation < rec.incarnation:
            return None  # stale rumor about an older incarnation
        if incarnation == rec.incarnation:
            if rec.state in (MemberState.DEAD, MemberState.LEFT):
                return None  # absorbing per incarnation
            if code == GOSSIP_REFUTE:
                # First-hand rebuttal: outranks a same-incarnation
                # SUSPECT that plain second-hand ALIVE could not.
                if rec.state is MemberState.ALIVE:
                    return None
            elif _SEVERITY[new_state] <= _SEVERITY[rec.state]:
                return None
        changed = new_state is not rec.state
        rec.incarnation = incarnation
        if changed:
            rec.state = new_state
            rec.since = now
            return new_state
        return None


class GossipBuffer:
    """Bounded piggyback queue with per-update retransmit budgets.

    One entry per subject (a newer update about the same member
    replaces the old rumor and resets its budget).  :meth:`take`
    prefers the least-disseminated entries, SWIM-style, and drops an
    entry once its O(log N) budget is spent."""

    def __init__(self, config: SwimConfig) -> None:
        self._config = config
        self._entries: Dict[str, List[Any]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def post(self, name: str, update: Tuple[int, int, int],
             fanout: int) -> None:
        self._entries[name] = [update,
                               self._config.retransmit_budget(fanout)]

    def take(self, limit: Optional[int] = None) -> Tuple[int, ...]:
        """Encoded gossip words for one outgoing frame."""
        if not self._entries:
            return ()
        if limit is None:
            limit = self._config.gossip_piggyback
        picked = sorted(self._entries.items(),
                        key=lambda kv: -kv[1][1])[:limit]
        updates = []
        for name, entry in picked:
            updates.append(entry[0])
            entry[1] -= 1
            if entry[1] <= 0:
                del self._entries[name]
        return encode_gossip(updates)


@dataclass
class _Probe:
    """One in-flight direct/indirect probe from one observer."""

    observer: str
    target: str
    deadline: float
    indirect: bool = False


class SwimDetector:
    """SWIM failure detection across every peer of a fabric.

    Surface: ``start()`` / ``await stop()``, per-(observer, subject)
    :meth:`state`, :attr:`dead_at` (loop time of the first DEAD verdict
    per subject), a :class:`Counters` registry, and :attr:`events` —
    every observed transition with observer/subject/incarnation — for
    export and CI validation.
    """

    def __init__(self, fabric: Fabric,
                 config: Optional[SwimConfig] = None,
                 channel: int = CH_MEMBERSHIP) -> None:
        self.fabric = fabric
        self.config = config or SwimConfig()
        self.channel = channel
        self.counters = Counters()
        #: Subject -> loop time of the *first* DEAD verdict by any
        #: observer (what the detection-latency gate measures).
        self.dead_at: Dict[str, float] = {}
        #: Every observed transition/refutation, exportable as JSONL.
        self.events: List[Dict[str, Any]] = []
        #: Each member's *own* incarnation (only it may advance this).
        self.incarnations: Dict[str, int] = {}
        self.views: Dict[str, MembershipView] = {}
        self.ticks = 0
        self._buffers: Dict[str, GossipBuffer] = {}
        self._ids: Dict[int, str] = {}
        self._monitored: Set[str] = set()
        self._left: Set[str] = set()
        self._rng = random.Random(self.config.seed)
        self._seq = itertools.count(1)
        self._probes: Dict[int, _Probe] = {}
        #: relay probe id -> (origin peer, origin probe id, target).
        self._relays: Dict[int, Tuple[str, int, str]] = {}
        self._task: Optional[asyncio.Task] = None
        self._prev_hook: Optional[Callable[[str, str], None]] = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Begin probing and gossiping among every joined peer."""
        if self._task is not None:
            raise RuntimeError("membership detector already started")
        loop = asyncio.get_running_loop()
        now = loop.time()
        names = list(self.fabric.peer_names)
        for name in names:
            self._register(name)
        for name in names:
            view = MembershipView()
            for other in names:
                if other != name:
                    view.seed(other, self.incarnations[other], now)
            self.views[name] = view
            self._buffers[name] = GossipBuffer(self.config)
        for endpoint in self.fabric._peers.values():
            self._bind(endpoint)
        self._prev_hook = self.fabric.on_peer_event
        self.fabric.on_peer_event = self._peer_event
        self._task = loop.create_task(self._run())

    async def stop(self) -> None:
        self.fabric.on_peer_event = self._prev_hook
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        for endpoint in self.fabric._peers.values():
            try:
                endpoint.unbind(self.channel)
            except KeyError:  # pragma: no cover - defensive
                pass

    def _register(self, name: str) -> None:
        self._ids[member_id(name)] = name
        self.incarnations.setdefault(name, 0)
        self._monitored.add(name)
        self._left.discard(name)

    def _bind(self, endpoint) -> None:
        observer = endpoint.name

        def on_frame(frame, src, _observer=observer):
            self._on_frame(_observer, frame, src)

        endpoint.bind(self.channel, on_frame)

    # -- fabric peer events ---------------------------------------------------

    def _peer_event(self, event: str, name: str) -> None:
        if event == "leave":
            self._on_leave(name)
        elif event == "join":
            self._on_join(name)
        elif event == "restart":
            self._on_restart(name)
        # A crash needs nothing: the victim goes silent and the probe
        # machinery ages it SUSPECT -> DEAD.
        if self._prev_hook is not None:
            self._prev_hook(event, name)

    def _on_leave(self, name: str) -> None:
        """Graceful departure: immediate LEFT everywhere, never
        SUSPECT/DEAD.  The fabric's leave event is authoritative, so the
        verdict does not wait for gossip to percolate."""
        now = asyncio.get_running_loop().time()
        self._monitored.discard(name)
        self._left.add(name)
        incarnation = self.incarnations.get(name, 0)
        update = (member_id(name), GOSSIP_LEFT, incarnation)
        self.views.pop(name, None)
        self._buffers.pop(name, None)
        for probe_id, probe in list(self._probes.items()):
            if name in (probe.observer, probe.target):
                del self._probes[probe_id]
        for relay_id, (origin, _pid, target) in list(self._relays.items()):
            if name in (origin, target):
                del self._relays[relay_id]
        endpoint = self.fabric._peers.get(name)
        if endpoint is not None:
            try:
                endpoint.unbind(self.channel)
            except KeyError:  # pragma: no cover - defensive
                pass
        for observer, view in self.views.items():
            transition = view.apply(name, GOSSIP_LEFT, incarnation, now)
            if transition is not None:
                self._note_transition(observer, name, transition,
                                      incarnation, now)
            self._buffers[observer].post(name, update, len(view.members))

    def _on_join(self, name: str) -> None:
        """A fresh peer joined mid-run: seed its view, tell the fabric."""
        now = asyncio.get_running_loop().time()
        self._register(name)
        endpoint = self.fabric._peers.get(name)
        if endpoint is not None:
            self._bind(endpoint)
        view = MembershipView()
        for other, other_view in self.views.items():
            view.seed(other, self.incarnations.get(other, 0), now)
        self.views[name] = view
        self._buffers[name] = GossipBuffer(self.config)
        incarnation = self.incarnations[name]
        update = (member_id(name), GOSSIP_JOIN, incarnation)
        for observer, other_view in self.views.items():
            if observer == name:
                continue
            transition = other_view.apply(name, GOSSIP_JOIN, incarnation, now)
            if transition is not None:
                self._note_transition(observer, name, transition,
                                      incarnation, now)
            else:
                other_view.seed(name, incarnation, now)
            self._buffers[observer].post(name, update,
                                         len(other_view.members))

    def _on_restart(self, name: str) -> None:
        """A crashed peer came back: bump its incarnation so its JOIN
        outranks every absorbing DEAD verdict, and let gossip (plus
        first-hand probes) disseminate the rejoin."""
        now = asyncio.get_running_loop().time()
        self.incarnations[name] = self.incarnations.get(name, 0) + 1
        self._monitored.add(name)
        self._left.discard(name)
        incarnation = self.incarnations[name]
        endpoint = self.fabric._peers.get(name)
        if endpoint is not None:
            self._bind(endpoint)
        view = MembershipView()
        for other in self._monitored:
            if other != name:
                view.seed(other, self.incarnations.get(other, 0), now)
        self.views[name] = view
        buffer = self._buffers.setdefault(name, GossipBuffer(self.config))
        buffer.post(name, (member_id(name), GOSSIP_JOIN, incarnation),
                    max(2, len(view.members)))

    # -- the protocol period --------------------------------------------------

    async def _run(self) -> None:
        period = self.config.period
        while True:
            self.ticks += 1
            now = asyncio.get_running_loop().time()
            self._expire_probes(now)
            self._evaluate_suspects(now)
            for endpoint in list(self.fabric._peers.values()):
                if endpoint.name in self._monitored:
                    self._probe_round(endpoint, now)
            await asyncio.sleep(period)

    def _candidates(self, observer: str,
                    exclude: Tuple[str, ...] = ()) -> List[str]:
        view = self.views.get(observer)
        if view is None:
            return []
        # Deliberately *not* filtered by fabric._peers: an observer only
        # knows what its view says, so it keeps probing a crashed peer
        # (the datagrams expire at the hub) until suspicion ages it out.
        return [name for name, rec in view.members.items()
                if rec.state in (MemberState.ALIVE, MemberState.SUSPECT)
                and name not in exclude]

    def _probe_round(self, endpoint, now: float) -> None:
        observer = endpoint.name
        with endpoint.attribution.span(Feature.FAULT_TOLERANCE):
            candidates = self._candidates(observer)
            if not candidates:
                return
            k = min(self.config.probes, len(candidates))
            targets = self._rng.sample(candidates, k)
            buffer = self._buffers[observer]
            incarnation = self.incarnations[observer]
            for target in targets:
                probe_id = next(self._seq)
                self._probes[probe_id] = _Probe(
                    observer, target, deadline=now + self.config.period)
                endpoint.post_frame(
                    target,
                    ping_frame(self.channel, probe_id, incarnation,
                               buffer.take()),
                    Feature.FAULT_TOLERANCE,
                )
                endpoint.counters.inc("membership.pings")

    def _expire_probes(self, now: float) -> None:
        for probe_id, probe in list(self._probes.items()):
            if now < probe.deadline:
                continue
            del self._probes[probe_id]
            endpoint = self.fabric._peers.get(probe.observer)
            if endpoint is None or probe.observer not in self._monitored:
                continue
            if probe.target in self._left:
                continue
            if not probe.indirect and self.config.proxies > 0:
                self._indirect_probe(endpoint, probe, now)
            else:
                self._suspect(probe.observer, probe.target, now)
        # Relay bookkeeping that never completed just evaporates; the
        # origin's own deadline drives the suspicion.
        if len(self._relays) > 4096:  # pragma: no cover - hygiene bound
            self._relays.clear()

    def _indirect_probe(self, endpoint, probe: _Probe, now: float) -> None:
        observer = probe.observer
        with endpoint.attribution.span(Feature.FAULT_TOLERANCE):
            proxies = self._candidates(observer, exclude=(probe.target,))
            if not proxies:
                self._suspect(observer, probe.target, now)
                return
            j = min(self.config.proxies, len(proxies))
            probe_id = next(self._seq)
            self._probes[probe_id] = _Probe(
                observer, probe.target, deadline=now + self.config.period,
                indirect=True)
            buffer = self._buffers[observer]
            target_id = member_id(probe.target)
            for proxy in self._rng.sample(proxies, j):
                endpoint.post_frame(
                    proxy,
                    ping_req_frame(self.channel, probe_id, target_id,
                                   buffer.take()),
                    Feature.FAULT_TOLERANCE,
                )
                endpoint.counters.inc("membership.ping_reqs")

    def _suspect(self, observer: str, subject: str, now: float) -> None:
        view = self.views.get(observer)
        if view is None or subject in self._left:
            return
        rec = view.record(subject)
        incarnation = rec.incarnation if rec is not None else 0
        transition = view.apply(subject, GOSSIP_SUSPECT, incarnation, now)
        if transition is None:
            return
        self._note_transition(observer, subject, transition, incarnation, now)
        self._buffers[observer].post(
            subject, (member_id(subject), GOSSIP_SUSPECT, incarnation),
            len(view.members))

    def _evaluate_suspects(self, now: float) -> None:
        timeout = self.config.suspect_timeout
        for observer, view in self.views.items():
            if observer not in self.fabric._peers:
                continue
            for subject, rec in view.members.items():
                if rec.state is not MemberState.SUSPECT:
                    continue
                if now - rec.since < timeout:
                    continue
                transition = view.apply(subject, GOSSIP_DEAD,
                                        rec.incarnation, now)
                if transition is None:
                    continue
                self._note_transition(observer, subject, transition,
                                      rec.incarnation, now)
                self._buffers[observer].post(
                    subject,
                    (member_id(subject), GOSSIP_DEAD, rec.incarnation),
                    len(view.members))

    # -- frame handling -------------------------------------------------------

    def _on_frame(self, observer: str, frame, src: str) -> None:
        endpoint = self.fabric._peers.get(observer)
        if endpoint is None or observer not in self._monitored:
            return
        with endpoint.attribution.span(Feature.FAULT_TOLERANCE):
            now = asyncio.get_running_loop().time()
            if frame.kind is FrameKind.PING:
                self._apply_gossip(observer, frame.payload, now)
                self._first_hand(observer, src, frame.aux, now)
                buffer = self._buffers.get(observer)
                # "You are dead to me": a ping from a member this
                # observer still believes DEAD (first-hand testimony
                # cannot clear an absorbing same-incarnation verdict)
                # gets the verdict gossiped straight back on the ack,
                # so the accused learns, bumps its incarnation, and
                # refutes its way back in.
                view = self.views.get(observer)
                if buffer is not None and view is not None:
                    rec = view.record(src)
                    if rec is not None and rec.state is MemberState.DEAD:
                        buffer.post(src, (member_id(src), GOSSIP_DEAD,
                                          rec.incarnation),
                                    len(view.members))
                endpoint.post_frame(
                    src,
                    ping_ack_frame(self.channel, frame.seq,
                                   member_id(observer),
                                   self.incarnations[observer],
                                   buffer.take() if buffer else ()),
                    Feature.FAULT_TOLERANCE,
                )
                endpoint.counters.inc("membership.acks")
            elif frame.kind is FrameKind.PING_REQ:
                if not frame.payload:
                    return
                self._apply_gossip(observer, frame.payload[1:], now)
                target = self._ids.get(frame.payload[0])
                if (target is None or target not in self.fabric._peers
                        or target == observer):
                    return
                relay_id = next(self._seq)
                self._relays[relay_id] = (src, frame.seq, target)
                buffer = self._buffers.get(observer)
                endpoint.post_frame(
                    target,
                    ping_frame(self.channel, relay_id,
                               self.incarnations[observer],
                               buffer.take() if buffer else ()),
                    Feature.FAULT_TOLERANCE,
                )
                endpoint.counters.inc("membership.relays")
            elif frame.kind is FrameKind.PING_ACK:
                if not frame.payload:
                    return
                subject = self._ids.get(frame.payload[0])
                self._apply_gossip(observer, frame.payload[1:], now)
                relay = self._relays.pop(frame.seq, None)
                if relay is not None:
                    origin, origin_probe, target = relay
                    if subject is not None:
                        self._first_hand(observer, subject, frame.aux, now)
                    if origin in self.fabric._peers:
                        buffer = self._buffers.get(observer)
                        endpoint.post_frame(
                            origin,
                            ping_ack_frame(self.channel, origin_probe,
                                           frame.payload[0], frame.aux,
                                           buffer.take() if buffer else ()),
                            Feature.FAULT_TOLERANCE,
                        )
                        endpoint.counters.inc("membership.ack_forwards")
                    return
                self._probes.pop(frame.seq, None)
                if subject is not None:
                    self._first_hand(observer, subject, frame.aux, now)

    def _first_hand(self, observer: str, subject: str, incarnation: int,
                    now: float) -> None:
        """Direct testimony: we heard from ``subject`` itself (or a
        proxy vouching for a completed round trip).  Counts as a
        refutation of any same-incarnation suspicion."""
        if subject == observer or subject in self._left:
            return
        view = self.views.get(observer)
        if view is None:
            return
        transition = view.apply(subject, GOSSIP_REFUTE, incarnation, now)
        if transition is not None:
            self._note_transition(observer, subject, transition,
                                  incarnation, now)
            self._buffers[observer].post(
                subject, (member_id(subject), GOSSIP_ALIVE, incarnation),
                len(view.members))

    def _apply_gossip(self, observer: str, words, now: float) -> None:
        if not words:
            return
        try:
            updates = decode_gossip(words)
        except FrameError:
            endpoint = self.fabric._peers.get(observer)
            if endpoint is not None:
                endpoint.counters.inc("membership.gossip_decode_errors")
            return
        view = self.views.get(observer)
        if view is None:
            return
        buffer = self._buffers[observer]
        endpoint = self.fabric._peers.get(observer)
        if endpoint is not None:
            endpoint.counters.inc("membership.gossip_updates_rx",
                                  len(updates))
        for peer_id, code, incarnation in updates:
            name = self._ids.get(peer_id)
            if name is None:
                continue
            if name == observer:
                self._maybe_refute(observer, code, incarnation, now)
                continue
            transition = view.apply(name, code, incarnation, now)
            if transition is not None:
                self._note_transition(observer, name, transition,
                                      incarnation, now)
                # Infection-style spread: a rumor that *changed* our
                # view is worth retelling.
                buffer.post(name, (peer_id, code, incarnation),
                            len(view.members))

    def _maybe_refute(self, name: str, code: int, incarnation: int,
                      now: float) -> None:
        """The accused hears the rumor about itself: bump incarnation
        and gossip a REFUTE that outranks the accusation."""
        if code not in (GOSSIP_SUSPECT, GOSSIP_DEAD):
            return
        own = self.incarnations.get(name, 0)
        if incarnation < own:
            return  # rumor about a previous life; already superseded
        self.incarnations[name] = incarnation + 1
        self.counters.inc("refutations")
        endpoint = self.fabric._peers.get(name)
        if endpoint is not None:
            endpoint.counters.inc("membership.refutations")
            if endpoint.tracer.enabled:
                endpoint.tracer.emit(
                    EventType.PEER_REFUTE, endpoint=name,
                    channel=self.channel, seq=incarnation + 1, kind=name,
                    feature=Feature.FAULT_TOLERANCE)
        self.events.append({
            "ts_ns": time.perf_counter_ns(),
            "observer": name,
            "subject": name,
            "event": EventType.PEER_REFUTE.value,
            "incarnation": incarnation + 1,
        })
        buffer = self._buffers.get(name)
        if buffer is not None:
            view = self.views.get(name)
            fanout = len(view.members) if view is not None else 2
            buffer.post(name,
                        (member_id(name), GOSSIP_REFUTE, incarnation + 1),
                        max(2, fanout))

    # -- transitions ----------------------------------------------------------

    def _note_transition(self, observer: str, subject: str,
                         state: MemberState, incarnation: int,
                         now: float) -> None:
        self.counters.inc(f"{state.value}_transitions")
        endpoint = self.fabric._peers.get(observer)
        if endpoint is not None:
            endpoint.counters.inc(f"membership.{state.value}_transitions")
        if state is MemberState.DEAD and subject not in self.dead_at:
            self.dead_at[subject] = now
        if endpoint is not None and endpoint.tracer.enabled:
            endpoint.tracer.emit(
                _EVENT_BY_STATE[state], endpoint=observer,
                channel=self.channel, seq=incarnation, kind=subject,
                feature=Feature.FAULT_TOLERANCE)
        self.events.append({
            "ts_ns": time.perf_counter_ns(),
            "observer": observer,
            "subject": subject,
            "event": _EVENT_BY_STATE[state].value,
            "incarnation": incarnation,
        })

    # -- queries --------------------------------------------------------------

    def state(self, observer: str, subject: str) -> MemberState:
        view = self.views.get(observer)
        if view is None:
            return MemberState.ALIVE
        return view.state(subject)

    def incarnation_of(self, observer: str, subject: str) -> int:
        view = self.views.get(observer)
        if view is None:
            return 0
        rec = view.record(subject)
        return rec.incarnation if rec is not None else 0

    def dead_peers(self) -> List[str]:
        """Subjects at least one live observer believes DEAD."""
        dead = set()
        for observer, view in self.views.items():
            if observer not in self.fabric._peers:
                continue
            for name, rec in view.members.items():
                if rec.state is MemberState.DEAD:
                    dead.add(name)
        return sorted(dead)

    def left_peers(self) -> List[str]:
        return sorted(self._left)

    def false_dead(self, crashed: Set[str]) -> List[str]:
        """DEAD verdicts against members that never actually crashed."""
        return sorted(set(self.dead_at) - set(crashed))

    def control_frames_sent(self) -> int:
        """PING/PING_REQ/PING_ACK datagrams sent, summed over peers."""
        return sum(endpoint.membership_frames_sent
                   for endpoint in self.fabric._peers.values())


# ---------------------------------------------------------------------------
# measurement harnesses (bench rows + CLI)
# ---------------------------------------------------------------------------


async def run_membership_measure(peers: int, mode: str = "cm5",
                                 config: Optional[SwimConfig] = None,
                                 tracer: Optional[Tracer] = None,
                                 ) -> Dict[str, Any]:
    """One detection-latency measurement at a given fabric size.

    Settles the detector, measures steady-state control-frame load per
    peer per protocol period over a fixed window, crashes the last
    peer, and times the first DEAD verdict.  The returned record is the
    ``member/{mode}/p{N}`` bench row shape.
    """
    cfg = config or SwimConfig()
    fabric = Fabric(mode=mode, transport="loopback", tracer=tracer)
    detector = SwimDetector(fabric, cfg)
    try:
        names = [f"p{i:02d}" for i in range(peers)]
        for name in names:
            await fabric.add_peer(name)
        victim = names[-1]
        detector.start()
        await asyncio.sleep(4 * cfg.period)
        frames0 = detector.control_frames_sent()
        ticks0 = detector.ticks
        window = 10
        await asyncio.sleep(window * cfg.period)
        frames1 = detector.control_frames_sent()
        ticks1 = detector.ticks
        periods = max(1, ticks1 - ticks0)
        per_peer_per_period = (frames1 - frames0) / peers / periods
        loop = asyncio.get_running_loop()
        await fabric.crash_peer(victim)
        crash_time = loop.time()
        deadline = crash_time + 3 * cfg.detection_bound
        while victim not in detector.dead_at and loop.time() < deadline:
            await asyncio.sleep(cfg.period / 2)
        detection = (detector.dead_at[victim] - crash_time
                     if victim in detector.dead_at else None)
        false_dead = detector.false_dead({victim})
        record = {
            "peers": peers,
            "mode": mode,
            "period_s": cfg.period,
            "probes_k": cfg.probes,
            "proxies_j": cfg.proxies,
            "suspect_timeout_s": cfg.suspect_timeout,
            "detection_latency_s": detection,
            "detection_bound_s": cfg.detection_bound,
            "detection_within_bound": (
                detection is not None and detection <= cfg.detection_bound),
            "control_frames_per_peer_per_period": per_peer_per_period,
            "control_bound_per_period": cfg.control_bound_per_period,
            "control_within_bound": (
                per_peer_per_period <= cfg.control_bound_per_period),
            "false_dead": false_dead,
            "refutations": detector.counters.get("refutations"),
            "detector": detector.counters.to_dict(),
        }
    finally:
        await detector.stop()
        await fabric.close()
    return record


def measure_membership(peers: int, mode: str = "cm5",
                       config: Optional[SwimConfig] = None,
                       tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """Synchronous one-shot membership measurement (owns the loop)."""
    return asyncio.run(run_membership_measure(peers, mode=mode,
                                              config=config, tracer=tracer))


async def run_membership_soak(peers: int = 12, mode: str = "cm5",
                              config: Optional[SwimConfig] = None,
                              tracer: Optional[Tracer] = None,
                              ) -> Dict[str, Any]:
    """The full membership lifecycle on one fabric, phase by phase:

    1. **steady state** — everyone ALIVE, control load measured;
    2. **graceful leave** — one peer departs via ``remove_peer`` and
       must be LEFT at every observer with zero SUSPECT/DEAD verdicts;
    3. **latency spike** — every datagram delayed long enough to force
       suspicion but not death; the spike must end with at least one
       refutation and zero DEAD verdicts;
    4. **crash** — a victim is killed and must be detected within the
       configured bound;
    5. **restart** — the victim rejoins under a higher incarnation and
       must be ALIVE again at every observer.

    Returns a phase-keyed record (plus the detector's raw transition
    events) — the substance behind ``runtime member`` and its CI smoke.
    """
    from repro.runtime.chaos import ChaosInjector  # avoid import cycle
    cfg = config or SwimConfig(suspect_timeout=0.5)
    fabric = Fabric(mode=mode, transport="loopback", tracer=tracer)
    injector = ChaosInjector(fabric.hub)
    detector = SwimDetector(fabric, cfg)
    phases: Dict[str, Dict[str, Any]] = {}
    problems: List[str] = []
    try:
        names = [f"p{i:02d}" for i in range(peers)]
        for name in names:
            await fabric.add_peer(name)
        leaver, victim = names[0], names[-1]
        observers = [n for n in names if n not in (leaver, victim)]
        detector.start()
        loop = asyncio.get_running_loop()

        # Phase 1: steady state.
        await asyncio.sleep(4 * cfg.period)
        frames0, ticks0 = detector.control_frames_sent(), detector.ticks
        await asyncio.sleep(10 * cfg.period)
        frames1, ticks1 = detector.control_frames_sent(), detector.ticks
        per_peer = ((frames1 - frames0) / peers
                    / max(1, ticks1 - ticks0))
        phases["steady"] = {
            "control_frames_per_peer_per_period": per_peer,
            "control_bound_per_period": cfg.control_bound_per_period,
            "ok": per_peer <= cfg.control_bound_per_period,
        }

        # Phase 2: graceful leave.
        suspects_before = detector.counters.get("suspect_transitions")
        await fabric.remove_peer(leaver)
        await asyncio.sleep(2 * cfg.period)
        left_everywhere = all(
            detector.state(obs, leaver) is MemberState.LEFT
            for obs in observers + [victim])
        leaver_accused = any(
            e["subject"] == leaver
            and e["event"] in ("PEER_SUSPECT", "PEER_DEAD")
            for e in detector.events)
        phases["leave"] = {
            "left_everywhere": left_everywhere,
            "false_accusations": leaver_accused,
            "ok": left_everywhere and not leaver_accused,
        }

        # Phase 3: latency spike — long enough that direct and indirect
        # probes all time out (suspicion), short enough that the
        # refutation lands inside the suspicion window (no death).
        spike = 4 * cfg.period
        refutes0 = detector.counters.get("refutations")
        injector.spike_latency(spike)
        await asyncio.sleep(8 * cfg.period)
        injector.spike_latency(0.0)
        await asyncio.sleep(spike + 6 * cfg.period)
        refutations = detector.counters.get("refutations") - refutes0
        spike_false_dead = detector.false_dead(set())
        phases["latency-spike"] = {
            "suspicions": (detector.counters.get("suspect_transitions")
                           - suspects_before),
            "refutations": refutations,
            "false_dead": spike_false_dead,
            "ok": not spike_false_dead,
        }

        # Phase 4: crash.
        await fabric.crash_peer(victim)
        crash_time = loop.time()
        deadline = crash_time + 3 * cfg.detection_bound
        while victim not in detector.dead_at and loop.time() < deadline:
            await asyncio.sleep(cfg.period / 2)
        detection = (detector.dead_at[victim] - crash_time
                     if victim in detector.dead_at else None)
        phases["crash"] = {
            "detection_latency_s": detection,
            "detection_bound_s": cfg.detection_bound,
            "ok": (detection is not None
                   and detection <= cfg.detection_bound),
        }

        # Phase 5: restart — the bumped incarnation must rejoin past
        # every absorbing DEAD verdict.
        await fabric.restart_peer(victim)
        deadline = loop.time() + 3 * cfg.detection_bound
        rejoined = False
        while loop.time() < deadline:
            rejoined = all(
                detector.state(obs, victim) is MemberState.ALIVE
                for obs in observers)
            if rejoined:
                break
            await asyncio.sleep(cfg.period)
        phases["restart"] = {
            "rejoined_everywhere": rejoined,
            "victim_incarnation": detector.incarnations.get(victim, 0),
            "ok": rejoined and detector.incarnations.get(victim, 0) >= 1,
        }

        for phase, data in phases.items():
            if not data["ok"]:
                problems.append(f"phase {phase} failed: {data}")
    finally:
        await detector.stop()
        await fabric.close()
    return {
        "peers": peers,
        "mode": mode,
        "period_s": cfg.period,
        "probes_k": cfg.probes,
        "proxies_j": cfg.proxies,
        "suspect_timeout_s": cfg.suspect_timeout,
        "phases": phases,
        "ok": not problems,
        "problems": problems,
        "events": list(detector.events),
        "detector": detector.counters.to_dict(),
    }


def measure_membership_soak(peers: int = 12, mode: str = "cm5",
                            config: Optional[SwimConfig] = None,
                            tracer: Optional[Tracer] = None,
                            ) -> Dict[str, Any]:
    """Synchronous lifecycle soak (owns the event loop)."""
    return asyncio.run(run_membership_soak(peers, mode=mode, config=config,
                                           tracer=tracer))
