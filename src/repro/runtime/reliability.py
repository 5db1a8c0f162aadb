"""Timeout-driven retransmission for the live runtime.

The runtime analogue of :class:`repro.protocols.retransmit.RetransmitBuffer`:
where the simulator arms virtual-time timers on the event kernel, the
runtime arms timers on a :class:`~repro.runtime.timers.TimerWheel`
(one per fabric, shared through the endpoint).  Each
:class:`Retransmitter` holds at most one timer on it, armed for the
earliest deadline among its tracked keys; when it runs, the callback
resends exactly the entries that expired and re-arms for the next
deadline.  There is no task and no event: tracking a key costs a dict
insert and touches the timer only when nothing is armed yet or its
deadline comes first (a run of keys tracked in one call shares one
clock reading and that one decision), and acknowledging the last key
cancels the timer without a loop call — which matters exactly on the
windowed hot path the paper's fault-tolerance bucket measures.
Acknowledgements are released in batches: a cumulative ack
(:meth:`Retransmitter.ack_below`) or a selective-ack list
(:meth:`Retransmitter.ack_keys`) untracks all its keys in one pass,
with one clock reading and one estimator call however many keys it
covers, so the per-packet cost of an ack is a few dict operations, not
a call chain per key.

Retransmission timers are RTT-adaptive (RFC 6298): every
unretransmitted packet's ack contributes an SRTT/RTTVAR sample (Karn's
algorithm excludes retransmitted packets, whose acks are ambiguous), in
the order its batch lists the keys — tracking order for a cumulative
ack, which is sequence order on a channel — and
:meth:`RttEstimator.fold` leaves exactly the state that many
:meth:`RttEstimator.sample` calls would; the
retransmission timeout is ``SRTT + 4*RTTVAR`` clamped to the policy's
floor/ceiling.  Until the first sample arrives the policy's ``initial``
serves as the pre-sample guess.

When a key runs out of retries it is surfaced through ``on_give_up``; a
retransmitter wired without that callback records the error in
:attr:`Retransmitter.failures` instead of raising inside a timer
callback (which asyncio would only report to its exception handler).
The final retry gets a full ack window: exhaustion is declared one
backoff interval *after* the last resend, not immediately upon it.

All work done here — the resends and the bookkeeping — is charged to the
fault-tolerance bucket of the owning endpoint's :class:`TimeAttribution`,
matching the paper's accounting: retransmission costs appear only when a
retransmission actually happens.  A resend only queues the frame's
stored wire bytes on the endpoint's flush; the seal, CRC and wire push
of the datagram it rides in are shared work, charged to BASE there.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple, Union)

from repro.arch.attribution import Feature
from repro.runtime.spans import TimeAttribution
from repro.runtime.timers import TimerWheel, WheelTimer
from repro.runtime.tracing import Counters, EventType, NULL_TRACER, Tracer


class RetransmitExhausted(RuntimeError):
    """A tracked datagram ran out of retransmission attempts."""


def _key_fields(key: Hashable) -> Tuple[int, int, str]:
    """Map a tracked key onto trace-event (seq, aux, kind) fields.

    Protocols key entries either by a bare sequence number or by a
    ``(kind, xfer[, offset])`` tuple; both shapes flatten losslessly.
    """
    if isinstance(key, int):
        return key, -1, ""
    if isinstance(key, tuple) and len(key) >= 2 and isinstance(key[1], int):
        aux = key[2] if len(key) > 2 and isinstance(key[2], int) else -1
        return key[1], aux, str(key[0])
    return 0, -1, repr(key)


@dataclass
class RttEstimator:
    """RFC 6298 smoothed round-trip estimation (SRTT / RTTVAR / RTO).

    ``fallback`` is the retransmission timeout used before the first
    sample (the role the old fixed 30 ms guess played); once samples
    arrive the RTO tracks the measured path, clamped to
    ``[min_rto, max_rto]``.  ``min_rto`` must comfortably exceed the
    receiver's delayed-ack timer or every coalesced ack looks like a
    loss.
    """

    fallback: float = 0.03
    min_rto: float = 0.02
    max_rto: float = 2.0
    granularity: float = 0.001  # clock granularity G in the RFC's K*RTTVAR max

    srtt: Optional[float] = None
    rttvar: float = 0.0
    samples: int = 0
    #: Current retransmission timeout.  Kept current by :meth:`sample`,
    #: the only thing that moves it, so reading it costs no call.
    rto: float = field(init=False)

    ALPHA = 1.0 / 8.0
    BETA = 1.0 / 4.0

    def __post_init__(self) -> None:
        self.rto = self.fallback

    def sample(self, rtt: float) -> None:
        """Fold one round-trip measurement into SRTT/RTTVAR."""
        self.fold((rtt,))

    def fold(self, rtts: Sequence[float]) -> None:
        """Fold round-trip measurements into SRTT/RTTVAR in order, as
        that many :meth:`sample` calls would, and recompute the RTO
        once: a cumulative ack's whole batch costs one call."""
        alpha, beta = self.ALPHA, self.BETA
        srtt, rttvar, taken = self.srtt, self.rttvar, 0
        for rtt in rtts:
            if rtt < 0:
                continue
            if srtt is None:
                srtt = rtt
                rttvar = rtt / 2.0
            else:
                # abs(srtt - rtt), without the call.
                error = srtt - rtt if srtt > rtt else rtt - srtt
                rttvar = (1 - beta) * rttvar + beta * error
                srtt = (1 - alpha) * srtt + alpha * rtt
            taken += 1
        if not taken:
            return
        self.srtt, self.rttvar = srtt, rttvar
        self.samples += taken
        # RTO = SRTT + max(G, 4*RTTVAR), clamped to [min_rto, max_rto].
        spread = 4.0 * rttvar
        rto = srtt + (spread if spread > self.granularity
                      else self.granularity)
        if rto < self.min_rto:
            rto = self.min_rto
        if rto > self.max_rto:
            rto = self.max_rto
        self.rto = rto


@dataclass
class BackoffPolicy:
    """Exponential backoff schedule for retransmission timers.

    ``initial`` doubles as the pre-sample RTO guess handed to the
    :class:`RttEstimator`; once the estimator has samples, the adaptive
    RTO replaces it as the base of the exponential schedule.
    """

    initial: float = 0.03
    factor: float = 2.0
    ceiling: float = 0.5
    max_retries: int = 10

    def __post_init__(self) -> None:
        if self.initial <= 0 or self.factor < 1.0 or self.max_retries < 1:
            raise ValueError(f"nonsensical backoff policy: {self}")

    def interval(self, attempt: int, base: Optional[float] = None) -> float:
        """Sleep before retry number ``attempt`` (0-based).

        ``base`` is the adaptive RTO when an estimator has samples;
        ``None`` falls back to the static ``initial`` guess.
        """
        if base is None:
            base = self.initial
        return min(base * (self.factor ** attempt), self.ceiling)

    def estimator(self) -> RttEstimator:
        """A fresh estimator whose pre-sample guess and floor match."""
        return RttEstimator(fallback=self.initial,
                            min_rto=min(0.02, self.initial))


@dataclass
class _Tracked:
    """One in-flight datagram on the timer wheel."""

    data: bytes
    deadline: float           # loop.time() at which the next action fires
    first_sent: float         # loop.time() of the original transmission
    attempt: int = 0          # resends performed so far
    retransmitted: bool = False
    sample_rtt: bool = True


class Retransmitter:
    """Per-key retransmission timers over a synchronous resend function.

    Every tracked key shares one timer on ``timers`` (the endpoint's
    wheel; a wheel of its own when omitted), armed for the earliest
    deadline.  A new key arms it only when nothing is armed or its
    deadline comes first; acknowledging the last key cancels it.
    ``resend(key, data)`` runs inside the timer callback, so it must not
    block; a resend that raises drops only its own key.
    """

    def __init__(
        self,
        resend: Callable[[Hashable, bytes], None],
        policy: Optional[BackoffPolicy] = None,
        attribution: Optional[TimeAttribution] = None,
        on_give_up: Optional[Callable[[Hashable, RetransmitExhausted], None]] = None,
        rtt: Optional[RttEstimator] = None,
        tracer: Optional[Tracer] = None,
        counters: Optional[Any] = None,
        name: str = "",
        channel: int = 0,
        timers: Optional[TimerWheel] = None,
    ) -> None:
        self._resend = resend
        self.policy = policy or BackoffPolicy()
        self.attribution = attribution or TimeAttribution()
        self._on_give_up = on_give_up
        self.rtt = rtt or self.policy.estimator()
        # `is not None`, not `or`: an empty tracer is len()==0-falsy.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: A Counters registry of this retransmitter's own; callers may
        #: pass a scope of their endpoint registry so one dump covers
        #: the whole run.
        self.counters = counters if counters is not None else Counters()
        self.name = name
        self.channel = channel
        #: The tracked set by key, in tracking order.  Callers may read
        #: it (its size is the source-buffer occupancy); only this class
        #: changes it.
        self.entries: Dict[Hashable, _Tracked] = {}
        #: High-water mark of the tracked set (source-buffer occupancy
        #: peak) — the sender-side quantity flow control must bound.
        self.tracked_peak = 0
        self._wheel = timers if timers is not None else TimerWheel()
        #: The one pending timer, armed for the earliest deadline.
        self._timer: Optional[WheelTimer] = None
        self._paused = False
        #: Give-ups recorded when no ``on_give_up`` callback is wired —
        #: deterministic surfacing instead of a swallowed callback error.
        self.failures: Dict[Hashable, RetransmitExhausted] = {}

    # -- counters (registry-backed; attribute names kept as properties) -------

    @property
    def retransmissions(self) -> int:
        return self.counters.get("retransmissions")

    @property
    def retransmitted_bytes(self) -> int:
        return self.counters.get("retransmitted_bytes")

    @property
    def acked(self) -> int:
        return self.counters.get("acked")

    @property
    def exhausted(self) -> int:
        return self.counters.get("exhausted")

    @property
    def resend_errors(self) -> int:
        """Tracked keys dropped because their resend call raised."""
        return self.counters.get("resend_errors")

    # -- tracking -------------------------------------------------------------

    def _interval(self, attempt: int) -> float:
        return self.policy.interval(attempt, base=self.rtt.rto)

    def _arm(self, deadline: float) -> None:
        """Make the timer fire no later than ``deadline``."""
        timer = self._timer
        if timer is not None:
            if timer._when <= deadline:  # the field: when() is a call
                return
            timer.cancel()
        self._timer = self._wheel.call_at(deadline, self._expire)

    def _disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def track(self, key: Union[Hashable, Iterable[Hashable]],
              data: Union[bytes, List[bytes]],
              sample_rtt: bool = True) -> None:
        """Start watching ``key``; resend ``data`` until :meth:`ack`.

        A run of keys is one call: ``data`` a list of wire bytes and
        ``key`` an iterable of as many keys (a ``range`` of sequence
        numbers, say), in the same order.  The run takes one clock
        reading, so its keys share one deadline and one decision about
        the timer: exactly what tracking them one by one leaves, when
        no time passes in between; an empty run tracks nothing.

        ``sample_rtt=False`` excludes the keys' eventual acks from the
        RTT estimate — for acks that are batched far after the send (the
        bulk protocol's cumulative final ack) rather than round trips.
        """
        if type(data) is not list:
            key, data = (key,), (data,)
        elif not data:
            return
        entries = self.entries
        now = asyncio.get_running_loop().time()
        # ``_interval(0)``, without the calls: the first wait is the
        # RTO, capped by the backoff ceiling.
        rto, ceiling = self.rtt.rto, self.policy.ceiling
        deadline = now + (rto if rto < ceiling else ceiling)
        for one, wire in zip(key, data):
            if one in entries:
                raise ValueError(f"key {one!r} already tracked")
            entries[one] = _Tracked(
                data=wire, deadline=deadline, first_sent=now,
                sample_rtt=sample_rtt,
            )
        tracked = len(entries)
        if tracked > self.tracked_peak:
            self.tracked_peak = tracked
        if not self._paused:
            # ``_arm`` only when it has work: nothing armed yet, or
            # this deadline comes before the armed one.
            timer = self._timer
            if timer is None or timer._when > deadline:
                self._arm(deadline)

    def requeue(self, key: Hashable, data: bytes) -> None:
        """(Re-)track ``key`` with a fresh retry budget.

        The channel-recovery path: after an epoch renegotiation the
        sender re-tracks every surviving packet — including keys that
        already gave up (popped from the wheel) and keys still tracked
        (whose attempt counts are stale).  The entry is marked
        retransmitted so Karn's algorithm excludes its eventual ack
        from the RTT estimate.
        """
        loop = asyncio.get_running_loop()
        now = loop.time()
        deadline = now + self._interval(0)
        self.entries[key] = _Tracked(
            data=data, deadline=deadline, first_sent=now,
            retransmitted=True,
        )
        if len(self.entries) > self.tracked_peak:
            self.tracked_peak = len(self.entries)
        if not self._paused:
            self._arm(deadline)

    def pause(self) -> None:
        """Park the timer: entries stay tracked but nothing fires.

        Used while a channel renegotiates its epoch — retransmitting
        into a partition or a crashed peer only burns retry budget.
        """
        self._paused = True
        self._disarm()

    def resume(self) -> None:
        """Re-arm the timer at the earliest deadline after :meth:`pause`."""
        self._paused = False
        if self.entries:
            self._arm(min(e.deadline for e in self.entries.values()))

    @property
    def paused(self) -> bool:
        return self._paused

    def ack(self, key: Hashable) -> bool:
        """Release ``key``; returns False for unknown/duplicate acks."""
        if key not in self.entries:
            return False
        self._release((key,))
        return True

    def ack_below(self, limit: int) -> int:
        """Release every integer key strictly below ``limit`` (cumulative
        acknowledgement); returns how many keys it released.  The scan
        covers every key, so keys :meth:`requeue` put back out of order
        are found too; the batch is released in one pass."""
        try:
            released = [k for k in self.entries if k < limit]
        except TypeError:  # mixed key shapes: only integers are cumulative
            released = [k for k in self.entries
                        if isinstance(k, int) and k < limit]
        if released:
            self._release(released)
        return len(released)

    def ack_keys(self, keys: Iterable[Hashable]) -> int:
        """Release each of ``keys`` still tracked (selective acks) in
        one pass; returns how many it released.  A key already released
        or never tracked is skipped at the cost of a membership test."""
        entries = self.entries
        live = [k for k in dict.fromkeys(keys) if k in entries]
        if live:
            self._release(live)
        return len(live)

    def _release(self, keys: Sequence[Hashable]) -> None:
        """Untrack ``keys`` (each tracked once) in one pass.  Karn's
        algorithm: only never-resent packets give RTT samples, one
        each, in the order of ``keys``, off one clock reading, folded
        into the estimator with one call."""
        entries = self.entries
        gone = [entries[key] for key in keys]
        for key in keys:
            del entries[key]
        self.counters["acked"] += len(keys)
        now = asyncio.get_running_loop().time()
        rtts = [now - entry.first_sent for entry in gone
                if entry.sample_rtt and not entry.retransmitted]
        if rtts:
            self.rtt.fold(rtts)
        if not entries:
            self._disarm()

    def tracked_keys(self) -> List[Hashable]:
        return list(self.entries)

    def cancel_all(self) -> None:
        """Drop every tracked key and cancel the timer, so no pending
        resend fires on a closed transport."""
        self.entries.clear()
        self._disarm()

    @property
    def outstanding(self) -> int:
        return len(self.entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.entries

    # -- the timer ------------------------------------------------------------

    def _expire(self) -> None:
        """Timer callback: resend what expired, re-arm for the rest.

        An ack may have removed the entry the timer was armed for (and
        a direct call can come early), so the earliest live deadline
        can still lie ahead.  Then it only re-arms: nothing fires early.
        """
        self._timer = None
        if self._paused or not self.entries:
            return
        loop = asyncio.get_running_loop()
        now = loop.time()
        if min(e.deadline for e in self.entries.values()) <= now:
            self._fire(now)
            if self._paused or not self.entries:
                return
        self._arm(min(e.deadline for e in self.entries.values()))

    def _fire(self, now: float) -> None:
        loop = asyncio.get_running_loop()
        expired = [key for key, e in self.entries.items() if e.deadline <= now]
        tracer = self.tracer
        if expired and tracer.enabled:
            tracer.emit(EventType.TIMER_FIRE, endpoint=self.name,
                        channel=self.channel, seq=len(expired),
                        kind="RETRANSMIT_WHEEL",
                        feature=Feature.FAULT_TOLERANCE)
        for key in expired:
            entry = self.entries.get(key)
            if entry is None:
                continue  # acked by a give-up callback earlier in this pass
            if entry.attempt >= self.policy.max_retries:
                # The final retry already had its full ack window
                # (one more interval after the last resend) — give up.
                self.entries.pop(key, None)
                self.counters["exhausted"] += 1
                if tracer.enabled:
                    seq, aux, kind = _key_fields(key)
                    tracer.emit(EventType.GIVE_UP, endpoint=self.name,
                                channel=self.channel, seq=seq, aux=aux,
                                attempt=entry.attempt, kind=kind,
                                feature=Feature.FAULT_TOLERANCE)
                error = RetransmitExhausted(
                    f"key {key!r} unacknowledged after "
                    f"{self.policy.max_retries} retries"
                )
                if self._on_give_up is not None:
                    self._on_give_up(key, error)
                else:
                    self.failures[key] = error
                continue
            with self.attribution.spans[Feature.FAULT_TOLERANCE]:
                self.counters["retransmissions"] += 1
                self.counters["retransmitted_bytes"] += len(entry.data)
                entry.retransmitted = True
                entry.attempt += 1
                if tracer.enabled:
                    seq, aux, kind = _key_fields(key)
                    tracer.emit(EventType.RETRANSMIT, endpoint=self.name,
                                channel=self.channel, seq=seq, aux=aux,
                                attempt=entry.attempt, kind=kind,
                                feature=Feature.FAULT_TOLERANCE)
                try:
                    self._resend(key, entry.data)
                except Exception as exc:
                    # A raised resend (send on a closed transport, a
                    # departed peer) must not stop the shared timer:
                    # every *other* tracked key would silently stop
                    # retransmitting.  Drop this entry and surface the
                    # error the same way retry exhaustion does.
                    self.entries.pop(key, None)
                    self.counters["resend_errors"] += 1
                    error = RetransmitExhausted(
                        f"resend for key {key!r} failed: {exc!r}"
                    )
                    error.__cause__ = exc
                    if self._on_give_up is not None:
                        self._on_give_up(key, error)
                    else:
                        self.failures[key] = error
                    continue
                # Re-arm off a *fresh* clock reading: earlier resends in
                # this pass took time, and a deadline measured from the
                # stale `now` would be partially (or wholly) elapsed
                # already — yielding premature retransmits that pollute
                # the backoff schedule.
                entry.deadline = loop.time() + self._interval(entry.attempt)
