"""Timeout-driven retransmission for the live runtime.

The runtime analogue of :class:`repro.protocols.retransmit.RetransmitBuffer`:
where the simulator arms virtual-time timers on the event kernel, the
runtime arms real asyncio timers.  Each :class:`Retransmitter` holds at
most one ``loop.call_at`` handle, armed for the earliest deadline among
its tracked keys; when it runs, the callback resends exactly the
entries that expired and re-arms for the next deadline.  There is no
task and no event: tracking a key costs a dict insert (plus one
``call_at`` when nothing is armed yet), and acknowledging the last key
cancels the handle — which matters exactly on the windowed hot path the
paper's fault-tolerance bucket measures.

Retransmission timers are RTT-adaptive (RFC 6298): every
unretransmitted packet's ack contributes an SRTT/RTTVAR sample (Karn's
algorithm excludes retransmitted packets, whose acks are ambiguous), and
the retransmission timeout is ``SRTT + 4*RTTVAR`` clamped to the
policy's floor/ceiling.  Until the first sample arrives the policy's
``initial`` serves as the pre-sample guess.

When a key runs out of retries it is surfaced through ``on_give_up``; a
retransmitter wired without that callback records the error in
:attr:`Retransmitter.failures` instead of raising inside a timer
callback (which asyncio would only report to its exception handler).
The final retry gets a full ack window: exhaustion is declared one
backoff interval *after* the last resend, not immediately upon it.

All work done here — the resends and the bookkeeping — is charged to the
fault-tolerance bucket of the owning endpoint's :class:`TimeAttribution`,
matching the paper's accounting: retransmission costs appear only when a
retransmission actually happens.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.arch.attribution import Feature
from repro.runtime.spans import TimeAttribution
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

    ALPHA = 1.0 / 8.0
    BETA = 1.0 / 4.0

    def sample(self, rtt: float) -> None:
        """Fold one round-trip measurement into SRTT/RTTVAR."""
        if rtt < 0:
            return
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(self.srtt - rtt)
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        self.samples += 1

    @property
    def rto(self) -> float:
        """Current retransmission timeout."""
        if self.srtt is None:
            return self.fallback
        rto = self.srtt + max(4.0 * self.rttvar, self.granularity)
        return min(max(rto, self.min_rto), self.max_rto)


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

    Every tracked key shares one ``loop.call_at`` handle, armed for the
    earliest deadline.  A new key arms it only when nothing is armed or
    its deadline comes first; acknowledging the last key cancels it.
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
        self._entries: Dict[Hashable, _Tracked] = {}
        #: High-water mark of the tracked set (source-buffer occupancy
        #: peak) — the sender-side quantity flow control must bound.
        self.tracked_peak = 0
        #: The one pending timer, armed for the earliest deadline.
        self._timer: Optional[asyncio.TimerHandle] = None
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

    def _arm(self, loop: asyncio.AbstractEventLoop, deadline: float) -> None:
        """Make the timer fire no later than ``deadline``."""
        timer = self._timer
        if timer is not None:
            if timer.when() <= deadline:
                return
            timer.cancel()
        self._timer = loop.call_at(deadline, self._expire)

    def _disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def track(self, key: Hashable, data: bytes, sample_rtt: bool = True) -> None:
        """Start watching ``key``; resend ``data`` until :meth:`ack`.

        ``sample_rtt=False`` excludes this key's eventual ack from the
        RTT estimate — for acks that are batched far after the send (the
        bulk protocol's cumulative final ack) rather than round trips.
        """
        if key in self._entries:
            raise ValueError(f"key {key!r} already tracked")
        loop = asyncio.get_running_loop()
        now = loop.time()
        deadline = now + self._interval(0)
        self._entries[key] = _Tracked(
            data=data, deadline=deadline, first_sent=now,
            sample_rtt=sample_rtt,
        )
        self.tracked_peak = max(self.tracked_peak, len(self._entries))
        if not self._paused:
            self._arm(loop, deadline)

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
        self._entries[key] = _Tracked(
            data=data, deadline=deadline, first_sent=now,
            retransmitted=True,
        )
        self.tracked_peak = max(self.tracked_peak, len(self._entries))
        if not self._paused:
            self._arm(loop, deadline)

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
        if self._entries:
            self._arm(asyncio.get_running_loop(),
                      min(e.deadline for e in self._entries.values()))

    @property
    def paused(self) -> bool:
        return self._paused

    def ack(self, key: Hashable) -> bool:
        """Release ``key``; returns False for unknown/duplicate acks."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.counters["acked"] += 1
        if entry.sample_rtt and not entry.retransmitted:
            # Karn's algorithm: only unambiguous (never-resent) packets
            # contribute RTT samples.
            self.rtt.sample(asyncio.get_running_loop().time() - entry.first_sent)
        if not self._entries:
            self._disarm()
        return True

    def ack_below(self, limit: int) -> int:
        """Release every integer key strictly below ``limit`` (cumulative
        acknowledgement); returns how many keys it released."""
        released = [k for k in self._entries if isinstance(k, int) and k < limit]
        for key in released:
            self.ack(key)
        return len(released)

    def tracked_keys(self) -> List[Hashable]:
        return list(self._entries)

    def cancel_all(self) -> None:
        """Drop every tracked key and cancel the timer, so no pending
        resend fires on a closed transport."""
        self._entries.clear()
        self._disarm()

    @property
    def outstanding(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    # -- the timer ------------------------------------------------------------

    def _expire(self) -> None:
        """Timer callback: resend what expired, re-arm for the rest.

        asyncio runs a handle that is due within the loop's clock
        resolution, so this can run a hair before the earliest deadline
        (or after an ack removed the entry it was armed for).  Then it
        only re-arms: nothing fires early.
        """
        self._timer = None
        if self._paused or not self._entries:
            return
        loop = asyncio.get_running_loop()
        now = loop.time()
        if min(e.deadline for e in self._entries.values()) <= now:
            self._fire(now)
            if self._paused or not self._entries:
                return
        self._arm(loop, min(e.deadline for e in self._entries.values()))

    def _fire(self, now: float) -> None:
        loop = asyncio.get_running_loop()
        expired = [key for key, e in self._entries.items() if e.deadline <= now]
        tracer = self.tracer
        if expired and tracer.enabled:
            tracer.emit(EventType.TIMER_FIRE, endpoint=self.name,
                        channel=self.channel, seq=len(expired),
                        kind="RETRANSMIT_WHEEL",
                        feature=Feature.FAULT_TOLERANCE)
        for key in expired:
            entry = self._entries.get(key)
            if entry is None:
                continue  # acked by a give-up callback earlier in this pass
            if entry.attempt >= self.policy.max_retries:
                # The final retry already had its full ack window
                # (one more interval after the last resend) — give up.
                self._entries.pop(key, None)
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
                    self._entries.pop(key, None)
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
