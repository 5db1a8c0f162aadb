"""One timer wheel per fabric: protocol deadlines behind one loop handle,
and a ready queue for the work due now.

The paper's Section 3.2 asks fault tolerance to cost nothing when no
fault happens.  On an open-loop workload each message arms and cancels a
retransmit timer and a delayed-ack timer; as asyncio timer handles those
cost a loop call each way plus Python-level heap comparisons
(``TimerHandle.__lt__``) on every push and pop.  A :class:`TimerWheel`
keeps all of them in its own heap of ``(when, seq, timer)`` tuples,
which compare in C, and holds one ``loop.call_at`` handle armed for the
earliest live deadline:

* scheduling a deadline no earlier than the armed one makes no loop
  call; an earlier one moves the handle in;
* cancelling makes no loop call, except that cancelling the last live
  timer drops the loop handle, so an idle wheel leaves nothing behind;
* the callback collects the timers due by ``loop.time()`` — not by the
  armed deadline, which asyncio may run up to one clock resolution
  early — runs them in ``(when, seq)`` order, and re-arms for the next
  live head.  A timer scheduled by one of them at or before ``now``
  therefore runs on a later pass, never in a loop within this one.

The wheel also keeps a FIFO *ready queue* for work due now
(:meth:`TimerWheel.call_soon`): the fabric's zero-delay hub deliveries
and the flushes its timers request.  The queue runs to empty inside a
loop callback the wheel is already in — the timer pass, after its due
timers, or :meth:`TimerWheel.call_and_drain`, the endpoint's flush
callback — and costs a loop callback of its own only when it fills up
outside both.  An item added while the queue runs joins that run.  A
raising item is reported like a raising timer and the rest still run.

:meth:`TimerWheel.call_at` returns a :class:`WheelTimer` with the
``when()``/``cancel()`` surface of an asyncio ``TimerHandle``, so code
that kept one handle keeps its shape.
"""

from __future__ import annotations

import asyncio
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, List, Optional, Tuple

_INF = float("inf")

#: Cancelled entries tolerated in the heap beyond the live count before
#: it is rebuilt without them.  Most retransmit timers are cancelled
#: long before their deadline; without the rebuild a closed-loop run
#: keeps ~30x more dead entries than live ones.
_STALE_SLACK = 64


class WheelTimer:
    """One deadline on a :class:`TimerWheel` (``when()``/``cancel()``)."""

    __slots__ = ("_when", "_callback", "_args", "_wheel")

    def __init__(self, when: float, callback: Callable[..., Any],
                 args: Tuple[Any, ...], wheel: "TimerWheel") -> None:
        self._when = when
        self._callback = callback
        self._args = args
        #: The owning wheel while the timer is pending; None once it has
        #: fired or been cancelled.
        self._wheel: Optional[TimerWheel] = wheel

    def when(self) -> float:
        return self._when

    def cancel(self) -> None:
        wheel = self._wheel
        if wheel is None:
            return
        self._wheel = None
        wheel.live -= 1
        wheel._stale += 1
        if not wheel.live or wheel._stale > wheel.live + _STALE_SLACK:
            wheel._tidy()


class TimerWheel:
    """Deadlines in one heap, driven by a single ``loop.call_at`` handle."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, WheelTimer]] = []
        self._seq = 0
        #: Pending timers (scheduled, neither fired nor cancelled).
        self.live = 0
        #: Cancelled entries still sitting in the heap (an upper bound).
        self._stale = 0
        self._handle: Optional[asyncio.TimerHandle] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Deadline the loop handle is armed for: +inf with no handle,
        #: -inf while firing (so callbacks schedule without arming).
        self._armed = _INF
        self._ready: Deque[Tuple[Callable[..., Any], Tuple[Any, ...]]] = \
            deque()
        #: True while some loop callback will run the ready queue before
        #: it returns: one is queued on the loop, or one is running.
        self._draining = False
        self._soon: Optional[asyncio.Handle] = None
        #: True while the timer pass runs its due timers.
        self.firing = False

    def call_at(self, when: float, callback: Callable[..., Any],
                *args: Any) -> WheelTimer:
        """Run ``callback(*args)`` once ``loop.time()`` reaches ``when``."""
        timer = WheelTimer(when, callback, args, self)
        seq = self._seq = self._seq + 1
        heappush(self._heap, (when, seq, timer))
        self.live += 1
        if when < self._armed:
            self._arm(when)
        return timer

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` from the ready queue, after what is
        already queued."""
        self._ready.append((callback, args))
        if not self._draining:
            self._draining = True
            self._soon = asyncio.get_running_loop().call_soon(self._drain)

    def call_and_drain(self, callback: Callable[..., Any]) -> None:
        """Loop callback: run ``callback()``, then the ready queue to
        empty.  What ``callback`` queues runs in this same callback."""
        draining = self._draining
        self._draining = True
        try:
            callback()
            if self._ready:
                self._run_ready()
        finally:
            self._draining = draining

    def _drain(self) -> None:
        self._soon = None
        self._run_ready()
        self._draining = False

    def _run_ready(self) -> None:
        ready = self._ready
        while ready:
            callback, args = ready.popleft()
            try:
                callback(*args)
            except Exception as exc:
                self._report(exc)

    def _report(self, exc: Exception) -> None:
        # One failing callback must not strand the others: report it
        # the way asyncio reports a raising handle, and go on.
        asyncio.get_running_loop().call_exception_handler({
            "message": "Exception in timer wheel callback",
            "exception": exc,
        })

    def _arm(self, when: float) -> None:
        handle = self._handle
        if handle is not None:
            handle.cancel()
        loop = self._loop = asyncio.get_running_loop()
        self._handle = loop.call_at(when, self._run)
        self._armed = when

    def _tidy(self) -> None:
        """Drop cancelled entries: all of them, with the loop handle,
        once nothing is live; otherwise rebuild the heap without them."""
        heap = self._heap
        self._stale = 0
        if self.live:
            heap[:] = [entry for entry in heap if entry[2]._wheel is not None]
            heapify(heap)
            return
        heap.clear()
        handle = self._handle
        if handle is not None:
            handle.cancel()
            self._handle = None
            self._armed = _INF

    def clear(self) -> None:
        """Run what the ready queue holds, then cancel every pending
        timer and release the loop handles."""
        self._run_ready()
        soon = self._soon
        if soon is not None:
            soon.cancel()
            self._soon = None
            self._draining = False
        for _when, _seq, timer in self._heap:
            if timer._wheel is not None:
                timer._wheel = None
                self.live -= 1
        self._tidy()

    def _run(self) -> None:
        """The loop handle's callback: fire what is due, re-arm, then run
        the ready queue (the flushes the timers asked for among it)."""
        self._handle = None
        self._armed = -_INF
        self.firing = True
        draining = self._draining
        self._draining = True
        heap = self._heap
        loop = self._loop  # the loop that armed the handle now running
        now = loop.time()
        due = []
        while heap and heap[0][0] <= now:
            timer = heappop(heap)[2]
            if timer._wheel is None:
                self._stale -= 1
            else:
                due.append(timer)
        for timer in due:
            if timer._wheel is None:
                continue  # cancelled by an earlier timer of this pass
            timer._wheel = None
            self.live -= 1
            try:
                timer._callback(*timer._args)
            except Exception as exc:
                self._report(exc)
        self.firing = False
        self._armed = _INF
        while heap and heap[0][2]._wheel is None:
            heappop(heap)
            self._stale -= 1
        if heap:
            when = heap[0][0]
            self._handle = loop.call_at(when, self._run)
            self._armed = when
        if self._ready:
            self._run_ready()
        self._draining = draining
