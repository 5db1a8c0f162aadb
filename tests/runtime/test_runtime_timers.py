"""Tests for the timer wheel: every retransmit and delayed-ack deadline of a
fabric behind one ``loop.call_at`` handle.

Covers firing order, when the loop handle moves (an earlier deadline
pulls it in, a later one makes no loop call, the last cancel drops it),
the pass discipline that keeps a timer re-armed at ``loop.time()`` from
spinning inside one callback, and the fabric's one shared wheel.
"""

import asyncio

from repro.runtime.fabric import Fabric
from repro.runtime.reliability import BackoffPolicy, Retransmitter
from repro.runtime.timers import TimerWheel


def pending_timers(loop):
    """Timer handles still scheduled (not cancelled) on ``loop``."""
    return [h for h in loop._scheduled if not h.cancelled()]


def wheel_handles(loop, wheel):
    """Live loop handles that drive ``wheel``."""
    return [h for h in pending_timers(loop) if h._callback == wheel._run]


class TestOrdering:
    def test_same_instant_timers_fire_in_scheduling_order(self, drive):
        async def body():
            loop = asyncio.get_running_loop()
            wheel = TimerWheel()
            fired = []
            when = loop.time() + 0.01
            for name in "abcde":
                wheel.call_at(when, fired.append, name)
            wheel.call_at(when - 0.005, fired.append, "first")
            await asyncio.sleep(0.03)
            return fired

        assert drive(body()) == ["first", "a", "b", "c", "d", "e"]

    def test_cancelled_timer_never_fires(self, drive):
        async def body():
            loop = asyncio.get_running_loop()
            wheel = TimerWheel()
            fired = []
            keep = wheel.call_at(loop.time() + 0.005, fired.append, "keep")
            drop = wheel.call_at(loop.time() + 0.005, fired.append, "drop")
            drop.cancel()
            drop.cancel()  # idempotent
            await asyncio.sleep(0.02)
            keep.cancel()  # a no-op once fired
            return fired, wheel.live

        fired, live = drive(body())
        assert fired == ["keep"]
        assert live == 0


class TestLoopHandle:
    def test_earlier_deadline_pulls_the_handle_in(self, drive):
        async def body():
            loop = asyncio.get_running_loop()
            baseline = len(pending_timers(loop))
            wheel = TimerWheel()
            now = loop.time()
            wheel.call_at(now + 0.5, lambda: None)
            first = wheel._handle.when()
            wheel.call_at(now + 0.1, lambda: None)
            pulled_in = wheel._handle.when()
            extra = len(pending_timers(loop)) - baseline
            wheel.clear()
            return first, pulled_in, extra

        first, pulled_in, extra = drive(body())
        assert pulled_in < first
        assert extra == 1

    def test_later_deadline_makes_no_loop_call(self, drive):
        async def body():
            loop = asyncio.get_running_loop()
            wheel = TimerWheel()
            now = loop.time()
            wheel.call_at(now + 0.1, lambda: None)
            handle = wheel._handle
            calls = []
            real_call_at = loop.call_at
            loop.call_at = lambda *a, **k: (calls.append(a),
                                            real_call_at(*a, **k))[1]
            try:
                for i in range(10):
                    wheel.call_at(now + 0.2 + i, lambda: None)
            finally:
                del loop.call_at
            same = wheel._handle is handle
            wheel.clear()
            return calls, same

        calls, same = drive(body())
        assert calls == []
        assert same

    def test_cancelling_the_last_live_timer_leaves_no_loop_timer(self, drive):
        async def body():
            loop = asyncio.get_running_loop()
            baseline = len(pending_timers(loop))
            wheel = TimerWheel()
            now = loop.time()
            timers = [wheel.call_at(now + 0.1 * (i + 1), lambda: None)
                      for i in range(3)]
            armed = len(pending_timers(loop)) - baseline
            timers[0].cancel()
            timers[1].cancel()
            still = len(pending_timers(loop)) - baseline
            timers[2].cancel()
            left = len(pending_timers(loop)) - baseline
            return armed, still, left, wheel._handle, wheel._heap

        armed, still, left, handle, heap = drive(body())
        assert armed == 1 and still == 1
        assert left == 0
        assert handle is None and heap == []

    def test_early_run_fires_nothing_and_rearms(self, drive):
        """asyncio may run the handle up to one clock resolution before
        its deadline: the wheel fires only what ``loop.time()`` has
        reached and re-arms for the rest."""

        async def body():
            loop = asyncio.get_running_loop()
            wheel = TimerWheel()
            fired = []
            timer = wheel.call_at(loop.time() + 0.5, fired.append, "x")
            wheel._handle.cancel()
            wheel._run()  # well before the deadline
            rearmed = wheel._handle.when()
            wheel.clear()
            return fired, rearmed, timer.when()

        fired, rearmed, when = drive(body())
        assert fired == []
        assert rearmed == when


class TestPasses:
    def test_timer_scheduled_at_now_runs_on_a_later_pass(self, drive):
        """Regression: a callback that re-arms at (or before) the current
        clock must not run again within the same pass, or a retransmitter
        re-arming at an unreached deadline spins forever."""

        async def body():
            loop = asyncio.get_running_loop()
            wheel = TimerWheel()
            passes = []
            real_run = wheel._run

            def counted_run():
                passes.append(loop.time())
                real_run()

            wheel._run = counted_run
            ran = []

            def again(n, when):
                ran.append((n, len(passes)))
                if n < 5:
                    # Re-arm at this timer's own deadline, already due.
                    wheel.call_at(when, again, n + 1, when)

            start = loop.time()
            wheel.call_at(start, again, 1, start)
            for _ in range(50):
                await asyncio.sleep(0)
                if len(ran) >= 5:
                    break
            return ran

        ran = drive(body())
        assert [n for n, _ in ran] == [1, 2, 3, 4, 5]
        # Each generation ran on a pass of its own.
        assert [p for _, p in ran] == [1, 2, 3, 4, 5]

    def test_raising_callback_does_not_strand_the_rest(self, drive):
        async def body():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
            wheel = TimerWheel()
            fired = []
            when = loop.time() + 0.005

            def boom():
                raise RuntimeError("boom")

            wheel.call_at(when, boom)
            wheel.call_at(when, fired.append, "after")
            wheel.call_at(when + 0.01, fired.append, "later")
            await asyncio.sleep(0.03)
            return fired, errors

        fired, errors = drive(body())
        assert fired == ["after", "later"]
        assert len(errors) == 1
        assert isinstance(errors[0]["exception"], RuntimeError)


class TestFabricWheel:
    def test_retransmitters_on_one_fabric_share_one_loop_timer(self, drive):
        async def body():
            loop = asyncio.get_running_loop()
            fabric = Fabric(mode="cm5")
            try:
                endpoint = await fabric.add_peer("a")
                baseline = len(pending_timers(loop))
                # Distinct RTOs: every retransmitter wants its own deadline.
                rts = [Retransmitter(
                           lambda key, data: None,
                           policy=BackoffPolicy(initial=0.1 + i / 100),
                           timers=endpoint.timers)
                       for i in range(32)]
                for i, rt in enumerate(rts):
                    rt.track(i, b"x")
                extra = len(pending_timers(loop)) - baseline
                shared = all(rt._wheel is fabric.timers for rt in rts)
                for rt in rts:
                    rt.cancel_all()
                left = len(pending_timers(loop)) - baseline
            finally:
                await fabric.close()
            return extra, shared, left

        extra, shared, left = drive(body())
        assert shared
        assert extra <= 1
        assert left == 0

    def test_every_peer_gets_the_fabric_wheel(self, drive):
        async def body():
            fabric = Fabric(mode="cm5")
            try:
                a = await fabric.add_peer("a")
                b = await fabric.add_peer("b")
                conn = await fabric.connect("a", "b")
                return (a.timers is fabric.timers, b.timers is fabric.timers,
                        conn.channel.sender.retransmitter._wheel
                        is fabric.timers)
            finally:
                await fabric.close()

        assert drive(body()) == (True, True, True)

    def test_fabric_close_leaves_no_wheel_handle(self, drive):
        async def body():
            loop = asyncio.get_running_loop()
            fabric = Fabric(mode="cm5", drop_rate=0.3, seed=7)
            await fabric.add_peer("a")
            await fabric.add_peer("b")
            conns = [await fabric.connect("a", "b") for _ in range(4)]
            for conn in conns:
                await conn.send(list(range(40)))
            await asyncio.sleep(0.002)
            armed = fabric.timers.live
            await fabric.close()
            return (armed, fabric.timers.live, fabric.timers._handle,
                    wheel_handles(loop, fabric.timers))

        armed, live, handle, handles = drive(body())
        assert armed > 0  # retransmit (and delayed-ack) timers were pending
        assert live == 0
        assert handle is None
        assert handles == []
