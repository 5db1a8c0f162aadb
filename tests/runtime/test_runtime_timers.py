"""Tests for the timer wheel: every retransmit and delayed-ack deadline of a
fabric behind one ``loop.call_at`` handle.

Covers firing order, when the loop handle moves (an earlier deadline
pulls it in, a later one makes no loop call, the last cancel drops it),
the pass discipline that keeps a timer re-armed at ``loop.time()`` from
spinning inside one callback, the ready queue and the flush rule built
on it, and the fabric's one shared wheel.
"""

import asyncio

from repro.runtime.fabric import Fabric
from repro.runtime.frames import data_frame
from repro.runtime.protocols import OrderedChannelReceiver
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


class TestReadyQueue:
    def test_items_run_in_fifo_order_in_one_loop_callback(self, drive):
        """An item added while the queue runs joins that run: the whole
        queue, late item included, costs one loop callback and has run
        before the task that queued it resumes."""

        async def body():
            loop = asyncio.get_running_loop()
            wheel = TimerWheel()
            ran = []
            scheduled = []
            real_call_soon = loop.call_soon
            loop.call_soon = lambda *a, **k: (scheduled.append(a[0]),
                                              real_call_soon(*a, **k))[1]

            def spawn():
                ran.append("b")
                wheel.call_soon(ran.append, "late")

            try:
                wheel.call_soon(ran.append, "a")
                wheel.call_soon(spawn)
                wheel.call_soon(ran.append, "c")
                queued = list(scheduled)
                await asyncio.sleep(0)
            finally:
                del loop.call_soon
            return ran, queued

        ran, queued = drive(body())
        assert ran == ["a", "b", "c", "late"]
        assert len(queued) == 1

    def test_raising_item_reaches_the_handler_and_the_rest_run(self, drive):
        async def body():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
            wheel = TimerWheel()
            ran = []

            def boom():
                raise RuntimeError("boom")

            wheel.call_soon(ran.append, "before")
            wheel.call_soon(boom)
            wheel.call_soon(ran.append, "after")
            await asyncio.sleep(0)
            wheel.call_soon(ran.append, "next run")
            await asyncio.sleep(0)
            return ran, errors

        ran, errors = drive(body())
        assert ran == ["before", "after", "next run"]
        assert len(errors) == 1
        assert isinstance(errors[0]["exception"], RuntimeError)

    def test_timer_pass_runs_the_queue_after_its_due_timers(self, drive):
        async def body():
            loop = asyncio.get_running_loop()
            wheel = TimerWheel()
            ran = []
            when = loop.time() + 0.005

            def first():
                ran.append("timer 1")
                wheel.call_soon(ran.append, "queued by timer 1")

            wheel.call_at(when, first)
            wheel.call_at(when, ran.append, "timer 2")
            wheel._handle.cancel()
            await asyncio.sleep(0.02)
            wheel._run()  # both timers are due: one pass
            return ran, wheel._soon

        ran, soon = drive(body())
        assert ran == ["timer 1", "timer 2", "queued by timer 1"]
        assert soon is None  # no loop callback of its own


class TestFlushRule:
    def test_delayed_acks_of_one_pass_share_a_container(self,
                                                        drive_virtual):
        """Two delayed acks from one endpoint to one peer that fire in
        one timer pass leave as one container datagram: the flush they
        ask for runs after every due timer of the pass.  The two DATA
        frames travel in one datagram but on two channels, so they are
        two runs of one: each receiver arms its own delayed ack, and
        both are due once the virtual clock has moved 20 ms."""

        async def body():
            fabric = Fabric("cm5", reorder_rate=0.0)
            a = await fabric.add_peer("a")
            b = await fabric.add_peer("b")
            receivers = [OrderedChannelReceiver(b, channel=ch, ack_every=100,
                                                ack_delay=0.005)
                         for ch in (1, 2)]
            try:
                for ch in (1, 2):
                    a.post_frame("b", data_frame(ch, 0, [ch]))
                while sum(r.arrivals for r in receivers) < 2:
                    await asyncio.sleep(0)
                wheel = fabric.timers
                wheel._handle.cancel()
                await asyncio.sleep(0.02)
                sent = b.transport.datagrams_sent
                wheel._run()  # both ack deadlines are due: one pass
                return (b.transport.datagrams_sent - sent, b.batches_sent,
                        a.frames_received,
                        [r.counters["delayed_acks"] for r in receivers])
            finally:
                for receiver in receivers:
                    receiver.close()
                await fabric.close()

        datagrams, batches, acks_in, delayed = drive_virtual(body())
        assert delayed == [1, 1]
        assert datagrams == 1 and batches == 1
        assert acks_in == 2

    def test_frame_from_a_woken_task_joins_the_reply_flush(self, drive):
        """Regression for flushing replies from the ready queue: a frame
        posted by a task that a delivery woke must still join the
        receiver's reply (here, its immediate ack) in one container."""

        async def body():
            loop = asyncio.get_running_loop()
            fabric = Fabric("cm5", reorder_rate=0.0)
            a = await fabric.add_peer("a")
            b = await fabric.add_peer("b")
            woken = loop.create_future()
            receiver = OrderedChannelReceiver(
                b, channel=1, ack_every=1,
                deliver=lambda seq, payload: woken.set_result(payload))

            async def answer():
                payload = await woken
                b.post_frame("a", data_frame(2, 0, payload))

            task = loop.create_task(answer())
            try:
                a.post_frame("b", data_frame(1, 0, [7]))
                await task
                while a.frames_received < 2:
                    await asyncio.sleep(0)
                return b.transport.datagrams_sent, b.batches_sent
            finally:
                receiver.close()
                await fabric.close()

        datagrams, batches = drive(body())
        assert (datagrams, batches) == (1, 1)


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

    def test_fabric_close_expires_queued_hand_overs(self, drive):
        """Hand-overs still on the ready queue when the fabric closes run
        then, count as hub ``expired`` (their peers are gone), and leave
        no loop handle of the wheel's behind."""

        async def body():
            loop = asyncio.get_running_loop()
            fabric = Fabric(mode="cr")
            a = await fabric.add_peer("a")
            await fabric.add_peer("b")
            for seq in range(3):
                a.post_frame("b", data_frame(1, seq, [seq]))
            # No await in between: close() flushes a's queue onto the
            # ready queue and detaches both peers before it runs.
            await fabric.close()
            wheel = fabric.timers
            callbacks = [h for h in loop._ready if not h.cancelled()
                         and h._callback == wheel._drain]
            return (fabric.hub.wire_counters(), wheel._soon, callbacks,
                    wheel_handles(loop, wheel))

        counters, soon, callbacks, handles = drive(body())
        assert counters["expired"] == 1  # one container
        assert counters["delivered"] == 0
        assert soon is None and callbacks == [] and handles == []
