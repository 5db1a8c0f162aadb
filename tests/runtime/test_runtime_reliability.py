"""Tests for the retransmitter and RTT-adaptive timers.

Covers the regression fixes: the final retry's full ack window,
deterministic give-up reporting without a callback, ``cancel_all``
leaving nothing scheduled, plus the RFC 6298 estimator math and the
task-free structure of the timer: one ``call_at`` handle per
retransmitter, armed for the earliest deadline.
"""

import asyncio
import cProfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.reliability import (
    BackoffPolicy,
    Retransmitter,
    RetransmitExhausted,
    RttEstimator,
    _Tracked,
)


def make_retransmitter(resends, policy, **kwargs):
    def resend(key, data):
        resends.append((key, data))

    return Retransmitter(resend, policy=policy, **kwargs)


def pending_timers(loop):
    """Timer handles still scheduled (not cancelled) on ``loop``."""
    return [h for h in loop._scheduled if not h.cancelled()]


class TestFinalRetryWindow:
    def test_ack_after_last_resend_still_wins(self, drive):
        """Regression: the final retry must get a full backoff interval
        to be acknowledged, not a zero-length window."""

        async def body():
            resends = []
            policy = BackoffPolicy(initial=0.01, factor=1.0, max_retries=2)
            give_ups = []
            rt = make_retransmitter(
                resends, policy, on_give_up=lambda k, e: give_ups.append(k)
            )
            rt.track("k", b"data")
            # Wait until both resends have fired, then ack inside what
            # must be the final (post-last-resend) ack window.
            while rt.retransmissions < policy.max_retries:
                await asyncio.sleep(0.002)
            assert rt.outstanding == 1  # not yet exhausted: window open
            assert rt.ack("k")
            await asyncio.sleep(0.05)   # long past interval(max_retries)
            rt.cancel_all()
            return give_ups, rt.exhausted, rt.acked

        give_ups, exhausted, acked = drive(body())
        assert give_ups == []
        assert exhausted == 0
        assert acked == 1

    def test_exhaustion_takes_one_extra_interval(self, drive):
        async def body():
            resends = []
            policy = BackoffPolicy(initial=0.02, factor=1.0, max_retries=3)
            rt = make_retransmitter(resends, policy)
            loop = asyncio.get_running_loop()
            start = loop.time()
            rt.track("k", b"x")
            while "k" in rt:
                await asyncio.sleep(0.002)
            elapsed = loop.time() - start
            rt.cancel_all()
            return elapsed, len(resends)

        elapsed, resend_count = drive(body())
        assert resend_count == 3
        # 3 resend intervals + the final ack window = 4 * 20 ms.
        assert elapsed >= 4 * 0.02 * 0.9


class TestGiveUpSurfacing:
    def test_without_callback_failure_is_recorded_not_raised(self, drive):
        """Regression: no ``on_give_up`` used to raise inside a
        fire-and-forget task ('exception was never retrieved')."""

        async def body():
            unhandled = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, ctx: unhandled.append(ctx)
            )
            policy = BackoffPolicy(initial=0.005, factor=1.0, max_retries=2)
            rt = make_retransmitter([], policy)  # no on_give_up wired
            rt.track("lost", b"x")
            while not rt.failures:
                await asyncio.sleep(0.002)
            rt.cancel_all()
            await asyncio.sleep(0.01)  # let any stray task exceptions surface
            return unhandled, rt.failures, rt.exhausted

        unhandled, failures, exhausted = drive(body())
        assert unhandled == []
        assert set(failures) == {"lost"}
        assert isinstance(failures["lost"], RetransmitExhausted)
        assert exhausted == 1

    def test_callback_path_still_fires(self, drive):
        async def body():
            seen = []
            policy = BackoffPolicy(initial=0.005, factor=1.0, max_retries=1)
            rt = make_retransmitter(
                [], policy, on_give_up=lambda k, e: seen.append((k, e))
            )
            rt.track("k", b"x")
            while not seen:
                await asyncio.sleep(0.002)
            rt.cancel_all()
            return seen, rt.failures

        seen, failures = drive(body())
        assert len(seen) == 1 and seen[0][0] == "k"
        assert failures == {}  # callback consumed it


class TestCancelAll:
    def test_cancel_all_awaits_the_wheel_and_stops_resends(self, drive):
        async def body():
            resends = []
            baseline = set(asyncio.all_tasks())
            policy = BackoffPolicy(initial=0.01, factor=1.0, max_retries=10)
            rt = make_retransmitter(resends, policy)
            for i in range(8):
                rt.track(i, bytes([i]))
            await asyncio.sleep(0.015)  # let at least one resend happen
            rt.cancel_all()
            count_after_cancel = len(resends)
            timer = rt._timer
            await asyncio.sleep(0.05)
            # No task or timer left behind to resend on a closed transport.
            pending = [
                t for t in asyncio.all_tasks() - baseline if not t.done()
            ]
            return (count_after_cancel, len(resends), pending,
                    rt.outstanding, timer)

        before, after, pending, outstanding, timer = drive(body())
        assert after == before
        assert pending == []
        assert outstanding == 0
        assert timer is None

    def test_track_after_cancel_all_restarts_the_wheel(self, drive):
        async def body():
            resends = []
            policy = BackoffPolicy(initial=0.005, factor=1.0, max_retries=5)
            rt = make_retransmitter(resends, policy)
            rt.track("a", b"a")
            rt.cancel_all()
            rt.track("b", b"b")
            while not resends:
                await asyncio.sleep(0.002)
            rt.cancel_all()
            return [key for key, _ in resends]

        assert set(drive(body())) == {"b"}


class TestTimerWheel:
    def test_many_keys_share_one_task(self, drive):
        """Any number of tracked keys ride one timer handle and no task
        at all: the wheel is a ``call_at`` callback, not a coroutine."""

        async def body():
            loop = asyncio.get_running_loop()
            baseline_tasks = len(asyncio.all_tasks())
            baseline_timers = len(pending_timers(loop))
            policy = BackoffPolicy(initial=0.5, max_retries=3)
            rt = make_retransmitter([], policy)
            for i in range(64):
                rt.track(i, b"x")
            extra_tasks = len(asyncio.all_tasks()) - baseline_tasks
            extra_timers = len(pending_timers(loop)) - baseline_timers
            rt.cancel_all()
            return extra_tasks, extra_timers

        extra_tasks, extra_timers = drive(body())
        assert extra_tasks == 0
        assert extra_timers <= 1

    def test_a_run_of_keys_shares_one_deadline(self, drive):
        """A list of wire bytes is a run: its keys share one clock
        reading and one timer; an empty run tracks and arms nothing;
        a key already tracked is refused inside a run too."""

        async def body():
            rt = make_retransmitter([], BackoffPolicy(initial=0.5))
            rt.track([], [])
            idle = rt._timer
            rt.track(range(3), [b"a", b"b", b"c"])
            times = {(e.deadline, e.first_sent) for e in rt.entries.values()}
            with pytest.raises(ValueError):
                rt.track([7, 2], [b"x", b"y"])
            when = rt._timer._when
            rt.cancel_all()
            return idle, list(rt.entries), times, when

        idle, left, times, when = drive(body())
        assert idle is None and left == []
        assert len(times) == 1 and when == next(iter(times))[0]

    def test_acking_the_last_key_cancels_the_timer(self, drive):
        async def body():
            loop = asyncio.get_running_loop()
            baseline = len(pending_timers(loop))
            rt = make_retransmitter([], BackoffPolicy(initial=0.5))
            rt.track("a", b"x")
            rt.track("b", b"y")
            armed = len(pending_timers(loop)) - baseline
            rt.ack("a")
            still_armed = rt._timer is not None
            rt.ack("b")
            return armed, still_armed, rt._timer, \
                len(pending_timers(loop)) - baseline

        armed, still_armed, timer, left = drive(body())
        assert armed == 1
        assert still_armed
        assert timer is None
        assert left == 0

    def test_earlier_deadline_rearms_the_timer(self, drive):
        """A key due before the armed deadline pulls the timer in; a
        later one leaves it alone."""

        async def body():
            rt = make_retransmitter([], BackoffPolicy(initial=0.5))
            rt.track("late", b"x")
            first = rt._timer.when()
            rt.rtt.sample(0.001)  # RTO drops to the 20 ms floor
            rt.track("early", b"y")
            pulled_in = rt._timer.when()
            rt.rtt = rt.policy.estimator()  # back to the 0.5 s guess
            rt.track("later", b"z")
            kept = rt._timer.when()
            early = rt.entries["early"].deadline
            rt.cancel_all()
            return first, pulled_in, kept, early

        first, pulled_in, kept, early = drive(body())
        assert pulled_in < first
        assert pulled_in == early
        assert kept == pulled_in

    def test_pause_cancels_and_resume_rearms_at_earliest_deadline(self, drive):
        async def body():
            loop = asyncio.get_running_loop()
            baseline = len(pending_timers(loop))
            rt = make_retransmitter([], BackoffPolicy(initial=0.5))
            rt.track("a", b"x")
            rt.track("b", b"y")
            rt.pause()
            paused = (rt._timer, len(pending_timers(loop)) - baseline)
            rt.track("c", b"z")  # tracking while paused arms nothing
            paused_track = rt._timer
            rt.resume()
            earliest = min(e.deadline for e in rt.entries.values())
            resumed = rt._timer.when()
            rt.cancel_all()
            return paused, paused_track, earliest, resumed

        (timer, left), paused_track, earliest, resumed = drive(body())
        assert timer is None and left == 0
        assert paused_track is None
        assert resumed == earliest

    def test_early_callback_rearms_without_firing(self, drive):
        """asyncio runs a handle due within its clock resolution, so the
        callback can run before the deadline (or after an ack removed
        the entry it was armed for).  It must re-arm, never fire early."""

        async def body():
            loop = asyncio.get_running_loop()
            resends = []
            rt = make_retransmitter(resends, BackoffPolicy(initial=0.5))
            fired = []
            real_fire = rt._fire
            rt._fire = lambda now: (fired.append(now), real_fire(now))
            rt.track("k", b"x")
            deadline = rt.entries["k"].deadline
            rt._timer.cancel()
            rt._expire()  # well before the deadline
            rearmed = rt._timer.when()
            pending = len(pending_timers(loop))
            rt.cancel_all()
            return fired, resends, rearmed, deadline, pending

        fired, resends, rearmed, deadline, pending = drive(body())
        assert fired == [] and resends == []
        assert rearmed == deadline
        assert pending >= 1

    def test_track_then_ack_call_count_is_bounded(self, drive):
        """Arming on track and cancelling on the last ack stay a few
        dozen calls: no task, no event, no ``wait_for`` per packet."""

        async def body():
            rt = make_retransmitter([], BackoffPolicy(initial=0.5))

            def pairs():
                for key in range(500):
                    rt.track(key, b"x")
                    rt.ack(key)

            profiler = cProfile.Profile()
            profiler.runcall(pairs)
            profiler.create_stats()
            calls = {
                key: entry[1] for key, entry in profiler.stats.items()
                if key[2] != "pairs" and "disable" not in key[2]
            }
            return rt.acked, calls

        acked, calls = drive(body())
        assert acked == 500
        assert sum(calls.values()) <= 45 * 500
        assert not [key for key in calls if key[0].endswith("tasks.py")]

    def test_ack_below_releases_cumulatively(self, drive):
        async def body():
            policy = BackoffPolicy(initial=0.5, max_retries=3)
            rt = make_retransmitter([], policy)
            for i in range(10):
                rt.track(i, b"x")
            rt.track(("alloc", 1), b"y")  # non-int keys are untouched
            released = rt.ack_below(7)
            keys = set(rt.tracked_keys())
            rt.cancel_all()
            return released, keys

        released, keys = drive(body())
        assert released == 7
        assert keys == {7, 8, 9, ("alloc", 1)}

    def test_ack_below_finds_keys_requeued_out_of_order(self, drive):
        """Recovery re-tracks keys the wheel already dropped; they land
        behind younger keys, and a cumulative ack must still find them."""

        async def body():
            policy = BackoffPolicy(initial=0.5, max_retries=3)
            rt = make_retransmitter([], policy)
            for seq in range(3, 10):
                rt.track(seq, b"x")
            rt.requeue(1, b"y")
            rt.requeue(2, b"y")
            order = rt.tracked_keys()
            released = rt.ack_below(5)
            keys = rt.tracked_keys()
            rt.cancel_all()
            return order, released, keys, rt.acked

        order, released, keys, acked = drive(body())
        assert order == [3, 4, 5, 6, 7, 8, 9, 1, 2]
        assert released == 4 and acked == 4
        assert keys == [5, 6, 7, 8, 9]

    def test_duplicate_ack_returns_false(self, drive):
        async def body():
            policy = BackoffPolicy(initial=0.5, max_retries=3)
            rt = make_retransmitter([], policy)
            rt.track("k", b"x")
            first, second = rt.ack("k"), rt.ack("k")
            rt.cancel_all()
            return first, second

        assert drive(body()) == (True, False)

    def test_duplicate_track_rejected(self, drive):
        async def body():
            rt = make_retransmitter([], BackoffPolicy(initial=0.5))
            rt.track("k", b"x")
            try:
                with pytest.raises(ValueError):
                    rt.track("k", b"y")
            finally:
                rt.cancel_all()

        drive(body())


class TestResendFailure:
    def test_one_raising_resend_does_not_kill_the_wheel(self, drive):
        """Regression: a raised ``resend`` escaped ``_fire`` and killed
        the shared timer-wheel task — every *other* tracked key silently
        stopped retransmitting."""

        async def body():
            resends = []

            def resend(key, data):
                if key == "doomed":
                    raise OSError("transport closed under us")
                resends.append(key)

            policy = BackoffPolicy(initial=0.005, factor=1.0, max_retries=50)
            rt = Retransmitter(resend, policy=policy)
            rt.track("doomed", b"x")
            rt.track("healthy", b"y")
            # The healthy key must keep riding the wheel long after the
            # doomed key's resend raised.
            while resends.count("healthy") < 3:
                await asyncio.sleep(0.002)
            failures = dict(rt.failures)
            errors = rt.resend_errors
            tracked = set(rt.tracked_keys())
            rt.cancel_all()
            return failures, errors, tracked

        failures, errors, tracked = drive(body())
        assert set(failures) == {"doomed"}
        assert isinstance(failures["doomed"], RetransmitExhausted)
        assert isinstance(failures["doomed"].__cause__, OSError)
        assert errors == 1
        assert tracked == {"healthy"}

    def test_raising_resend_routes_through_on_give_up(self, drive):
        async def body():
            def resend(key, data):
                raise OSError("no route")

            seen = []
            policy = BackoffPolicy(initial=0.005, factor=1.0, max_retries=5)
            rt = Retransmitter(
                resend, policy=policy,
                on_give_up=lambda k, e: seen.append((k, e)),
            )
            rt.track("k", b"x")
            while not seen:
                await asyncio.sleep(0.002)
            rt.cancel_all()
            return seen, rt.failures

        seen, failures = drive(body())
        assert len(seen) == 1 and seen[0][0] == "k"
        assert failures == {}  # callback consumed it


class TestRearmClock:
    def test_rearm_reads_a_fresh_clock_after_the_resend_await(self, drive):
        """Regression: ``_fire`` re-armed deadlines from the ``now``
        captured *before* the resends, so a resend slower than the
        backoff interval left the new deadline already in the past —
        an immediate premature retransmit."""

        async def body():
            def resend(key, data):
                # Slower than the 20 ms interval: the loop clock ages
                # past now+interval while the resend runs.
                time.sleep(0.03)

            policy = BackoffPolicy(initial=0.02, factor=1.0,
                                   ceiling=10.0, max_retries=50)
            rt = Retransmitter(resend, policy=policy)
            loop = asyncio.get_running_loop()
            now = loop.time()
            rt.entries["k"] = _Tracked(data=b"x", deadline=now,
                                        first_sent=now)
            rt._fire(now)
            entry = rt.entries["k"]
            fresh = loop.time()
            rt.cancel_all()
            return entry.deadline, fresh

        deadline, fresh = drive(body())
        # Pre-fix: deadline = now + 0.02 while the clock already reads
        # now + 0.03 — expired on arrival.
        assert deadline > fresh


class TestRttEstimator:
    def test_first_sample_initialises_srtt_and_rttvar(self):
        est = RttEstimator(fallback=0.03, min_rto=0.001, max_rto=2.0)
        assert est.rto == 0.03  # pre-sample: the old fixed guess
        est.sample(0.010)
        assert est.srtt == pytest.approx(0.010)
        assert est.rttvar == pytest.approx(0.005)
        assert est.rto == pytest.approx(0.010 + 4 * 0.005)

    def test_ewma_follows_rfc6298_constants(self):
        est = RttEstimator(min_rto=0.0, max_rto=10.0)
        est.sample(0.1)
        est.sample(0.2)
        # RTTVAR = 3/4*0.05 + 1/4*|0.1-0.2|; SRTT = 7/8*0.1 + 1/8*0.2
        assert est.rttvar == pytest.approx(0.75 * 0.05 + 0.25 * 0.1)
        assert est.srtt == pytest.approx(0.875 * 0.1 + 0.125 * 0.2)

    def test_rto_clamped_to_floor_and_ceiling(self):
        est = RttEstimator(min_rto=0.02, max_rto=0.5)
        est.sample(0.0001)
        assert est.rto == 0.02
        est2 = RttEstimator(min_rto=0.02, max_rto=0.5)
        est2.sample(5.0)
        assert est2.rto == 0.5

    def test_negative_samples_ignored(self):
        est = RttEstimator()
        est.sample(-1.0)
        assert est.samples == 0 and est.srtt is None

    @settings(max_examples=200, deadline=None)
    @given(fallback=st.floats(0.001, 1.0), min_rto=st.floats(0.0, 0.5),
           max_rto=st.floats(0.01, 2.5), granularity=st.floats(0.0, 0.01),
           samples=st.lists(st.floats(-0.01, 3.0), max_size=30))
    def test_rto_matches_rfc6298_after_every_sample(
            self, fallback, min_rto, max_rto, granularity, samples):
        """``rto`` is kept current by ``sample``; it must equal RFC
        6298's RTO recomputed from scratch: the pre-sample fallback,
        then SRTT + max(G, 4*RTTVAR) clamped to [min_rto, max_rto]."""
        est = RttEstimator(fallback=fallback, min_rto=min_rto,
                           max_rto=max_rto, granularity=granularity)
        assert est.rto == fallback
        srtt, rttvar = None, 0.0
        for rtt in samples:
            est.sample(rtt)
            if rtt >= 0:
                if srtt is None:
                    srtt, rttvar = rtt, rtt / 2.0
                else:
                    rttvar = 0.75 * rttvar + 0.25 * abs(srtt - rtt)
                    srtt = 0.875 * srtt + 0.125 * rtt
            if srtt is None:
                expected = fallback
            else:
                expected = min(max(srtt + max(4.0 * rttvar, granularity),
                                   min_rto), max_rto)
            assert est.rto == expected

    def test_retransmitted_keys_do_not_sample(self, drive):
        """Karn's algorithm: a resent packet's ack is ambiguous."""

        async def body():
            policy = BackoffPolicy(initial=0.005, factor=1.0, max_retries=10)
            rt = make_retransmitter([], policy)
            rt.track("k", b"x")
            while rt.retransmissions == 0:
                await asyncio.sleep(0.002)
            rt.ack("k")
            samples_retransmitted = rt.rtt.samples
            rt.track("fresh", b"y")
            rt.ack("fresh")
            samples_fresh = rt.rtt.samples
            rt.cancel_all()
            return samples_retransmitted, samples_fresh

        assert drive(body()) == (0, 1)

    def test_sample_rtt_false_opts_out(self, drive):
        async def body():
            rt = make_retransmitter([], BackoffPolicy(initial=0.5))
            rt.track("k", b"x", sample_rtt=False)
            rt.ack("k")
            samples = rt.rtt.samples
            rt.cancel_all()
            return samples

        assert drive(body()) == 0

    def test_adaptive_rto_drives_the_schedule(self, drive):
        """After samples arrive, the wheel's intervals use the measured
        RTO, not the static initial guess."""

        async def body():
            policy = BackoffPolicy(initial=0.5, factor=1.0,
                                   ceiling=10.0, max_retries=3)
            rt = make_retransmitter([], policy)
            rt.rtt.min_rto = 0.01
            # Feed fast samples: adaptive RTO collapses to the floor.
            for _ in range(4):
                rt.track("s", b"x")
                rt.ack("s")
            assert rt.rtt.rto < 0.05
            resends = []
            rt._resend = lambda k, d: resends.append(k)
            loop = asyncio.get_running_loop()
            start = loop.time()
            rt.track("slow", b"x")
            while not resends:
                await asyncio.sleep(0.002)
            elapsed = loop.time() - start
            rt.cancel_all()
            return elapsed

        # First resend fires on the adaptive RTO (~10-50 ms), far below
        # the 500 ms static guess.
        assert drive(body()) < 0.3


class _FrozenClockLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock reads whatever the test sets."""

    now = 100.0

    def time(self):
        return self.now


def _textbook_rtt(rtts):
    """RFC 6298 over ``rtts`` one sample at a time, from scratch:
    (srtt, rttvar, samples)."""
    srtt, rttvar, samples = None, 0.0, 0
    for rtt in rtts:
        if srtt is None:
            srtt, rttvar = rtt, rtt / 2.0
        else:
            rttvar = 0.75 * rttvar + 0.25 * abs(srtt - rtt)
            srtt = 0.875 * srtt + 0.125 * rtt
        samples += 1
    return srtt, rttvar, samples


class TestBatchRelease:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), count=st.integers(0, 20),
           limit=st.integers(0, 22), ack_delay=st.floats(0.0, 0.5),
           sacks=st.lists(st.integers(0, 24), max_size=12))
    def test_fused_release_matches_one_ack_at_a_time(
            self, data, count, limit, ack_delay, sacks):
        """A cumulative ack (``ack_below``) and a selective-ack list
        (``ack_keys``) release their keys in one pass.  The estimator
        (``srtt``, ``rttvar``, ``rto``, ``samples``), the ``acked``
        counter and the tracked set end exactly where releasing the same
        keys one ``ack()`` at a time, in the same order, leaves them,
        and the estimator where the RFC 6298 textbook loop over the
        never-resent keys' round trips leaves it (Karn's rule)."""
        order = data.draw(st.permutations(list(range(count))))
        packets = [data.draw(st.tuples(st.floats(0.0, 0.05),
                                       st.sampled_from(
                                           ("fresh", "resent", "unsampled"))))
                   for _ in order]
        loop = _FrozenClockLoop()

        async def body():
            fused = make_retransmitter([], BackoffPolicy(initial=0.5))
            single = make_retransmitter([], BackoffPolicy(initial=0.5))
            sent = {}
            for key, (gap, how) in zip(order, packets):
                loop.now += gap
                sent[key] = (loop.now, how)
                for rt in (fused, single):
                    if how == "resent":
                        rt.requeue(key, b"x")   # marked retransmitted
                    else:
                        rt.track(key, b"x", sample_rtt=how == "fresh")
            loop.now += ack_delay
            cumulative = [k for k in single.tracked_keys() if k < limit]
            released = [fused.ack_below(limit),
                        sum(single.ack(k) for k in cumulative)]
            selective = [k for k in dict.fromkeys(sacks)
                         if k in single.tracked_keys()]
            released += [fused.ack_keys(sacks),
                         sum(single.ack(k) for k in sacks)]
            states = [((rt.rtt.srtt, rt.rtt.rttvar, rt.rtt.rto,
                        rt.rtt.samples), rt.acked, rt.tracked_keys())
                      for rt in (fused, single)]
            for rt in (fused, single):
                rt.cancel_all()
            rtts = [loop.now - sent[k][0] for k in cumulative + selective
                    if sent[k][1] == "fresh"]
            return released, states, rtts, fused.rtt

        try:
            released, (fused, single), rtts, estimator = \
                loop.run_until_complete(body())
        finally:
            loop.close()
        assert released[0] == released[1] and released[2] == released[3]
        assert fused == single
        assert (estimator.srtt, estimator.rttvar, estimator.samples) == \
            _textbook_rtt(rtts)
