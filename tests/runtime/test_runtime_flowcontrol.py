"""Tests for credit-based flow control: window state machines, the
blocked/unblocked sender path, lost-grant healing, overload shedding,
and credit survival through a chaos partition."""

import asyncio
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.attribution import Feature
from repro.protocols.sequencing import ReorderWindow, SequenceError

from repro.runtime import (
    CHAOS,
    BackpressureSignal,
    FlowControlConfig,
    LoadConfig,
    ReceiverWindow,
    SenderWindow,
    credit_words,
    open_live_channel,
    parse_credit_words,
    run_load,
)
from repro.runtime.frames import Frame, FrameKind
from repro.runtime.protocols import OrderedChannelReceiver
from repro.runtime.reliability import BackoffPolicy
from repro.runtime.spans import TimeAttribution
from repro.runtime.tracing import NULL_TRACER, Counters

FAST = BackoffPolicy(initial=0.01, factor=1.5, ceiling=0.1, max_retries=12)

#: A window small enough that any sustained transfer must exhaust it.
TINY = FlowControlConfig(window_bytes=128, window_msgs=4,
                         probe_interval=0.02)


async def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(0.005)


class TestConfigAndWire:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowControlConfig(window_bytes=0)
        with pytest.raises(ValueError):
            FlowControlConfig(window_msgs=0)
        with pytest.raises(ValueError):
            FlowControlConfig(low_watermark_frac=1.5)
        with pytest.raises(ValueError):
            FlowControlConfig(soft_fraction=0.05, hard_fraction=0.15)
        with pytest.raises(ValueError):
            FlowControlConfig(refresh_every=0)
        with pytest.raises(ValueError):
            FlowControlConfig(probe_interval=0.0)

    def test_credit_words_round_trip_past_32_bits(self):
        granted_bytes = (7 << 40) + 12345
        granted_msgs = (3 << 33) + 99
        words = credit_words(granted_bytes, granted_msgs)
        assert len(words) == 4
        assert all(0 <= w <= 0xFFFFFFFF for w in words)
        assert parse_credit_words(words) == (granted_bytes, granted_msgs)

    def test_parse_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            parse_credit_words((1, 2, 3))


class TestReceiverWindow:
    def test_initial_grant_is_one_window(self):
        win = ReceiverWindow(FlowControlConfig(window_bytes=1000,
                                               window_msgs=10))
        assert win.outstanding_bytes == 1000
        assert win.outstanding_msgs == 10
        assert win.in_buffer_bytes == 0

    def test_low_watermark_triggers_update(self):
        win = ReceiverWindow(FlowControlConfig(
            window_bytes=1000, window_msgs=100, low_watermark_frac=0.25,
            refresh_every=10_000))
        # Consume down to 300 outstanding: still above the 250 watermark.
        assert win.on_data(700) is False
        # Crossing under the watermark arms the advertisement.
        assert win.on_data(100) is True
        assert win.update_due

    def test_advertise_grants_released_plus_window_and_clears_due(self):
        win = ReceiverWindow(FlowControlConfig(
            window_bytes=1000, window_msgs=100, refresh_every=10_000))
        win.on_data(800)
        win.on_deliver(500)
        granted_bytes, granted_msgs = win.advertise()
        # Never promise past physical capacity: released + one window.
        assert granted_bytes == 500 + 1000
        assert granted_msgs == 1 + 100
        assert not win.update_due
        # Grants are monotone: a second advertisement never shrinks.
        again_bytes, again_msgs = win.advertise()
        assert again_bytes >= granted_bytes
        assert again_msgs >= granted_msgs

    def test_refresh_cadence_forces_periodic_update(self):
        win = ReceiverWindow(FlowControlConfig(
            window_bytes=1 << 20, window_msgs=1 << 20, refresh_every=4))
        assert [win.on_data(4) for _ in range(4)] == [
            False, False, False, True]

    def test_overrun_counted_never_raised(self):
        win = ReceiverWindow(FlowControlConfig(window_bytes=100,
                                               window_msgs=2))
        win.on_data(60)
        win.on_data(60)   # past the byte grant
        win.on_data(60)   # past the message grant too
        assert win.overruns >= 2

    def test_peak_occupancy_tracks_high_water(self):
        win = ReceiverWindow(FlowControlConfig(window_bytes=1000,
                                               window_msgs=100))
        win.on_data(300)
        win.on_data(300)
        win.on_deliver(600)
        win.on_data(100)
        assert win.peak_buffered_bytes == 600
        assert win.in_buffer_bytes == 100

    def test_crash_releases_occupancy_and_forces_readvertise(self):
        win = ReceiverWindow(FlowControlConfig(window_bytes=1000,
                                               window_msgs=100))
        win.on_data(400)
        assert win.in_buffer_bytes == 400
        win.on_crash()
        assert win.in_buffer_bytes == 0
        assert win.update_due


class _CreditModel:
    """Reference credit windows: both sides kept as plain cumulative
    totals, every derived quantity recomputed from them with the
    textbook formulas (``max`` merges, ``max`` peaks)."""

    def __init__(self, cfg: FlowControlConfig) -> None:
        self.cfg = cfg
        self.limit = [cfg.window_bytes, cfg.window_msgs]
        self.used = [0, 0]
        self.credit_set = True
        self.granted = [cfg.window_bytes, cfg.window_msgs]
        self.consumed = [0, 0]
        self.released = [0, 0]
        self.peak = [0, 0]
        self.overruns = 0
        self.arrivals = 0
        self.due = False

    def available(self, i):
        return self.limit[i] - self.used[i]

    def can_send(self, nbytes):
        return self.available(0) >= nbytes and self.available(1) >= 1

    def outstanding(self, i):
        return self.granted[i] - self.consumed[i]

    def in_buffer(self, i):
        return self.consumed[i] - self.released[i]

    def consume(self, nbytes):
        self.used = [self.used[0] + nbytes, self.used[1] + 1]
        if not self.can_send(1):
            self.credit_set = False

    def apply(self, granted_bytes, granted_msgs):
        raised = granted_bytes > self.limit[0] or granted_msgs > self.limit[1]
        self.limit = [max(self.limit[0], granted_bytes),
                      max(self.limit[1], granted_msgs)]
        if self.can_send(1):
            self.credit_set = True
        return raised

    def on_data(self, nbytes):
        self.consumed = [self.consumed[0] + nbytes, self.consumed[1] + 1]
        if self.outstanding(0) < 0 or self.outstanding(1) < 0:
            self.overruns += 1
        self.peak = [max(self.peak[i], self.in_buffer(i)) for i in (0, 1)]
        self.arrivals += 1
        cfg = self.cfg
        if self.arrivals % cfg.refresh_every == 0:
            self.due = True
        if (self.outstanding(0) < cfg.low_watermark_frac * cfg.window_bytes
                or self.outstanding(1) < cfg.low_watermark_frac * cfg.window_msgs):
            self.due = True
        return self.due

    def on_deliver(self, nbytes):
        self.released = [self.released[0] + nbytes, self.released[1] + 1]

    def arrival(self, nbytes, run):
        """A reorder buffer's arrival, the unfused way: release each
        packet of the run it let through, then admit it."""
        for released in run:
            self.on_deliver(released)
        return self.on_data(nbytes)

    def passthrough(self, nbytes):
        """A CR arrival, the unfused way: admit, then release."""
        due = self.on_data(nbytes)
        self.on_deliver(nbytes)
        return due

    def advertise(self):
        window = (self.cfg.window_bytes, self.cfg.window_msgs)
        self.granted = [max(self.granted[i], self.released[i] + window[i])
                        for i in (0, 1)]
        self.due = False
        return tuple(self.granted)


_WINDOW_OPS = st.lists(st.one_of(
    st.tuples(st.just("consume"), st.integers(0, 600)),
    st.tuples(st.just("fill")),   # consume exactly the bytes left
    st.tuples(st.just("apply"), st.integers(0, 4000), st.integers(0, 40)),
    st.tuples(st.just("on_data"), st.integers(0, 600)),
    st.tuples(st.just("on_deliver"), st.integers(0, 600)),
    st.tuples(st.just("advertise")),
), max_size=60)

_ARRIVAL_OPS = st.lists(st.one_of(
    st.tuples(st.just("arrival"), st.integers(0, 600),
              st.lists(st.integers(0, 600), max_size=5)),
    st.tuples(st.just("passthrough"), st.integers(0, 600)),
    st.tuples(st.just("on_data"), st.integers(0, 600)),
    st.tuples(st.just("on_deliver"), st.integers(0, 600)),
    st.tuples(st.just("advertise")),
), max_size=60)

_WINDOW_CONFIGS = st.builds(
    FlowControlConfig, window_bytes=st.integers(1, 3000),
    window_msgs=st.integers(1, 20), low_watermark_frac=st.floats(0.05, 0.95),
    refresh_every=st.integers(1, 10))


class TestWindowsMatchReferenceModel:
    @settings(max_examples=300, deadline=None)
    @given(cfg=_WINDOW_CONFIGS, ops=_WINDOW_OPS)
    def test_random_operation_sequences(self, cfg, ops):
        """Over any sequence of consume/apply (sender) and on_data/
        on_deliver/advertise (receiver), exact fits included, the
        windows agree with the reference model: return values, derived
        properties, peaks, overruns, the pending-update flag and the
        sender's credit event."""
        tx, rx, model = SenderWindow(cfg), ReceiverWindow(cfg), _CreditModel(cfg)
        for name, *args in ops:
            if name == "fill":
                name, args = "consume", [max(model.available(0), 0)]
            assert getattr(tx if name in ("consume", "apply") else rx,
                           name)(*args) == getattr(model, name)(*args)
            probe = args[0] if args else 0
            assert (tx.limit_bytes, tx.limit_msgs) == tuple(model.limit)
            assert (tx.used_bytes, tx.used_msgs) == tuple(model.used)
            assert (tx.available_bytes, tx.available_msgs) == (
                model.available(0), model.available(1))
            for nbytes in (0, 1, probe):
                assert tx.can_send(nbytes) == model.can_send(nbytes)
            if probe:
                hard = tx.signal(probe) is BackpressureSignal.HARD
                assert hard == (not model.can_send(probe))
            assert tx._credit.is_set() == model.credit_set
            _assert_receiver_matches(rx, model)

    @settings(max_examples=300, deadline=None)
    @given(cfg=_WINDOW_CONFIGS, ops=_ARRIVAL_OPS)
    def test_fused_arrivals_match_deliver_then_data(self, cfg, ops):
        """One ``on_data`` call per arrival — releasing the run a
        reorder buffer let through before admitting (cm5), or
        admitting then releasing at once (``delivered=True``, CR) —
        leaves the receiver exactly where ``on_deliver`` per released
        packet around a bare ``on_data`` leaves the reference model:
        return values, grants, peaks, overruns and the pending flag."""
        rx, model = ReceiverWindow(cfg), _CreditModel(cfg)
        for name, *args in ops:
            if name == "arrival":
                nbytes, run = args
                got = rx.on_data(nbytes, sum(run), len(run))
            elif name == "passthrough":
                got = rx.on_data(args[0], delivered=True)
            else:
                got = getattr(rx, name)(*args)
            assert got == getattr(model, name)(*args)
            _assert_receiver_matches(rx, model)


def _assert_receiver_matches(rx, model):
    """Every receiver-side quantity equals the reference model's."""
    assert (rx.granted_bytes, rx.granted_msgs) == tuple(model.granted)
    assert (rx.consumed_bytes, rx.consumed_msgs) == tuple(model.consumed)
    assert (rx.released_bytes, rx.released_msgs) == tuple(model.released)
    assert (rx.outstanding_bytes, rx.outstanding_msgs) == (
        model.outstanding(0), model.outstanding(1))
    assert (rx.in_buffer_bytes, rx.in_buffer_msgs) == (
        model.in_buffer(0), model.in_buffer(1))
    assert (rx.peak_buffered_bytes, rx.peak_buffered_msgs) == tuple(
        model.peak)
    assert rx.overruns == model.overruns
    assert rx.update_due == model.due


class _StubTimer:
    def __init__(self, callback, args):
        self.callback, self.args, self.cancelled = callback, args, False

    def cancel(self):
        self.cancelled = True


class _StubTimers:
    """A wheel that only hands back what is armed: the test fires it."""

    def call_at(self, _when, callback, *args):
        return _StubTimer(callback, args)


class _StubEndpoint:
    """What an ordered-channel receiver uses of its endpoint, with every
    posted frame kept in order."""

    def __init__(self, cr_mode: bool) -> None:
        self.cr_mode = cr_mode
        self.name = "rx"
        self.attribution = TimeAttribution()
        self.tracer = NULL_TRACER
        self.counters = Counters()
        self.timers = _StubTimers()
        self.posted = []

    def bind(self, channel, handler):
        pass

    def unbind(self, channel):
        pass

    def post_frame(self, dst, frame, feature=Feature.BASE):
        self.posted.append(frame)


def _receiver(cfg, cr_mode, window, ack_every):
    endpoint = _StubEndpoint(cr_mode)
    delivered = []
    receiver = OrderedChannelReceiver(
        endpoint, window=window, ack_every=ack_every, flow=cfg,
        deliver=lambda seq, payload: delivered.append((seq, payload)))
    return receiver, endpoint, delivered


def _fire_delayed_ack(receiver):
    """Time passes between datagrams: an armed delayed ack goes out."""
    handle = receiver._ack_handle
    if handle is not None and not handle.cancelled:
        handle.callback(*handle.args)


def _cut(frames, lengths):
    """``frames`` cut into consecutive runs of the given lengths (the
    rest, if any, as one last run)."""
    runs, start = [], 0
    for length in lengths:
        if start >= len(frames):
            break
        runs.append(frames[start:start + length])
        start += length
    if start < len(frames):
        runs.append(frames[start:])
    return runs


_RUN_CONFIGS = st.builds(
    FlowControlConfig, window_bytes=st.integers(1, 400),
    window_msgs=st.integers(1, 12), low_watermark_frac=st.floats(0.05, 0.95),
    refresh_every=st.integers(1, 10))


class TestRunsMatchFramesAtATime:
    """A receiver handed a datagram's frames one run at a time ends
    every run where frame-at-a-time delivery of the same arrivals ends
    it, on both kinds of ordered channel.  Arrival orders are random,
    with duplicates, reorder-window overflows and packets sent past the
    grant; runs are cut at random, and the delayed-ack timer fires
    between some runs and not others.

    Per-packet ledger quantities that depend on when grants go out
    (overruns, the pending flag) are checked against the reference
    credit model fed one packet at a time, advertising exactly where
    the run path did; the frame path may advertise in mid-run."""

    @settings(max_examples=200, deadline=None)
    @given(cfg=_RUN_CONFIGS,
           seqs=st.lists(st.integers(0, 24), max_size=60),
           sizes=st.lists(st.integers(0, 6), min_size=25, max_size=25),
           lengths=st.lists(st.integers(1, 9), max_size=60),
           fires=st.lists(st.booleans(), min_size=60, max_size=60),
           window=st.integers(2, 12), ack_every=st.integers(1, 9))
    def test_cm5_runs_match_frames(self, cfg, seqs, sizes, lengths, fires,
                                   window, ack_every):
        asyncio.run(self._cm5(cfg, seqs, sizes, lengths, fires, window,
                              ack_every))

    async def _cm5(self, cfg, seqs, sizes, lengths, fires, window,
                   ack_every):
        frames = [Frame(FrameKind.DATA, 3, seq, 0, tuple(range(sizes[seq])))
                  for seq in seqs]
        by_run, run_ep, run_out = _receiver(cfg, False, window, ack_every)
        by_frame, frame_ep, frame_out = _receiver(cfg, False, window,
                                                  ack_every)
        advertised = _count_advertisements(by_run.flow)
        model, reorder = _CreditModel(cfg), ReorderWindow(window=window)
        counted = 0
        for run, fire in zip(_cut(frames, lengths), fires):
            before = advertised[0]
            posted = len(run_ep.posted)
            duplicates = by_run.reorder.duplicates
            by_run._on_frame(run, "src")
            acked = [f for f in run_ep.posted[posted:]
                     if f.kind is FrameKind.CUM_ACK]
            # At most one ack per run, covering all of it; a duplicate
            # in the run sends it at once.
            assert len(acked) <= 1
            assert all(f.seq == by_run.reorder.expected for f in acked)
            if by_run.reorder.duplicates > duplicates:
                assert acked
            for frame in run:
                by_frame._on_frame([frame], "src")
            if fire:
                _fire_delayed_ack(by_run)
                _fire_delayed_ack(by_frame)
            # The run path advertises only after its run's ledger call.
            for frame in run:
                counted += _model_arrival(model, reorder, frame)
            for _ in range(advertised[0] - before):
                model.advertise()
            assert run_out == frame_out
            for name in ("expected", "duplicates", "ooo_accepted",
                         "parked_peak", "parked_now"):
                assert (getattr(by_run.reorder, name)
                        == getattr(by_frame.reorder, name)), name
            assert by_run.reorder.expected == reorder.expected
            assert by_run._parked == by_frame._parked
            _assert_same_ledger(by_run.flow, by_frame.flow)
            _assert_receiver_matches(by_run.flow, model)
            assert by_run.arrivals == by_frame.arrivals
            assert (by_run.counters["window_overflows"]
                    == by_frame.counters["window_overflows"])
            acks_run = [f for f in run_ep.posted if f.kind is FrameKind.CUM_ACK]
            acks_frame = [f for f in frame_ep.posted
                          if f.kind is FrameKind.CUM_ACK]
            assert len(acks_run) <= len(acks_frame)
            if fire and counted:
                # Both have acked their whole state: the same cumulative
                # point, selective acks and grant.
                assert acks_run[-1] == acks_frame[-1]
                assert by_run.flow.granted_bytes == by_frame.flow.granted_bytes
                assert by_run.flow.granted_msgs == by_frame.flow.granted_msgs

    @settings(max_examples=200, deadline=None)
    @given(cfg=_RUN_CONFIGS,
           sizes=st.lists(st.integers(0, 6), max_size=60),
           lengths=st.lists(st.integers(1, 9), max_size=60))
    def test_cr_runs_match_frames(self, cfg, sizes, lengths):
        asyncio.run(self._cr(cfg, sizes, lengths))

    async def _cr(self, cfg, sizes, lengths):
        frames = [Frame(FrameKind.DATA, 3, seq, 0, tuple(range(size)))
                  for seq, size in enumerate(sizes)]
        by_run, run_ep, run_out = _receiver(cfg, True, 256, 8)
        by_frame, frame_ep, frame_out = _receiver(cfg, True, 256, 8)
        advertised = _count_advertisements(by_run.flow)
        model = _CreditModel(cfg)
        for run in _cut(frames, lengths):
            before = advertised[0]
            by_run._on_frame(run, "src")
            for frame in run:
                by_frame._on_frame([frame], "src")
            for frame in run:
                model.passthrough(len(frame.payload) * 4)
            for _ in range(advertised[0] - before):
                model.advertise()
            assert run_out == frame_out == [(f.seq, f.payload)
                                            for f in frames[:len(run_out)]]
            _assert_same_ledger(by_run.flow, by_frame.flow)
            _assert_receiver_matches(by_run.flow, model)
            updates_run = len(run_ep.posted)
            assert updates_run <= len(frame_ep.posted)
        assert len(run_out) == len(frames)


def _count_advertisements(flow):
    """Count ``flow.advertise()`` calls in a one-item list."""
    count = [0]
    advertise = flow.advertise

    def counted():
        count[0] += 1
        return advertise()

    flow.advertise = counted
    return count


def _model_arrival(model, reorder, frame):
    """Feed one frame to the reference reorder buffer and credit model,
    one packet at a time; returns 1 when the frame reaches the ack
    decision (it did not overflow the window)."""
    duplicates = reorder.duplicates
    try:
        run = reorder.accept(frame.seq, frame.payload)
    except SequenceError:
        return 0
    if run or reorder.duplicates == duplicates:
        model.arrival(len(frame.payload) * 4,
                      [len(payload) * 4 for _seq, payload in run])
    return 1


def _assert_same_ledger(a, b):
    """What does not depend on when grants go out is the same."""
    assert (a.consumed_bytes, a.consumed_msgs) == (b.consumed_bytes,
                                                   b.consumed_msgs)
    assert (a.released_bytes, a.released_msgs) == (b.released_bytes,
                                                   b.released_msgs)
    assert (a.peak_buffered_bytes, a.peak_buffered_msgs) == (
        b.peak_buffered_bytes, b.peak_buffered_msgs)


class TestSenderWindow:
    def test_signal_thresholds(self):
        flow = SenderWindow(FlowControlConfig(
            window_bytes=1000, window_msgs=1000,
            soft_fraction=0.15, hard_fraction=0.05))
        assert flow.signal() is BackpressureSignal.OK
        flow.consume(860)
        assert flow.signal() is BackpressureSignal.SOFT
        flow.consume(100)
        assert flow.signal() is BackpressureSignal.HARD

    def test_signal_hard_when_next_send_cannot_fit(self):
        flow = SenderWindow(FlowControlConfig(window_bytes=1000,
                                              window_msgs=1000))
        flow.consume(500)
        assert flow.signal(next_bytes=400) is BackpressureSignal.OK
        assert flow.signal(next_bytes=600) is BackpressureSignal.HARD

    def test_exact_fit_send_is_ok_not_hard(self):
        """A send that exactly equals the remaining credit fits — the
        signal must say OK even when the leftover fraction is under the
        HARD threshold (the fraction is advice; the fit is a fact)."""
        flow = SenderWindow(FlowControlConfig(
            window_bytes=1000, window_msgs=1000,
            soft_fraction=0.15, hard_fraction=0.05))
        flow.consume(960)   # 40 bytes left: frac 0.04 <= hard_fraction
        assert flow.signal() is BackpressureSignal.HARD  # advisory view
        assert flow.signal(next_bytes=40) is BackpressureSignal.OK
        assert flow.signal(next_bytes=41) is BackpressureSignal.HARD

    def test_bytes_exhausted_but_messages_free_is_hard(self):
        flow = SenderWindow(FlowControlConfig(window_bytes=100,
                                              window_msgs=1000))
        flow.consume(100)
        assert flow.available_msgs > 0
        assert flow.signal(next_bytes=4) is BackpressureSignal.HARD

    def test_messages_exhausted_but_bytes_free_is_hard(self):
        flow = SenderWindow(FlowControlConfig(window_bytes=100_000,
                                              window_msgs=2))
        flow.consume(4)
        flow.consume(4)
        assert flow.available_bytes > 0
        assert flow.signal(next_bytes=4) is BackpressureSignal.HARD
        # The last message slot plus fitting bytes is still a fit.
        flow.apply(100_000, 3)
        assert flow.signal(next_bytes=4) is BackpressureSignal.OK

    def test_apply_is_max_merge_idempotent(self):
        flow = SenderWindow(FlowControlConfig(window_bytes=1000,
                                              window_msgs=10))
        assert flow.apply(5000, 50) is True
        # Stale and duplicate advertisements are harmless no-ops.
        assert flow.apply(4000, 40) is False
        assert flow.apply(5000, 50) is False
        assert (flow.limit_bytes, flow.limit_msgs) == (5000, 50)

    def test_lost_update_healed_by_any_later_advertisement(self):
        # The receiver advertises G1 < G2 < G3; G2 is lost on the wire.
        receiver = ReceiverWindow(FlowControlConfig(window_bytes=1000,
                                                    window_msgs=100))
        grants = []
        for _ in range(3):
            receiver.on_data(200)
            receiver.on_deliver(200)
            grants.append(receiver.advertise())
        healed = SenderWindow(FlowControlConfig(window_bytes=1000,
                                                window_msgs=100))
        healed.apply(*grants[0])
        healed.apply(*grants[2])          # G2 never arrives
        complete = SenderWindow(FlowControlConfig(window_bytes=1000,
                                                  window_msgs=100))
        for grant in grants:
            complete.apply(*grant)
        assert healed.limit_bytes == complete.limit_bytes
        assert healed.limit_msgs == complete.limit_msgs

    def test_grant_wait_times_out_without_credit(self, drive):
        async def body():
            flow = SenderWindow(FlowControlConfig(window_bytes=100,
                                                  window_msgs=2))
            flow.consume(100)
            assert not flow.can_send(4)
            assert await flow.grant_wait(4, timeout=0.02) is False

        drive(body())


class TestLiveChannelFlow:
    def test_exhaustion_blocks_then_unblocks(self, drive, two_peers):
        """A transfer much larger than the credit window must stall at
        least once and still complete once grants flow back."""

        async def body():
            fabric, src, dst = await two_peers("cm5")
            try:
                channel = open_live_channel(
                    src, dst, packet_words=8, backoff=FAST,
                    ack_every=1, ack_delay=0.001, flow=TINY,
                )
                words = list(range(400))
                await channel.send(words)
                await channel.drain()
                await wait_until(
                    lambda: len(channel.receive_buffer) >= len(words))
                assert channel.receive_buffer.read() == words
                counters = src.counters
                assert counters.get("stream_tx.flow.blocked") >= 1
                assert counters.get("stream_tx.flow.blocked_ns") > 0
                assert counters.get("stream_tx.flow.updates_applied") >= 1
                await channel.close()
            finally:
                await fabric.close()

        drive(body())

    def test_starved_sender_probes_until_the_receiver_readvertises(
            self, drive, two_peers):
        """A cm5 sender whose grants were all lost, with nothing in
        flight to elicit an ack, posts CREDIT_UPDATE probes until the
        receiver's answer re-opens its window."""

        async def body():
            fabric, src, dst = await two_peers("cm5")
            try:
                channel = open_live_channel(
                    src, dst, packet_words=8, backoff=FAST,
                    ack_every=1, ack_delay=0.001, flow=TINY,
                )
                flow = channel.sender.flow
                # Lose every grant: the acks arrive, the credit does not.
                flow.apply = lambda granted_bytes, granted_msgs: False
                # One window's worth: TINY.window_msgs packets of 32 B.
                words = list(range(8 * TINY.window_msgs))
                await channel.send(words)
                await channel.drain()
                assert channel.outstanding == 0
                assert not flow.can_send(4)
                del flow.apply            # grants land again
                await asyncio.wait_for(channel.send([7]), 10.0)
                await wait_until(
                    lambda: len(channel.receive_buffer) > len(words))
                assert channel.receive_buffer.read() == words + [7]
                assert channel.sender.counters.get("flow.probes") >= 1
                assert channel.receiver.counters.get("flow.probes_rx") >= 1
                await channel.close()
            finally:
                await fabric.close()

        drive(body())

    def test_cr_mode_meters_credit_with_standalone_updates(
            self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cr")
            try:
                channel = open_live_channel(
                    src, dst, packet_words=8, flow=TINY,
                )
                words = list(range(400))
                await channel.send(words)
                await wait_until(
                    lambda: len(channel.receive_buffer) >= len(words))
                assert channel.receive_buffer.read() == words
                # CR has no acks to piggyback on: every top-up is a
                # standalone CREDIT_UPDATE datagram.
                assert dst.credit_frames_sent >= 1
                assert src.counters.get(
                    "stream_tx.flow.updates_applied") >= 1
                await channel.close()
            finally:
                await fabric.close()

        drive(body())

    def test_flow_signal_surface(self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cr")
            try:
                metered = open_live_channel(
                    src, dst, packet_words=8, flow=TINY)
                assert metered.flow_signal() is BackpressureSignal.OK
                # Asking about a send bigger than the whole window is
                # HARD by construction.
                assert (metered.flow_signal(next_bytes=10_000)
                        is BackpressureSignal.HARD)
                await metered.close()
            finally:
                await fabric.close()

        drive(body())

    def test_unmetered_channel_is_always_ok(self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cr")
            try:
                channel = open_live_channel(src, dst,
                                            packet_words=8)
                assert channel.flow_signal() is BackpressureSignal.OK
                assert (channel.flow_signal(next_bytes=1 << 30)
                        is BackpressureSignal.OK)
                await channel.send(list(range(64)))
                await wait_until(lambda: len(channel.receive_buffer) >= 64)
                await channel.close()
            finally:
                await fabric.close()

        drive(body())


class TestOverloadAudit:
    def test_shed_messages_never_audited_as_delivered(self, drive):
        """HARD-shed messages are counted and excluded *before* ledger
        stamping, so the exactly-once audit stays exact: everything sent
        is delivered, nothing shed ever shows up as delivered."""

        async def body():
            # Two whole packets per message (31 words plus the length
            # prefix, 16-word packets): a sender that fills its 16-packet
            # credit window does so at a message boundary, so its next
            # offer reads HARD and is shed, whenever the grant comes.
            config = LoadConfig(
                peers=2, channels=4, messages=8, message_words=31,
                overload=10.0, audit=True, seed=11,
                flow=FlowControlConfig(window_bytes=2048, window_msgs=16),
            )
            result = await run_load(config)
            assert result.completed, result.errors
            assert result.messages_shed > 0
            assert result.messages_offered == (
                result.messages_sent + result.messages_shed)
            assert result.messages_delivered == result.messages_sent
            assert result.audit is not None and result.audit.clean
            # Sanity on the derived shares the bench gates consume.
            assert 0.0 < result.shed_share < 1.0
            assert result.flow_control_share > 0.0

        drive(body())

    def test_overload_peaks_bounded_by_advertised_windows(self, drive):
        async def body():
            config = LoadConfig(
                peers=2, channels=4, messages=8, message_words=32,
                overload=10.0, audit=True, seed=11,
            )
            result = await run_load(config)
            assert result.completed, result.errors
            peaks = result.peaks
            assert peaks["buffered_bytes"] <= peaks["window_bytes"]
            assert peaks["reorder_parked"] <= peaks["reorder_window"]
            assert peaks["tracked"] <= peaks["send_window"]

        drive(body())


class TestChaosCreditRecovery:
    def test_partition_starves_credit_then_heals_clean(self, drive):
        """The overload-partition scenario: a partition eats the credit
        grants mid-traffic; after the heal every blocked sender must
        recover its credit state (piggyback, refresh, or probe) and the
        end-to-end audit must come back exactly-once clean."""

        async def body():
            config = replace(CHAOS, mode="cm5", peers=4, channels=4,
                             messages=20)
            result = await run_load(config, scenario="overload-partition")
            assert result.completed, result.errors
            assert result.audit.clean
            assert not result.broken_lanes
            # The credit machinery demonstrably ran: grants crossed the
            # wire and the flow bucket accrued measurable time.
            assert result.wire.get("flow.credits_granted", 0) > 0
            assert result.flow_control_share > 0.0

        drive(body(), timeout=30.0)
