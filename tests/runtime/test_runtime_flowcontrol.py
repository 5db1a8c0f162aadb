"""Tests for credit-based flow control: window state machines, the
blocked/unblocked sender path, lost-grant healing, overload shedding,
and credit survival through a chaos partition."""

import asyncio
from dataclasses import replace

import pytest

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
from repro.runtime.reliability import BackoffPolicy

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

    def test_grant_worthwhile_suppresses_slivers(self):
        win = ReceiverWindow(FlowControlConfig(
            window_bytes=1000, window_msgs=100, grant_chunk_frac=0.5,
            refresh_every=10_000))
        win.on_data(300)
        win.on_deliver(100)   # would move the grant by only 100 < 500
        assert not win.grant_worthwhile()
        win.on_deliver(200)
        win.on_data(500)      # outstanding 200 < 250 => due wins regardless
        assert win.grant_worthwhile()


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

    def test_wait_for_credit_probes_until_granted(self, drive):
        async def body():
            flow = SenderWindow(FlowControlConfig(
                window_bytes=100, window_msgs=2, probe_interval=0.01))
            flow.consume(100)
            probed = asyncio.Event()

            async def probe():
                # The receiver's answer to a probe: a fresh full-state
                # advertisement, modeled here as a direct apply.
                probed.set()
                flow.apply(300, 10)

            probes = await flow.wait_for_credit(4, probe=probe)
            assert probed.is_set()
            assert probes >= 1
            assert flow.can_send(4)

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
            config = LoadConfig(
                peers=2, channels=4, messages=8, message_words=32,
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
