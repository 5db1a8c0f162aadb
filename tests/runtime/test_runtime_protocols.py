"""End-to-end tests for the live protocol ports.

Each protocol runs over (a) a clean loopback, (b) a loopback injecting
drops/reordering/duplication — exercising the retransmit path — and
(c) a CR-mode loopback, where the overhead machinery must disappear
from the measured attribution.
"""

import asyncio

import pytest

from repro.arch.attribution import Feature
from repro.runtime import (
    BackoffPolicy,
    Fabric,
    Frame,
    FrameKind,
    ChannelBroken,
    ProtocolFailure,
    run_bulk_live,
    run_ordered_live,
    run_single_packet_live,
)
from repro.runtime.protocols import (
    BulkReceiver,
    BulkSender,
    OrderedChannelReceiver,
    OrderedChannelSender,
    SinglePacketReceiver,
    SinglePacketSender,
)

#: Fast backoff for fault tests: recover in milliseconds.
FAST = BackoffPolicy(initial=0.01, factor=1.5, ceiling=0.1, max_retries=12)

RUNNERS = {
    "single": run_single_packet_live,
    "finite": run_bulk_live,
    "indefinite": run_ordered_live,
}


def run_protocol(drive, protocol, mode="cm5", message_words=256, **faults):
    async def body():
        fabric = Fabric(mode, **faults)
        src = await fabric.add_peer("src")
        dst = await fabric.add_peer("dst")
        try:
            return await RUNNERS[protocol](
                src, dst, fabric,
                message_words=message_words, deadline=15.0, backoff=FAST
            )
        finally:
            await fabric.close()

    return drive(body())


@pytest.mark.parametrize("protocol", sorted(RUNNERS))
class TestCleanPath:
    def test_completes_in_order(self, drive, protocol):
        result = run_protocol(drive, protocol, reorder_rate=0.0)
        assert result.completed
        assert result.delivered_words == list(range(1, 257))
        assert result.retransmissions == 0

    def test_reordering_alone_is_recovered_without_retransmission(
            self, drive, protocol):
        # Reorder delay (2 ms) is far below the first timeout (10 ms), so
        # ordering machinery — not fault tolerance — does the recovery.
        result = run_protocol(drive, protocol, reorder_rate=0.3)
        assert result.completed
        assert result.delivered_words == list(range(1, 257))

    def test_attribution_buckets_populated(self, drive, protocol):
        result = run_protocol(drive, protocol, reorder_rate=0.25)
        breakdown = result.breakdown()
        assert breakdown.row(Feature.BASE).total_ns > 0
        assert breakdown.row(Feature.FAULT_TOLERANCE).total_ns > 0
        assert result.total_ns == breakdown.total_ns


@pytest.mark.parametrize("protocol", sorted(RUNNERS))
class TestFaultRecovery:
    def test_survives_drops(self, drive, protocol):
        # 1024 words: coalescing packs ~14 small frames per container
        # datagram, so a bigger message keeps the seeded fault pattern
        # actually injecting drops at datagram granularity.
        result = run_protocol(
            drive, protocol, message_words=1024,
            drop_rate=0.15, reorder_rate=0.25, seed=11,
        )
        assert result.completed
        assert result.delivered_words == list(range(1, 1025))
        assert result.drops_injected > 0
        assert result.retransmissions > 0

    def test_absorbs_duplicates(self, drive, protocol):
        result = run_protocol(
            drive, protocol, dup_rate=0.2, reorder_rate=0.0, seed=3,
        )
        assert result.completed
        assert result.delivered_words == list(range(1, 257))


@pytest.mark.parametrize("protocol", sorted(RUNNERS))
class TestCRMode:
    def test_completes_with_zero_overhead_time(self, drive, protocol):
        result = run_protocol(drive, protocol, mode="cr")
        assert result.completed
        assert result.delivered_words == list(range(1, 257))
        breakdown = result.breakdown()
        # The network provides ordering and reliability, so the runtime
        # never enters the in-order or fault-tolerance machinery at all —
        # the Figure 6 collapse, measured rather than modeled.
        assert breakdown.row(Feature.IN_ORDER).total_ns == 0
        assert breakdown.row(Feature.FAULT_TOLERANCE).total_ns == 0
        assert breakdown.row(Feature.BASE).total_ns > 0
        assert result.retransmissions == 0

    def test_collapse_direction_vs_cm5(self, drive, protocol):
        faulty = run_protocol(
            drive, protocol, drop_rate=0.05, reorder_rate=0.25,
        )
        clean = run_protocol(drive, protocol, mode="cr")
        cm5_share = faulty.breakdown().ordering_plus_fault_share()
        cr_share = clean.breakdown().ordering_plus_fault_share()
        assert cm5_share > 0.05
        assert cr_share == 0.0

    def test_cr_run_leaves_fault_stats_clean(self, drive, protocol, two_peers):
        """A CR run must inject nothing: dropped/duplicated/reordered/
        blackholed all stay zero on the hub."""

        async def body():
            fabric, src, dst = await two_peers("cr")
            try:
                result = await RUNNERS[protocol](
                    src, dst, fabric,
                    message_words=128, deadline=15.0, backoff=FAST
                )
                return result.completed, fabric.hub.wire_counters()
            finally:
                await fabric.close()

        completed, stats = drive(body())
        assert completed
        assert stats["delivered"] > 0
        assert (stats["dropped"], stats["duplicated"], stats["reordered"],
                stats["blackholed"]) == (0, 0, 0, 0)


class TestGiveUp:
    def test_unreachable_destination_fails_fast(self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cm5", drop_rate=1.0,
                                               reorder_rate=0.0)
            sender = SinglePacketSender(
                src, dst.local_address,
                backoff=BackoffPolicy(initial=0.005, max_retries=3),
            )
            SinglePacketReceiver(dst)
            try:
                with pytest.raises(ProtocolFailure):
                    await sender.send([1, 2, 3], timeout=5.0)
                return sender.retransmitter.exhausted
            finally:
                await sender.close()
                await fabric.close()

        assert drive(body()) == 1


class TestSelectiveRepeat:
    """The bulk transfer retransmits only unacked offsets (tentpole)."""

    def test_bulk_under_drops_resends_less_than_goback_n(self, drive):
        # Sized so the seeded pattern drops several *container* datagrams
        # (frame coalescing packs ~14 data packets per datagram).
        result = run_protocol(
            drive, "finite", drop_rate=0.1, reorder_rate=0.25,
            seed=11, message_words=1024,
        )
        assert result.completed
        assert result.delivered_words == list(range(1, 1025))
        assert result.drops_injected > 0
        resent = result.detail["retransmitted_data_bytes"]
        gbn = result.detail["goback_n_equivalent_bytes"]
        # Go-back-N would have resent the whole remainder each round;
        # selective repeat resends only the lost offsets.
        assert 0 < resent < gbn

    def test_duplicate_final_ack_is_counted_and_ignored(
            self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cm5", reorder_rate=0.0)
            sender = BulkSender(src, dst.local_address, backoff=FAST)
            BulkReceiver(dst)
            try:
                outcome = await sender.send(list(range(64)), timeout=5.0)
                # Replay the receiver's completion ack for the finished
                # transfer: must be counted, not crash or re-resolve.
                replay = Frame(FrameKind.FINAL_ACK, sender.channel,
                               seq=outcome.transfer_id, aux=64)
                sender._on_frame(replay, dst.local_address)
                sender._on_frame(replay, dst.local_address)
                return sender.stale_final_acks
            finally:
                await sender.close()
                await fabric.close()

        assert drive(body()) == 2

    def test_final_ack_for_unknown_transfer_is_stale(self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cm5", reorder_rate=0.0)
            sender = BulkSender(src, dst.local_address, backoff=FAST)
            try:
                bogus = Frame(FrameKind.FINAL_ACK, sender.channel,
                              seq=999, aux=64)
                sender._on_frame(bogus, dst.local_address)
                return sender.stale_final_acks, sender.retransmitter.outstanding
            finally:
                await sender.close()
                await fabric.close()

        assert drive(body()) == (1, 0)


class TestAckCoalescing:
    """The ordered channel acks cumulatively, not one-for-one (tentpole)."""

    def test_fewer_acks_than_data_datagrams(self, drive):
        result = run_protocol(drive, "indefinite", reorder_rate=0.0,
                              message_words=512)
        assert result.completed
        assert result.acks_per_data < 0.5

    def test_delayed_ack_timer_confirms_an_idle_channel(
            self, drive, two_peers):
        """A burst smaller than ``ack_every`` must still get acked — by
        the delayed-ack timer, once the channel goes idle."""

        async def body():
            fabric, src, dst = await two_peers("cm5", reorder_rate=0.0)
            # The initial RTO must comfortably exceed the delayed-ack
            # timer (RttEstimator's precondition), or a retransmit races
            # the delayed ack and the duplicate is acked immediately.
            sender = OrderedChannelSender(
                src, dst.local_address,
                backoff=BackoffPolicy(initial=0.1, factor=1.5,
                                      ceiling=0.5, max_retries=12),
            )
            receiver = OrderedChannelReceiver(
                dst, ack_every=100, ack_delay=0.01
            )
            try:
                for word in range(3):  # 3 < ack_every: no immediate ack
                    await sender.send([word])
                await sender.drain(timeout=5.0)
                return (receiver.delayed_acks, receiver.immediate_acks,
                        sender.outstanding)
            finally:
                receiver.close()
                await sender.close()
                await fabric.close()

        delayed, immediate, outstanding = drive(body())
        assert delayed >= 1
        assert immediate == 0
        assert outstanding == 0

    def test_duplicate_arrival_acks_immediately(self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cm5", dup_rate=1.0,
                                               reorder_rate=0.0)
            sender = OrderedChannelSender(
                src, dst.local_address, backoff=FAST
            )
            receiver = OrderedChannelReceiver(
                dst, ack_every=100, ack_delay=5.0
            )
            try:
                await sender.send([1])  # delivered twice by the hub
                await sender.drain(timeout=5.0)
                return receiver.immediate_acks, receiver.duplicates
            finally:
                receiver.close()
                await sender.close()
                await fabric.close()

        immediate, duplicates = drive(body())
        assert duplicates >= 1
        assert immediate >= 1


class TestConcurrentDrain:
    def test_multiple_drain_waiters_all_resolve(self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cm5", reorder_rate=0.0)
            sender = OrderedChannelSender(
                src, dst.local_address, backoff=FAST
            )
            receiver = OrderedChannelReceiver(dst)
            try:
                for word in range(20):
                    await sender.send([word])
                await asyncio.gather(*[
                    sender.drain(timeout=5.0) for _ in range(5)
                ])
                assert sender.outstanding == 0
                assert sender._drain_waiters == []
                return receiver.delivered_count
            finally:
                receiver.close()
                await sender.close()
                await fabric.close()

        assert drive(body()) == 20

    def test_drain_waiters_all_fail_on_give_up(self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cm5", drop_rate=1.0,
                                               reorder_rate=0.0)
            sender = OrderedChannelSender(
                src, dst.local_address,
                backoff=BackoffPolicy(initial=0.005, max_retries=2),
            )
            OrderedChannelReceiver(dst)
            try:
                await sender.send([1])
                results = await asyncio.gather(
                    *[sender.drain(timeout=5.0) for _ in range(3)],
                    return_exceptions=True,
                )
                return [type(r) for r in results]
            finally:
                await sender.close()
                await fabric.close()

        assert drive(body()) == [ChannelBroken] * 3


class TestSenderFailsLoudly:
    """Satellite regression: a sender facing a permanently dead peer
    must surface a *typed* error from every blocked call path — never
    hang until an outer deadline cleans up the pieces."""

    def test_blocked_send_raises_channel_broken(self, drive, two_peers):
        """A send() parked on a full window must be woken with
        ChannelBroken when the retransmitter gives the peer up for dead.
        Before the fix, _give_up never set the window event, so the
        sender slept forever; the asyncio.wait_for here is the watchdog
        that turns a regression into a fast failure instead of a hung
        suite."""

        async def body():
            fabric, src, dst = await two_peers("cm5", drop_rate=1.0,
                                               reorder_rate=0.0)
            sender = OrderedChannelSender(
                src, dst.local_address, window=2,
                backoff=BackoffPolicy(initial=0.005, max_retries=2),
            )
            OrderedChannelReceiver(dst)
            try:
                # Window is 2: the later sends block on window space
                # that can only be freed by acks that will never come.
                results = await asyncio.wait_for(
                    asyncio.gather(*[sender.send([k]) for k in range(6)],
                                   return_exceptions=True),
                    timeout=5.0,
                )
                blocked = [r for r in results if isinstance(r, Exception)]
                assert blocked, "no send observed the failure"
                assert all(isinstance(r, ChannelBroken) for r in blocked)
                assert sender.broken
                assert isinstance(sender.failure, ChannelBroken)
                return True
            finally:
                await sender.close()
                await fabric.close()

        assert drive(body())

    def test_send_after_break_raises_immediately(self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cm5", drop_rate=1.0,
                                               reorder_rate=0.0)
            sender = OrderedChannelSender(
                src, dst.local_address,
                backoff=BackoffPolicy(initial=0.005, max_retries=2),
            )
            OrderedChannelReceiver(dst)
            try:
                await sender.send([1])
                with pytest.raises(ChannelBroken):
                    await sender.drain(timeout=5.0)
                with pytest.raises(ChannelBroken):
                    await sender.send([2])
                return True
            finally:
                await sender.close()
                await fabric.close()

        assert drive(body())
