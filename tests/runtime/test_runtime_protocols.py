"""End-to-end tests for the live protocol ports.

Each protocol runs as a two-peer, one-lane load cell over (a) a clean
loopback, (b) a loopback injecting drops/reordering/duplication —
exercising the retransmit path — and (c) a CR-mode loopback, where the
overhead machinery must disappear from the measured attribution.  The
cell's exactly-once ledger checks every delivered message.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.arch.attribution import Feature
from repro.runtime import (
    PROTOCOL_NAMES,
    AuditLedger,
    BackoffPolicy,
    Fabric,
    Frame,
    FrameKind,
    ChannelBroken,
    LiveFramedChannel,
    ProtocolFailure,
    measure_load,
    protocol_cell,
)
from repro.runtime.frames import decode_datagram, epoch_req_frame
from repro.runtime.protocols import (
    CH_STREAM,
    BulkReceiver,
    BulkSender,
    OrderedChannelReceiver,
    OrderedChannelSender,
    SinglePacketReceiver,
    SinglePacketSender,
)

#: Fast backoff for fault tests: recover in milliseconds.
FAST = BackoffPolicy(initial=0.01, factor=1.5, ceiling=0.1, max_retries=12)


def run_protocol(protocol, mode="cm5", message_words=256, **faults):
    """One cell carrying ``message_words`` words in 16-word packets."""
    faults = {"drop_rate": 0.0, "reorder_rate": 0.25, **faults}
    config = protocol_cell(protocol, message_words // 16, mode=mode,
                           deadline=15.0, backoff=FAST, **faults)
    return measure_load(config)


def assert_delivered(result):
    assert result.completed, result.errors
    assert result.audit.clean, result.audit.to_dict()
    assert result.messages_delivered == result.config.messages


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
class TestCleanPath:
    def test_completes_in_order(self, protocol):
        result = run_protocol(protocol, reorder_rate=0.0)
        assert_delivered(result)
        assert result.wire["retransmissions"] == 0

    def test_reordering_alone_is_recovered_without_retransmission(
            self, protocol):
        # Reorder delay (2 ms) is far below the first timeout (10 ms), so
        # ordering machinery — not fault tolerance — does the recovery.
        result = run_protocol(protocol, reorder_rate=0.3)
        assert_delivered(result)

    def test_attribution_buckets_populated(self, protocol):
        result = run_protocol(protocol, reorder_rate=0.25)
        assert result.feature_ns[Feature.BASE] > 0
        assert result.feature_ns[Feature.FAULT_TOLERANCE] > 0
        assert result.total_ns == sum(
            sum(by_feature.values())
            for by_feature in result.peer_feature_ns.values())

    def test_runs_twice_on_one_pair_of_peers(self, protocol):
        """Two messages in a row on one lane: each transfer leaves its
        sender and receiver ready for the next."""
        config = replace(protocol_cell(protocol, 4, reorder_rate=0.0,
                                       deadline=15.0, backoff=FAST),
                         messages=2)
        result = measure_load(config)
        assert_delivered(result)
        assert result.messages_delivered == 2


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
class TestFaultRecovery:
    def test_survives_drops(self, protocol):
        # 1024 words: coalescing packs ~14 small frames per container
        # datagram, so a bigger message keeps the seeded fault pattern
        # actually injecting drops at datagram granularity.
        result = run_protocol(
            protocol, message_words=1024,
            drop_rate=0.15, reorder_rate=0.25, seed=11,
        )
        assert_delivered(result)
        assert result.wire["dropped"] > 0
        assert result.wire["retransmissions"] > 0

    def test_absorbs_duplicates(self, protocol):
        result = run_protocol(
            protocol, dup_rate=0.2, reorder_rate=0.0, seed=3,
        )
        assert_delivered(result)


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
class TestCRMode:
    def test_completes_with_zero_overhead_time(self, protocol):
        result = run_protocol(protocol, mode="cr")
        assert_delivered(result)
        # The network provides ordering and reliability, so the runtime
        # never enters the in-order or fault-tolerance machinery at all —
        # the Figure 6 collapse, measured rather than modeled.
        assert result.feature_ns[Feature.IN_ORDER] == 0
        assert result.feature_ns[Feature.FAULT_TOLERANCE] == 0
        assert result.feature_ns[Feature.BASE] > 0
        assert result.wire["retransmissions"] == 0

    def test_collapse_direction_vs_cm5(self, protocol):
        faulty = run_protocol(protocol, drop_rate=0.05, reorder_rate=0.25)
        clean = run_protocol(protocol, mode="cr")
        assert faulty.ordering_fault_share > 0.05
        assert clean.ordering_fault_share == 0.0

    def test_cr_run_leaves_fault_stats_clean(self, protocol):
        """A CR run must inject nothing: dropped/duplicated/reordered/
        blackholed all stay zero on the hub."""
        result = run_protocol(protocol, mode="cr", message_words=128,
                              dup_rate=0.5, reorder_rate=0.5)
        assert_delivered(result)
        stats = result.wire
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


def _reachable(receiver):
    """Every value reachable from a receiver's attributes through
    lists, tuples, sets and dicts (keys and values)."""
    found, stack = set(), list(vars(receiver).values())
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item)
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        else:
            found.add(item)
    return found


class TestDeliverAndKeepNothing:
    """A receiver with a consumer hands every message over and keeps
    no payload word of it."""

    MESSAGES = [[900_000 + 4 * k + i for i in range(4)] for k in range(20)]

    def test_single_packet_receiver(self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cm5", reorder_rate=0.0)
            seen = []
            receiver = SinglePacketReceiver(dst, on_message=seen.append)
            sender = SinglePacketSender(src, dst.local_address, backoff=FAST)
            try:
                for message in self.MESSAGES:
                    await sender.send(message, timeout=5.0)
                return seen, _reachable(receiver)
            finally:
                await sender.close()
                receiver.close()
                await fabric.close()

        seen, held = drive(body())
        assert seen == self.MESSAGES
        assert held.isdisjoint(w for m in self.MESSAGES for w in m)

    def test_bulk_receiver(self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cm5", reorder_rate=0.0)
            seen = []
            receiver = BulkReceiver(dst, on_message=seen.append)
            sender = BulkSender(src, dst.local_address, backoff=FAST)
            try:
                for message in self.MESSAGES:
                    await sender.send(message, timeout=5.0)
                return seen, _reachable(receiver), receiver._finished
            finally:
                await sender.close()
                receiver.close()
                await fabric.close()

        seen, held, finished = drive(body())
        assert seen == self.MESSAGES
        assert held.isdisjoint(w for m in self.MESSAGES for w in m)
        # A finished transfer is remembered by its word count only.
        assert finished == {xfer: 4 for xfer in range(1, 21)}


class TestSinglePacketDedup:
    """The single-packet receiver's duplicate filter is a cumulative
    floor plus the sequence numbers delivered above it: bounded by
    reordering, not by how many messages the channel ever carried."""

    def _drive_frames(self, drive, two_peers, seqs):
        async def body():
            fabric, src, dst = await two_peers("cm5", reorder_rate=0.0)
            seen = []
            receiver = SinglePacketReceiver(dst, on_message=seen.append)
            try:
                for seq in seqs:
                    receiver._on_frame(
                        [Frame(FrameKind.DATA, receiver.channel, seq=seq,
                               payload=(seq,))],
                        src.local_address)
                return (seen, receiver._floor, set(receiver._above),
                        receiver.duplicates, receiver.acks_sent)
            finally:
                receiver.close()
                await fabric.close()

        return drive(body())

    def test_in_order_messages_leave_one_entry(self, drive, two_peers):
        count = 10_000
        seen, floor, above, duplicates, acks = self._drive_frames(
            drive, two_peers, [*range(count), 5])
        assert len(seen) == count
        # One entry of state: the floor; nothing kept above it.
        assert (floor, above) == (count, set())
        # The replayed old seq 5 is acked again and counted a duplicate.
        assert (duplicates, acks) == (1, count + 1)

    def test_early_arrivals_wait_above_the_floor(self, drive, two_peers):
        seen, floor, above, duplicates, acks = self._drive_frames(
            drive, two_peers, [2, 4, 2, 0, 1, 4, 0])
        assert seen == [[2], [4], [0], [1]]
        # 0 and 1 fill the gap under 2; 4 still waits above 3.
        assert (floor, above) == (3, {4})
        assert (duplicates, acks) == (3, 7)


class TestSelectiveRepeat:
    """The bulk transfer retransmits only unacked offsets (tentpole)."""

    def test_bulk_under_drops_resends_less_than_goback_n(self):
        # Sized so the seeded pattern drops several *container* datagrams
        # (frame coalescing packs ~14 data packets per datagram).
        result = run_protocol(
            "finite", drop_rate=0.1, reorder_rate=0.25,
            seed=11, message_words=1024,
        )
        assert_delivered(result)
        assert result.wire["dropped"] > 0
        resent = result.counter("retransmitted_data_bytes")
        gbn = result.counter("goback_n_equivalent_bytes")
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
                sender._on_frame([replay], dst.local_address)
                sender._on_frame([replay], dst.local_address)
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
                sender._on_frame([bogus], dst.local_address)
                return sender.stale_final_acks, sender.retransmitter.outstanding
            finally:
                await sender.close()
                await fabric.close()

        assert drive(body()) == (1, 0)


class TestAckCoalescing:
    """The ordered channel acks cumulatively, not one-for-one (tentpole)."""

    def test_fewer_acks_than_data_datagrams(self):
        result = run_protocol("indefinite", reorder_rate=0.0,
                              message_words=512)
        assert_delivered(result)
        assert result.acks_per_data < 0.5

    def test_delayed_ack_timer_confirms_an_idle_channel(
            self, drive_virtual, two_peers):
        """A burst smaller than ``ack_every`` must still get acked — by
        the delayed-ack timer, once the channel goes idle.  The three
        sends queue before the first flush, so they arrive as one run:
        3 < ``ack_every`` arms the timer, which fires once (10 ms, well
        inside the 100 ms initial RTO on the virtual clock) and acks all
        three — exactly one delayed ack, no immediate one."""

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

        delayed, immediate, outstanding = drive_virtual(body())
        assert delayed == 1
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


class _DropFirstBatch:
    """Hub fault script: drop the first ``src`` → ``dst`` datagram that
    carries at least ``frames`` frames, and log every datagram on that
    link as its list of frames."""

    def __init__(self, src, dst, frames):
        self.link = (src, dst)
        self.frames = frames
        self.dropped = None
        self.datagrams = []

    def filter(self, src, dst, data):
        if (src, dst) != self.link:
            return data, None, 0.0
        frames = decode_datagram(data)
        self.datagrams.append(frames)
        if self.dropped is None and len(frames) >= self.frames:
            self.dropped = frames
            return data, "dropped", 0.0
        return data, None, 0.0


class TestRetransmitsRideTheFlush:
    def test_a_lost_batch_is_resent_in_fewer_datagrams_than_frames(
            self, drive, two_peers):
        """Losing one multi-frame datagram on an ordered cm5 channel:
        the frames that expire together are resent together, so
        recovery takes fewer retransmission-carrying datagrams than
        retransmitted frames, and every message still arrives exactly
        once, in order."""

        async def body():
            fabric, src, dst = await two_peers("cm5", reorder_rate=0.0)
            script = fabric.hub.chaos = _DropFirstBatch(
                src.local_address, dst.local_address, frames=4)
            conn = await fabric.connect("src", "dst", backoff=FAST)
            framed = LiveFramedChannel(conn.channel)
            ledger = AuditLedger()
            framed.on_message(
                lambda words: ledger.record_delivery(conn.cid, words))
            try:
                for index in range(4):
                    await framed.send_message(
                        ledger.stamp(conn.cid, index, range(40)))
                await conn.drain(timeout=5.0)
                await asyncio.sleep(0.01)   # the last deliveries land
                return script, ledger.verdict()
            finally:
                await fabric.close()

        script, audit = drive(body())
        assert script.dropped is not None
        seen = set()
        rtx_frames = rtx_datagrams = 0
        for frames in script.datagrams:
            data = [(f.channel, f.seq) for f in frames
                    if f.kind is FrameKind.DATA]
            repeats = sum(1 for key in data if key in seen)
            seen.update(data)
            rtx_frames += repeats
            rtx_datagrams += bool(repeats)
        lost = sum(1 for f in script.dropped if f.kind is FrameKind.DATA)
        assert rtx_frames >= lost >= 4
        assert rtx_datagrams < rtx_frames
        assert audit.clean, audit.to_dict()
        assert audit.delivered == audit.offered == 4


class TestPerChannelCounters:
    """Channels sharing an endpoint count apart; the endpoint's
    registry and the fabric's wire totals still sum them."""

    def test_two_channels_into_one_peer_count_their_own(self,
                                                       drive_virtual):
        """On the virtual clock no retransmission timer can expire
        before its ack lands, so the counts are exact.  Each sender's
        sends queue before its first flush, so each channel's packets
        reach ``c`` as one run of one datagram, and the receiver decides
        one ack per run: channel 1's run of 10 reaches ``ack_every`` (8)
        and is acked at once, channel 2's run of 3 waits out the
        delayed-ack timer.  One ack each, to two peers: two ack
        datagrams (deciding per frame, channel 1 would have been acked
        at its 8th packet and again, delayed, for the last 2)."""

        async def body():
            fabric = Fabric("cm5", reorder_rate=0.0)
            a, b, c = [await fabric.add_peer(name) for name in "abc"]
            pairs = [
                (OrderedChannelSender(a, c.local_address, channel=1,
                                      backoff=FAST),
                 OrderedChannelReceiver(c, channel=1)),
                (OrderedChannelSender(b, c.local_address, channel=2,
                                      backoff=FAST),
                 OrderedChannelReceiver(c, channel=2)),
            ]
            try:
                for (sender, _), packets in zip(pairs, (10, 3)):
                    for word in range(packets):
                        await sender.send([word])
                for sender, _ in pairs:
                    await sender.drain(timeout=5.0)
                return (
                    [(s.packets_released, r.arrivals, r.acks_sent,
                      s.acks_received) for s, r in pairs],
                    c.counters.to_dict(),
                    a.counters.to_dict(),
                    fabric.wire_totals(),
                )
            finally:
                for sender, receiver in pairs:
                    receiver.close()
                    await sender.close()
                await fabric.close()

        (first, second), c_counts, a_counts, wire = drive_virtual(body())
        assert first == (10, 10, 1, 1)
        assert second == (3, 3, 1, 1)
        assert c_counts["stream_rx.arrivals"] == 13
        assert a_counts["stream_tx.packets_released"] == 10
        assert (c_counts["stream_rx.acks_sent"]
                == first[2] + second[2] == first[3] + second[3] == 2)
        assert c_counts["stream_rx.immediate_acks"] == 1
        assert c_counts["stream_rx.delayed_acks"] == 1
        assert wire["ack_datagrams"] == first[2] + second[2]
        assert wire["retransmissions"] == 0


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


class TestEpochRequest:
    def test_consumed_deliveries_still_count_as_history(self, drive,
                                                        two_peers):
        """A receiver whose consumer took every packet still has a
        delivery history: an ``EPOCH_REQ`` naming a later base must not
        make it skip ahead, or the packets in between are lost."""

        async def body():
            fabric, src, dst = await two_peers("cm5", reorder_rate=0.0)
            consumed = []
            receiver = OrderedChannelReceiver(
                dst, deliver=lambda seq, payload: consumed.append(seq))
            sender = OrderedChannelSender(src, dst.local_address,
                                          backoff=FAST)
            replies = []
            post_frame = dst.post_frame

            def recording_post_frame(to, frame, feature=Feature.BASE):
                replies.append(frame)
                post_frame(to, frame, feature)

            dst.post_frame = recording_post_frame
            try:
                for word in range(3):
                    await sender.send([word])
                await sender.drain(timeout=5.0)
                receiver._on_frame(
                    [epoch_req_frame(CH_STREAM, proposed_epoch=1,
                                     base_seq=10)],
                    src.local_address)
                reply = [f for f in replies
                         if f.kind is FrameKind.EPOCH_REPLY][-1]
                return consumed, receiver.delivered, reply.seq
            finally:
                receiver.close()
                await sender.close()
                await fabric.close()

        consumed, kept, expected = drive(body())
        assert consumed == [0, 1, 2]
        assert kept == []
        assert expected == 3
