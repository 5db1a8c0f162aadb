"""Tests for RuntimeEndpoint's batched send path and close.

The fire-and-forget path used to create one asyncio task per posted
frame (no strong reference, swallowed exceptions, and — the deeper
hazard — no ordering guarantee between two tasks for the same channel).
Frames now join a per-destination FIFO queue drained by one flush per
event-loop tick, through the transport's synchronous ``send_now``;
these tests pin the surface guarantees: errors surface to a counter,
close never drops queued frames, and frames for one destination reach
the wire in the order they were posted.
"""

import asyncio
import cProfile
import selectors
from pathlib import Path

import pytest

import repro
from repro.analysis.journey import reconstruct_journeys
from repro.runtime import (
    EventType, Fabric, FlowControlConfig, Frame, FrameKind,
    LiveFramedChannel, OrderedChannelSender, Tracer, credit_words,
    cum_ack_frame,
)
from repro.runtime.endpoint import RuntimeEndpoint
from repro.runtime.frames import (
    data_frame, decode_datagram, encode_batch, encode_frame,
)
from repro.runtime.protocols import OrderedChannelReceiver
from repro.runtime.transport import LoopbackHub


class _RecordingTransport:
    """A transport that keeps every datagram handed to ``send_now``."""

    provides_in_order = False
    provides_reliability = False
    local_address = "src"

    def __init__(self):
        self.receiver = None
        self.wire = []

    def set_receiver(self, receiver):
        self.receiver = receiver

    def send_now(self, dst, *datagrams):
        self.wire.extend((dst, bytes(data)) for data in datagrams)

    async def close(self):
        pass


class _ExplodingTransport(_RecordingTransport):
    """A transport whose send always raises, for surfacing-path tests."""

    def send_now(self, dst, *datagrams):
        raise OSError("wire on fire")


class TestPostFrame:
    def test_posted_send_errors_surface_to_the_counter(self, drive):
        """Regression: a raised posted send was a swallowed task
        exception — invisible to callers and to the event loop."""

        async def body():
            unhandled = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, ctx: unhandled.append(ctx)
            )
            ep = RuntimeEndpoint(_ExplodingTransport(), name="src")
            frame = data_frame(channel=1, seq=0, payload=[1])
            ep.post_frame("dst", frame)
            for _ in range(100):
                if ep.send_errors:
                    break
                await asyncio.sleep(0.002)
            await asyncio.sleep(0.01)    # let stray exceptions surface
            return ep.send_errors, ep.pending_posts, unhandled

        errors, pending, unhandled = drive(body())
        assert errors == 1
        assert pending == 0
        assert unhandled == []

    def test_close_waits_for_inflight_posts(self, drive):
        """close() must not turn pending posted sends into packet loss."""

        async def body():
            hub = LoopbackHub.cr()
            a, b = hub.attach("a"), hub.attach("b")
            ep = RuntimeEndpoint(a, name="src")
            got = []
            b.set_receiver(lambda datagrams, src: got.extend(datagrams))
            frame = data_frame(channel=1, seq=0, payload=[7])
            ep.post_frame("b", frame)
            await ep.close()
            await asyncio.sleep(0.01)
            return len(got), ep.pending_posts

        delivered, pending = drive(body())
        assert delivered == 1
        assert pending == 0

    def test_same_destination_frames_stay_in_post_order(self, drive):
        """Regression (the ordering hazard): with one task per posted
        frame, two sends for the same channel could reach the wire out
        of order.  One FIFO queue per destination, flushed through one
        synchronous ``send_now`` call per datagram, keeps post order
        across flushes and inside each container."""

        async def body():
            transport = _RecordingTransport()
            ep = RuntimeEndpoint(transport, name="src")
            ep.post_frame("dst", data_frame(channel=1, seq=0, payload=[0]))
            await asyncio.sleep(0)        # flush tick: seq 0 goes alone
            for seq in (1, 2, 3):
                ep.post_frame("dst",
                              data_frame(channel=1, seq=seq, payload=[seq]))
            queued = ep.pending_posts
            await asyncio.sleep(0)        # one container for 1..3
            seqs = []
            for dst, datagram in transport.wire:
                assert dst == "dst"
                seqs.extend(frame.seq for frame in decode_datagram(datagram))
            return queued, len(transport.wire), seqs, ep.pending_posts

        queued, datagrams, seqs, pending = drive(body())
        assert queued == 3
        assert datagrams == 2
        assert seqs == [0, 1, 2, 3]
        assert pending == 0


class TestBatching:
    def test_burst_to_one_peer_coalesces_into_one_datagram(self, drive):
        async def body():
            hub = LoopbackHub.cr()
            a, b = hub.attach("a"), hub.attach("b")
            ep = RuntimeEndpoint(a, name="src")
            rx = RuntimeEndpoint(b, name="dst")
            got = []
            rx.bind(1, lambda frames, src: got.extend(f.seq for f in frames))
            for seq in range(6):
                ep.post_frame("b", data_frame(channel=1, seq=seq, payload=[seq]))
            await asyncio.sleep(0.01)
            return (a.datagrams_sent, ep.batches_sent, ep.batched_frames,
                    rx.frames_received, got)

        datagrams, batches, batched, received, got = drive(body())
        assert datagrams == 1
        assert batches == 1
        assert batched == 6
        assert received == 6
        assert got == list(range(6))     # in-order unbundle

    def test_a_run_of_frames_is_queued_in_order_with_one_flush(self, drive):
        """``send_frames`` queues a run as ``send_frame`` would queue
        its frames one by one: the same wire bytes in the same order,
        the same counts, one datagram; an empty run queues nothing."""

        async def body():
            transport = _RecordingTransport()
            ep = RuntimeEndpoint(transport, name="src")
            frames = [data_frame(1, seq, [seq] * 3) for seq in range(6)]
            assert ep.send_frames("dst", []) == []
            assert ep.pending_posts == 0
            wire = ep.send_frames("dst", frames)
            await asyncio.sleep(0)
            return wire, transport.wire, ep.frames_sent, ep.data_frames_sent

        wire, sent, frames_sent, data_frames = drive(body())
        assert wire == [encode_frame(data_frame(1, seq, [seq] * 3))
                        for seq in range(6)]
        assert sent == [("dst", encode_batch(wire))]
        assert (frames_sent, data_frames) == (6, 6)

    def test_lone_frame_skips_the_container(self, drive):
        async def body():
            hub = LoopbackHub.cr()
            a, b = hub.attach("a"), hub.attach("b")
            ep = RuntimeEndpoint(a, name="src")
            rx = RuntimeEndpoint(b, name="dst")
            got = []
            rx.bind(1, lambda frames, src: got.extend(f.seq for f in frames))
            ep.post_frame("b", data_frame(channel=1, seq=5, payload=[1]))
            await asyncio.sleep(0.01)
            return a.datagrams_sent, ep.batches_sent, got

        datagrams, batches, got = drive(body())
        assert datagrams == 1
        assert batches == 0              # singletons ride bare
        assert got == [5]

    def test_distinct_destinations_get_distinct_datagrams(self, drive):
        async def body():
            hub = LoopbackHub.cr()
            a = hub.attach("a")
            b, c = hub.attach("b"), hub.attach("c")
            ep = RuntimeEndpoint(a, name="src")
            got_b, got_c = [], []
            RuntimeEndpoint(b, name="b").bind(
                1, lambda frames, src: got_b.extend(f.seq for f in frames))
            RuntimeEndpoint(c, name="c").bind(
                1, lambda frames, src: got_c.extend(f.seq for f in frames))
            for seq in range(4):
                ep.post_frame("b", data_frame(channel=1, seq=seq, payload=[1]))
                ep.post_frame("c", data_frame(channel=1, seq=seq, payload=[1]))
            await asyncio.sleep(0.01)
            return a.datagrams_sent, got_b, got_c

        datagrams, got_b, got_c = drive(body())
        assert datagrams == 2            # one container per destination
        assert got_b == list(range(4))
        assert got_c == list(range(4))


class TestReceive:
    """One CRC per datagram: the receive path checks it once and
    dispatches every frame, or loses them all."""

    def _endpoint(self):
        ep = RuntimeEndpoint(_RecordingTransport(), name="dst",
                             tracer=Tracer(capacity=4096))
        got = []
        ep.bind(1, lambda frames, src: got.extend(f.seq for f in frames))
        return ep, got

    def test_every_bit_flip_loses_the_whole_datagram_once(self):
        ep, got = self._endpoint()
        datagram = encode_batch([
            encode_frame(data_frame(channel=1, seq=seq, payload=[seq]))
            for seq in range(3)])
        flips = 8 * len(datagram)
        for bit in range(flips):
            damaged = bytearray(datagram)
            damaged[bit // 8] ^= 1 << (bit % 8)
            ep._on_datagram((bytes(damaged),), "src")
        corrupt = [e for e in ep.tracer.events()
                   if e.etype is EventType.CORRUPT]
        assert got == []
        assert ep.counters.get("corrupt_datagrams") == flips
        assert len(corrupt) == flips
        assert ep.counters.get("decode_errors") == 0


async def _until_on_wire(transport):
    """Yield to the loop until ``transport`` has sent something."""
    for _ in range(200):
        if transport.wire:
            return
        await asyncio.sleep(0.001)


class TestResend:
    """A retransmission joins the flush queue: the frames a timer pass
    resends to one peer share its datagrams with each other and with
    whatever else that pass queued."""

    def test_resends_ride_the_flush_queue(self, drive):
        frames = [data_frame(channel=1, seq=seq, payload=[seq, seq])
                  for seq in range(3)]
        ack = Frame(FrameKind.CUM_ACK, channel=2, seq=9, aux=1)

        async def body():
            loop = asyncio.get_running_loop()
            transport = _RecordingTransport()
            ep = RuntimeEndpoint(transport, name="src")
            # Outside a timer pass: a resend behind a posted frame keeps
            # FIFO order, and is pending until the flush runs.
            ep.post_frame("dst", frames[0])
            ep.resend("dst", encode_frame(frames[1]))
            pending = ep.pending_posts
            await _until_on_wire(transport)
            outside = list(transport.wire)
            transport.wire.clear()

            # One wheel pass resends two frames and posts an ack between
            # them: one datagram carries all three, in queue order.
            def timer_pass():
                ep.resend("dst", encode_frame(frames[1]))
                ep.post_frame("dst", ack)
                ep.resend("dst", encode_frame(frames[2]))

            ep.timers.call_at(loop.time(), timer_pass)
            await _until_on_wire(transport)
            return pending, outside, list(transport.wire), ep

        pending, outside, in_pass, ep = drive(body())
        assert pending == 2
        assert [(dst, decode_datagram(data)) for dst, data in outside] == \
            [("dst", frames[:2])]
        assert [(dst, decode_datagram(data)) for dst, data in in_pass] == \
            [("dst", [frames[1], ack, frames[2]])]
        assert ep.pending_posts == 0
        # Retransmissions are not first sends.
        assert ep.frames_sent == 2
        assert ep.data_frames_sent == 1

    def test_a_failed_resend_counts_a_send_error(self, drive):
        async def body():
            ep = RuntimeEndpoint(_ExplodingTransport(), name="src")
            ep.resend("dst", encode_frame(data_frame(1, 0, [1])))
            for _ in range(100):
                if ep.send_errors:
                    break
                await asyncio.sleep(0.001)
            return ep.send_errors, ep.pending_posts

        assert drive(body()) == (1, 0)

    def test_every_frame_on_the_wire_has_one_flush_of_its_own(self, drive):
        """Traced, a flush reads each frame's identity from its own
        header bytes, so retransmissions queued among first sends get
        FLUSH events stamped with their own (kind, channel, seq, aux) in
        wire order; a journey keeps its original FLUSH."""
        first = data_frame(channel=1, seq=0, payload=[5, 6], aux=3)
        ack = Frame(FrameKind.CUM_ACK, channel=2, seq=9, aux=1)

        async def body():
            transport = _RecordingTransport()
            ep = RuntimeEndpoint(transport, name="src", tracer=Tracer())
            wire = ep.post_frame("dst", first)
            await _until_on_wire(transport)
            transport.wire.clear()
            # One flush: a post, a retransmission, another post.
            ep.post_frame("dst", data_frame(channel=1, seq=1, payload=[7]))
            ep.resend("dst", wire)
            ep.post_frame("dst", ack)
            await _until_on_wire(transport)
            return transport.wire, ep.tracer.events()

        wire, events = drive(body())
        flushes = [(e.kind, e.channel, e.seq, e.aux) for e in events
                   if e.etype is EventType.FLUSH]
        assert flushes == [("DATA", 1, 0, 3), ("DATA", 1, 1, 0),
                           ("DATA", 1, 0, 3), ("CUM_ACK", 2, 9, 1)]
        assert len(wire) == 1
        assert len(decode_datagram(wire[0][1])) == 3
        sends = [e for e in events if e.etype is EventType.SEND]
        first_flush = next(e for e in events if e.etype is EventType.FLUSH)
        journey = next(j for j in reconstruct_journeys(events)
                       if j.seq == 0)
        assert journey.stages["queue"] + journey.stages["flush"] == \
            first_flush.ts_ns - sends[0].ts_ns


#: Calls the runtime and the event loop make for one DATA frame, from
#: ``post_frame`` to ``OrderedChannelReceiver._on_frame`` handing the
#: payload to the application (measured on CPython 3.11), untraced and
#: traced.  The untraced path may not grow: it took 125 while the hub
#: handed each datagram over in a loop callback of its own, instead of
#: in the flush's callback through the fabric wheel's ready queue, 109
#: while ``post_frame`` wrapped a separate encode-and-enqueue method,
#: 107 while the receiver checked for completion waiters on every
#: DATA frame, and 106 (123 traced) while every frame carried a CRC of
#: its own, computed from two ``crc32`` calls on each side, and was
#: packed in three pieces; a lone frame now pays one CRC as a sealed
#: datagram instead.  The traced budget holds what one frame's trace
#: events cost on top; it was 121 while a traced send kept a parallel
#: list of frame identities for the flush, which now reads them from
#: each frame's header, 103 (119 traced) while a lone frame went
#: through the flush's bundling generator, and 101 while the endpoint
#: dispatched each frame through a method of its own.
FRAME_CALL_BUDGETS = {"untraced": 100, "traced": 116}

#: Calls the runtime and the event loop make for one 15-word message on
#: a flow-controlled cm5 channel, from ``send_message`` to the
#: ``on_message`` callback (CPython 3.11).  The hub reorders this
#: datagram, so it takes a loop timer and the ready queue saves nothing
#: here; the flush wrapper's call is paid for by scheduling the delayed
#: hand-over with ``call_at``.  It took 200 while the receiver checked
#: for completion waiters and the framed channel fed its assembler
#: through a forwarding lambda, 198 while every frame carried a CRC of
#: its own, and 195 while the ordered channel's per-packet path paid
#: for property reads, a credit coroutine entered on every send, a
#: reorder drain with nothing parked and two flow-control spans per
#: arrival, and 177 while the endpoint dispatched each frame through a
#: method of its own and the receiver measured each payload twice.
MESSAGE_CALL_BUDGET = 175

#: Calls the runtime and the event loop make for one ``CUM_ACK`` that
#: releases 8 packets on a metered cm5 channel, from the receiving
#: side's ``post_frame`` to the sender's ``drain`` returning (CPython
#: 3.11).  The sender releases the ack's keys in one pass, so a call
#: per released key costs 8 here; it took 237 while each key went
#: through ``Retransmitter.ack`` and an RTT sample call of its own, and
#: 205 while the endpoint dispatched each frame through a method of its
#: own.
ACK_CALL_BUDGET = 204

#: Calls the runtime makes for one datagram of 8 DATA frames of one
#: metered cm5 channel, through the ``_on_datagram`` call that decodes
#: them: 8 deliveries to the application, the run's one ``on_data``
#: call and its one ack (CPython 3.11).  It took 292 while the receiver
#: paid every feature once per frame: a dispatch, a handler call, three
#: spans, a ledger call and a delivery call each.
RUN_CALL_BUDGET = 111

#: Calls the runtime and the event loop make for one 1023-word framed
#: message, four 256-word packets, on a metered cm5 channel, from
#: ``send_message`` through the flush that puts its datagrams on the
#: wire (CPython 3.11).  The message's packets go to the sender as one
#: run, which pays each feature once: one sequence-number span, one
#: encode pass, one tracking pass and one credit charge.  It took 319
#: while the sender paid every feature once per packet.
SEND_RUN_CALL_BUDGET = 221

#: Calls the runtime and the event loop make for one 1023-word framed
#: message on a metered cm5 channel whose hub neither delays nor
#: reorders, from ``send_message`` to ``on_message`` (CPython 3.11).
#: Its four 256-word packets fill a datagram each, and the four travel
#: as one burst: one ``send_now``, one hub pass, one ready-queue item,
#: one hand-over and one ``_on_datagram`` with one ``BASE`` span.  It
#: took 399 while every datagram went alone: each of the last three
#: paid 14 calls of its own (``send_now``, ``_transmit`` and its
#: destination lookup, ``call_soon`` with its ``deque`` append and
#: ``popleft``, ``_hand_over`` and its attachment check,
#: ``Transport._deliver``, ``_on_datagram``, and the ``BASE`` span's
#: enter and exit with their two clock reads), 399 - 3 * 14 = 357.
#: The hand-over's one ``len()`` of the burst is paid for by the
#: ``Transport._deliver`` call it inlines, so a lone datagram costs
#: what it did.
BURST_CALL_BUDGET = 357

#: Where the ``repro`` package's source files live.
REPRO_SRC = str(Path(repro.__file__).parent)


#: The event loop's source: asyncio's package and the selector module.
LOOP_SRC = (str(Path(asyncio.__file__).parent), selectors.__file__)


def _runtime_calls(stats) -> int:
    """Calls made by ``repro`` code and by the event loop in a profile:
    their own functions plus the built-ins they call directly (the
    test's own code is left out).  The loop counts because it is part
    of the path: a frame that costs an extra loop turn or callback
    costs the calls that scheduling takes."""

    def ours(func) -> bool:
        return func[0].startswith(REPRO_SRC) or func[0].startswith(LOOP_SRC)

    total = 0
    for func, (_cc, calls, _tt, _ct, callers) in stats.items():
        if func[0] != "~":
            total += calls if ours(func) else 0
        else:
            total += sum(edge[0] for caller, edge in callers.items()
                         if ours(caller))
    return total


class TestFrameCallBudget:
    @pytest.mark.parametrize("tracing", sorted(FRAME_CALL_BUDGETS))
    def test_one_data_frame_stays_within_its_call_budget(self, drive,
                                                          tracing):
        """One DATA frame through post_frame -> flush -> hub -> decode
        -> dispatch -> OrderedChannelReceiver._on_frame on a two-peer
        loopback fabric, with tracing off or on, costs a fixed number
        of calls."""

        async def body():
            tracer = Tracer() if tracing == "traced" else None
            fabric = Fabric("cr", tracer=tracer)
            src = await fabric.add_peer("src")
            dst = await fabric.add_peer("dst")
            arrived = []
            landed = {}

            def deliver(seq, payload):
                arrived.append(seq)
                landed.pop(seq).set_result(None)

            receiver = OrderedChannelReceiver(
                dst, channel=1, ack_every=1000, ack_delay=60.0,
                deliver=deliver)
            try:
                async def one_frame(seq):
                    done = landed[seq] = \
                        asyncio.get_running_loop().create_future()
                    src.post_frame(dst.local_address,
                                   data_frame(1, seq, [seq] * 15))
                    await done

                # The first frame creates every counter name and the
                # delayed-ack timer; the second is the steady state.
                await one_frame(0)
                profiler = cProfile.Profile()
                profiler.enable()
                await one_frame(1)
                profiler.disable()
                profiler.create_stats()
                return _runtime_calls(profiler.stats), arrived
            finally:
                receiver.close()
                await fabric.close()

        calls, arrived = drive(body())
        assert arrived == [0, 1]
        assert calls <= FRAME_CALL_BUDGETS[tracing], calls

    def test_one_message_through_a_metered_cm5_channel(self, drive):
        """One 15-word message from ``LiveFramedChannel.send_message`` to
        the application's ``on_message`` callback, on a cm5 channel with
        flow control armed: the send path, ``Retransmitter.track``,
        ``SenderWindow.consume``, ``ReceiverWindow.on_data`` and
        ``on_deliver`` all run, so none of them can grow unnoticed."""

        async def body():
            fabric = Fabric("cm5")
            await fabric.add_peer("src")
            await fabric.add_peer("dst")
            conn = await fabric.connect("src", "dst", ack_delay=60.0,
                                        flow=FlowControlConfig())
            framed = LiveFramedChannel(conn.channel)
            arrived = []
            landed = []

            def on_message(words):
                arrived.append(words)
                landed.pop().set_result(None)

            framed.on_message(on_message)
            try:
                async def one_message(tag):
                    done = asyncio.get_running_loop().create_future()
                    landed.append(done)
                    await framed.send_message([tag] * 15)
                    await done

                await one_message(0)
                profiler = cProfile.Profile()
                profiler.enable()
                await one_message(1)
                profiler.disable()
                profiler.create_stats()
                return _runtime_calls(profiler.stats), arrived
            finally:
                await fabric.close()

        calls, arrived = drive(body())
        assert arrived == [[0] * 15, [1] * 15]
        assert calls <= MESSAGE_CALL_BUDGET, calls

    def test_one_cumulative_ack_releasing_eight_packets(self, drive):
        """One ``CUM_ACK`` covering 8 packets, from the receiving side's
        ``post_frame`` to the sender's ``drain`` returning, on a cm5
        channel with flow control armed: the credit suffix,
        ``Retransmitter.ack_below`` and the RTT estimator run once per
        ack, not once per packet.  No receiver is bound (the test acks
        by hand), so this ack is the only one."""

        async def body():
            fabric = Fabric("cm5", reorder_rate=0.0)
            src = await fabric.add_peer("src")
            dst = await fabric.add_peer("dst")
            flow = FlowControlConfig()
            credit = credit_words(flow.window_bytes, flow.window_msgs)
            sender = OrderedChannelSender(src, dst.local_address,
                                          channel=1, flow=flow)
            try:
                async def eight_packets(base):
                    for seq in range(base, base + 8):
                        await sender.send([seq] * 15)
                    # Let the data's flush run before the ack goes.
                    await asyncio.sleep(0)
                    assert dst.counters["unrouted"] == base + 8
                    return cum_ack_frame(1, base + 8, credit=credit)

                # The first round creates every counter name; the
                # second is the steady state.
                dst.post_frame(src.local_address, await eight_packets(0))
                await sender.drain(5.0)
                ack = await eight_packets(8)
                profiler = cProfile.Profile()
                profiler.enable()
                dst.post_frame(src.local_address, ack)
                await sender.drain(5.0)
                profiler.disable()
                profiler.create_stats()
                return (_runtime_calls(profiler.stats),
                        sender.packets_released,
                        sender.retransmitter.rtt.samples)
            finally:
                await sender.close()
                await fabric.close()

        calls, released, samples = drive(body())
        assert (released, samples) == (16, 16)
        assert calls <= ACK_CALL_BUDGET, calls

    def test_one_run_of_eight_frames_through_a_metered_cm5_channel(
            self, drive):
        """Eight DATA frames of one metered cm5 channel sealed into one
        datagram: the ``_on_datagram`` call that decodes them delivers
        all eight to the application, and also makes the run's one
        ``ReceiverWindow.on_data`` call and its one ack decision (8
        arrivals reach ``ack_every``, so the ack goes at once).  Each
        feature is paid once per run, so its per-frame cost is what the
        run cannot share: the decode, the append, the reorder accept and
        the application's own call."""

        async def body():
            fabric = Fabric("cm5", reorder_rate=0.0)
            src = await fabric.add_peer("src")
            dst = await fabric.add_peer("dst")
            arrived = []
            receiver = OrderedChannelReceiver(
                dst, channel=1, flow=FlowControlConfig(),
                deliver=lambda seq, payload: arrived.append(seq))

            def datagram(base):
                return encode_batch([
                    encode_frame(data_frame(1, seq, [seq] * 15))
                    for seq in range(base, base + 8)])

            try:
                # The first run creates every counter name; the second
                # is the steady state.
                dst._on_datagram((datagram(0),), src.local_address)
                wire = datagram(8)
                profiler = cProfile.Profile()
                profiler.enable()
                dst._on_datagram((wire,), src.local_address)
                profiler.disable()
                profiler.create_stats()
                return (_runtime_calls(profiler.stats), arrived,
                        receiver.immediate_acks, receiver.flow.consumed_msgs)
            finally:
                receiver.close()
                await fabric.close()

        calls, arrived, acks, admitted = drive(body())
        assert arrived == list(range(16))
        assert (acks, admitted) == (2, 16)
        assert calls <= RUN_CALL_BUDGET, calls

    def test_one_multi_packet_message_through_a_metered_cm5_channel(
            self, drive):
        """One 1023-word framed message — four 256-word packets — from
        ``LiveFramedChannel.send_message`` through the flush that seals
        its datagrams, on a cm5 channel with flow control armed.  The
        hub holds each datagram for a latency, so no receiving-side
        work is counted; the message arrives whole afterwards, and its
        four packets bring the ack at once (``ack_every=4``)."""

        async def body():
            fabric = Fabric("cm5", reorder_rate=0.0, latency=0.001)
            src = await fabric.add_peer("src")
            await fabric.add_peer("dst")
            conn = await fabric.connect("src", "dst", packet_words=256,
                                        ack_every=4, ack_delay=60.0,
                                        flow=FlowControlConfig())
            framed = LiveFramedChannel(conn.channel)
            arrived = []
            framed.on_message(arrived.append)
            try:
                async def one_message(tag):
                    assert await framed.send_message([tag] * 1023) == 4
                    # The flush is the next callback on the loop.
                    await asyncio.sleep(0)

                # The first message creates every counter name and is
                # acked before the second, the steady state, goes.
                await one_message(0)
                await conn.channel.drain(5.0)
                profiler = cProfile.Profile()
                profiler.enable()
                await one_message(1)
                profiler.disable()
                profiler.create_stats()
                on_wire = src.counters["frames_sent"]
                await conn.channel.drain(5.0)
                return _runtime_calls(profiler.stats), on_wire, arrived
            finally:
                await fabric.close()

        calls, on_wire, arrived = drive(body())
        assert on_wire == 8
        assert arrived == [[0] * 1023, [1] * 1023]
        assert calls <= SEND_RUN_CALL_BUDGET, calls

    def test_one_multi_datagram_message_through_a_metered_cm5_channel(
            self, drive):
        """One 1023-word framed message — four 256-word packets, each a
        datagram of its own — from ``LiveFramedChannel.send_message`` to
        the application's ``on_message`` callback, on a cm5 channel with
        flow control armed and a hub that neither delays nor reorders.
        The flush hands the four datagrams to the transport as one
        burst, the hub hands them over as one, and the endpoint decodes
        them in one receive pass, so the transport path is paid once
        per message, not once per datagram."""

        async def body():
            fabric = Fabric("cm5", reorder_rate=0.0)
            await fabric.add_peer("src")
            await fabric.add_peer("dst")
            conn = await fabric.connect("src", "dst", packet_words=256,
                                        ack_every=4, ack_delay=60.0,
                                        flow=FlowControlConfig())
            framed = LiveFramedChannel(conn.channel)
            arrived = []
            landed = []

            def on_message(words):
                arrived.append(words)
                landed.pop().set_result(None)

            framed.on_message(on_message)
            try:
                async def one_message(tag):
                    done = asyncio.get_running_loop().create_future()
                    landed.append(done)
                    assert await framed.send_message([tag] * 1023) == 4
                    await done

                # The first message creates every counter name and is
                # acked before the second, the steady state, goes.
                await one_message(0)
                await conn.channel.drain(5.0)
                datagrams = fabric.hub.delivered
                profiler = cProfile.Profile()
                profiler.enable()
                await one_message(1)
                profiler.disable()
                profiler.create_stats()
                return (_runtime_calls(profiler.stats),
                        fabric.hub.delivered - datagrams, arrived)
            finally:
                await fabric.close()

        calls, datagrams, arrived = drive(body())
        assert datagrams == 4
        assert arrived == [[0] * 1023, [1] * 1023]
        assert calls <= BURST_CALL_BUDGET, calls
