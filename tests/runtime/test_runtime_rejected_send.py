"""A send the wire rejects spends nothing.

A payload word outside the 32-bit wire field makes the frame encoder
raise :class:`FrameError`.  The send must raise it before the message
takes a sequence number or a transfer id, queues a frame or leaves
state behind, so the sends after it go through as if it never
happened: no gap the receiver waits on forever, no orphan future, no
half-open transfer.
"""

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.runtime import (
    FlowControlConfig, FrameError, LiveFramedChannel, Tracer,
    open_live_channel,
)
from repro.runtime.protocols import (
    BulkReceiver,
    BulkSender,
    OrderedChannelReceiver,
    OrderedChannelSender,
    SinglePacketReceiver,
    SinglePacketSender,
)

#: A word the 32-bit wire field cannot carry.
TOO_WIDE = 1 << 40


@pytest.mark.parametrize("mode", ["cm5", "cr"])
@pytest.mark.parametrize("traced", [False, True])
def test_ordered_channel_keeps_its_sequence(drive_virtual, two_peers, mode,
                                            traced):
    async def body():
        fabric, src, dst = await two_peers(
            mode, reorder_rate=0.0, tracer=Tracer() if traced else None)
        delivered = []
        receiver = OrderedChannelReceiver(
            dst, deliver=lambda seq, payload: delivered.append(payload))
        sender = OrderedChannelSender(src, dst.local_address)
        try:
            for run in ([[TOO_WIDE]], [[1, 2], [TOO_WIDE]]):
                sent = src.counters.get("frames_sent")
                with pytest.raises(FrameError):
                    await sender.send(*run)
                # Nothing of the run was queued or numbered.
                assert src.counters.get("frames_sent") == sent
                assert (sender.sent, sender.outstanding) == (0, 0)
            first = await sender.send([7])
            await sender.drain(5.0)
            await asyncio.sleep(0.1)
            return first, sender.sent, delivered
        finally:
            await sender.close()
            receiver.close()
            await fabric.close()

    first, sent, delivered = drive_virtual(body())
    assert (first, sent) == (0, 1)
    assert delivered == [(7,)]


@pytest.mark.parametrize("mode", ["cm5", "cr"])
@pytest.mark.parametrize("traced", [False, True])
def test_a_run_the_window_cuts_is_all_or_nothing(drive_virtual, two_peers,
                                                 mode, traced):
    """A framed message whose bad word falls in a later window step
    (cm5: a 2-packet window; CR: credit for 2 packets) sends nothing:
    its length word and first words would otherwise be delivered, and
    the length word would swallow the next message's words."""

    async def body():
        fabric, src, dst = await two_peers(
            mode, reorder_rate=0.0, tracer=Tracer() if traced else None)
        flow = (FlowControlConfig(window_bytes=8, window_msgs=2)
                if mode == "cr" else None)
        framed = LiveFramedChannel(open_live_channel(
            src, dst, window=2, packet_words=1, flow=flow))
        seen = []
        framed.on_message(seen.append)
        sender = framed.channel.sender
        try:
            sent = src.counters.get("frames_sent")
            with pytest.raises(FrameError):
                await framed.send_message([1, 2, TOO_WIDE])
            # Not one packet of the message was queued or numbered.
            assert src.counters.get("frames_sent") == sent
            assert (sender.sent, sender.outstanding) == (0, 0)
            await framed.send_message([5, 6])
            await framed.channel.drain(5.0)
            await asyncio.sleep(0.1)
            return sender.sent, seen
        finally:
            await framed.close()
            await fabric.close()

    sent, seen = drive_virtual(body())
    assert sent == 3
    assert seen == [[5, 6]]


@given(run=st.lists(st.lists(st.integers(0, 99), min_size=1, max_size=4),
                    min_size=1, max_size=8),
       window=st.integers(1, 4),
       mode=st.sampled_from(["cm5", "cr"]),
       data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_run_is_sent_whole_or_not_at_all(drive_virtual, two_peers, run,
                                             window, mode, data):
    """Random runs, cut into steps by a cm5 window or by CR credit for
    ``window`` packets, with a word the wire cannot carry in a random
    packet or in none: every packet is delivered or none is, and the
    next send takes the next sequence number and arrives."""
    bad = data.draw(st.one_of(st.none(), st.integers(0, len(run) - 1)))
    rejected = bad is not None
    if rejected:
        run[bad] = run[bad] + [TOO_WIDE]

    async def body():
        fabric, src, dst = await two_peers(mode, reorder_rate=0.0)
        flow = (FlowControlConfig(window_bytes=20 * window,
                                  window_msgs=window)
                if mode == "cr" else None)
        delivered = []
        receiver = OrderedChannelReceiver(
            dst, flow=flow,
            deliver=lambda seq, payload: delivered.append(payload))
        sender = OrderedChannelSender(src, dst.local_address, window=window,
                                      flow=flow)
        try:
            if rejected:
                sent = src.counters.get("frames_sent")
                with pytest.raises(FrameError):
                    await sender.send(*run)
                assert src.counters.get("frames_sent") == sent
                assert (sender.sent, sender.outstanding) == (0, 0)
            else:
                await sender.send(*run)
            await sender.send([7])
            await sender.drain(5.0)
            await asyncio.sleep(0.1)
            return delivered
        finally:
            await sender.close()
            receiver.close()
            await fabric.close()

    delivered = drive_virtual(body())
    whole = [] if rejected else [tuple(packet) for packet in run]
    assert delivered == whole + [(7,)]


@pytest.mark.parametrize("mode", ["cm5", "cr"])
def test_single_packet_leaves_no_orphan(drive_virtual, two_peers, mode):
    async def body():
        fabric, src, dst = await two_peers(mode, reorder_rate=0.0)
        seen = []
        receiver = SinglePacketReceiver(dst, on_message=seen.append)
        sender = SinglePacketSender(src, dst.local_address)
        try:
            with pytest.raises(FrameError):
                await sender.send([TOO_WIDE])
            for word in range(50):
                await sender.send([word])
            await asyncio.sleep(0.1)
            return (seen, len(sender._pending), receiver._floor,
                    len(receiver._above))
        finally:
            await sender.close()
            receiver.close()
            await fabric.close()

    seen, pending, floor, above = drive_virtual(body())
    assert seen == [[word] for word in range(50)]
    assert pending == 0
    # cm5 dedups on a floor that rose past every message; CR keeps none.
    assert (floor, above) == ((50, 0) if mode == "cm5" else (0, 0))


@pytest.mark.parametrize("mode", ["cm5", "cr"])
def test_bulk_opens_no_transfer(drive_virtual, two_peers, mode):
    async def body():
        fabric, src, dst = await two_peers(mode, reorder_rate=0.0)
        seen = []
        receiver = BulkReceiver(dst, on_message=seen.append)
        sender = BulkSender(src, dst.local_address, packet_words=4)
        try:
            with pytest.raises(FrameError):
                await sender.send([1, 2, 3, 4, 5, TOO_WIDE], timeout=5.0)
            sent = src.counters.get("frames_sent")
            outcome = await sender.send([1, 2, 3, 4, 5], timeout=5.0)
            await asyncio.sleep(0.1)
            return (sent, outcome.transfer_id, seen, dict(sender._inflight),
                    dict(receiver._segments))
        finally:
            await sender.close()
            receiver.close()
            await fabric.close()

    sent, xfer, seen, inflight, segments = drive_virtual(body())
    # The rejected transfer sent not even its ALLOC_REQ.
    assert sent == 0
    assert xfer == 1
    assert seen == [[1, 2, 3, 4, 5]]
    assert inflight == {} and segments == {}
