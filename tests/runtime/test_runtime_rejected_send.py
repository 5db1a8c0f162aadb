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

from repro.runtime import FrameError, Tracer
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
