"""Tests for the live channel/framing surface and the UDP end-to-end path."""

import asyncio

import pytest

from repro.runtime import (
    LiveFramedChannel,
    measure_load,
    open_live_channel,
    protocol_cell,
)
from repro.runtime.frames import MAX_PAYLOAD_WORDS, TRACE_CTX_WORDS
from repro.runtime.reliability import BackoffPolicy
from repro.runtime.tracing import EventType, Tracer

FAST = BackoffPolicy(initial=0.01, factor=1.5, ceiling=0.1, max_retries=12)


async def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(0.005)


class TestLiveChannel:
    def test_stream_arrives_in_order_despite_faults(self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cm5", drop_rate=0.05,
                                               reorder_rate=0.3, seed=5)
            try:
                channel = open_live_channel(
                    src, dst, packet_words=8, backoff=FAST
                )
                words = list(range(500))
                packets = await channel.send(words)
                await channel.drain()
                await wait_until(
                    lambda: len(channel.receive_buffer) >= len(words)
                )
                assert packets == 63  # ceil(500 / 8)
                assert channel.receive_buffer.read() == words
                assert channel.outstanding == 0
                assert channel.mode == "cm5"
                await channel.close()
            finally:
                await fabric.close()

        drive(body())

    def test_cr_channel_reports_mode_and_no_buffering(self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cr")
            try:
                channel = open_live_channel(src, dst, packet_words=8)
                await channel.send(list(range(100)))
                await channel.drain()
                await wait_until(lambda: len(channel.receive_buffer) >= 100)
                assert channel.mode == "cr"
                assert channel.outstanding == 0
                assert channel.receive_buffer.read() == list(range(100))
            finally:
                await fabric.close()

        drive(body())

    def test_window_narrower_than_reorder_window_enforced(
            self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cm5")
            try:
                with pytest.raises(ValueError):
                    open_live_channel(src, dst,
                                      window=512, reorder_window=128)
            finally:
                await fabric.close()

        drive(body())


class TestChunkingBoundaries:
    """Fragmentation at the frame-size ceiling, traced and untraced."""

    def test_untraced_full_size_packet_is_one_frame(self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cr")
            try:
                channel = open_live_channel(
                    src, dst, packet_words=MAX_PAYLOAD_WORDS)
                words = list(range(MAX_PAYLOAD_WORDS))
                packets = await channel.send(words)
                await wait_until(
                    lambda: len(channel.receive_buffer) >= len(words))
                assert packets == 1
                assert channel.receive_buffer.read() == words
                await channel.close()
            finally:
                await fabric.close()

        drive(body())

    def test_traced_full_size_send_reserves_the_context_suffix(
            self, drive, two_peers):
        """With a tracer armed, a full-size packet must leave room for
        the 3-word trace context: fragmentation reserves the suffix, so
        every DATA frame on the wire still carries its origin context
        (before the fix, the context was silently dropped on exactly
        the frames a traced run cares about)."""

        async def body():
            tracer = Tracer()
            fabric, src, dst = await two_peers("cr", tracer=tracer)
            try:
                channel = open_live_channel(
                    src, dst, packet_words=MAX_PAYLOAD_WORDS)
                words = list(range(MAX_PAYLOAD_WORDS))
                packets = await channel.send(words)
                await wait_until(
                    lambda: len(channel.receive_buffer) >= len(words))
                # The suffix reservation forces a second fragment...
                assert packets == 2
                assert channel.receive_buffer.read() == words
                # ...and every data arrival names its sending event.
                recvs = [e for e in tracer.events()
                         if e.etype is EventType.RECV and e.kind == "DATA"]
                assert len(recvs) == packets
                assert all(e.origin == src.trace_origin for e in recvs)
                assert all(e.origin_ts_ns >= 0 for e in recvs)
                await channel.close()
            finally:
                await fabric.close()

        drive(body())

    def test_traced_chunk_sizes_respect_the_reservation(
            self, drive, two_peers):
        async def body():
            tracer = Tracer()
            fabric, src, dst = await two_peers("cr", tracer=tracer)
            try:
                channel = open_live_channel(
                    src, dst, packet_words=MAX_PAYLOAD_WORDS)
                reserved = MAX_PAYLOAD_WORDS - TRACE_CTX_WORDS
                # Exactly one reserved-size chunk: still a single frame.
                assert await channel.send(list(range(reserved))) == 1
                # One word past it spills into a second frame.
                assert await channel.send(list(range(reserved + 1))) == 2
                await wait_until(lambda: len(channel.receive_buffer)
                                 >= 2 * reserved + 1)
                await channel.close()
            finally:
                await fabric.close()

        drive(body())


class TestLiveFraming:
    def test_message_boundaries_survive_packetization(self, drive, two_peers):
        async def body():
            fabric, src, dst = await two_peers("cm5", reorder_rate=0.3, seed=2)
            try:
                framed = LiveFramedChannel(open_live_channel(
                    src, dst, packet_words=4, backoff=FAST
                ))
                messages = [[1, 2, 3], [], list(range(40)), [7]]
                for message in messages:
                    await framed.send_message(message)
                await framed.channel.drain()
                await wait_until(
                    lambda: len(framed.received_messages) >= len(messages)
                )
                assert framed.received_messages == messages
            finally:
                await fabric.close()

        drive(body())


class TestDeliverAndRelease:
    """A delivery stage keeps what it delivers only while nothing
    consumes it: the application's copy is the only one."""

    def test_consumed_messages_leave_every_store_empty(self, drive,
                                                       two_peers):
        async def body():
            fabric, src, dst = await two_peers("cm5", drop_rate=0.05,
                                               reorder_rate=0.3, seed=3)
            try:
                framed = LiveFramedChannel(open_live_channel(
                    src, dst, packet_words=4, backoff=FAST))
                seen = []
                framed.on_message(seen.append)
                messages = [list(range(k, 3 * k)) for k in range(12)]
                packets = 0
                for message in messages:
                    packets += await framed.send_message(message)
                await framed.channel.drain()
                receiver = framed.channel.receiver
                # A drained channel has delivered everything.
                assert receiver.delivered_count == packets
                assert seen == messages
                assert receiver.delivered == []
                assert framed.channel.receive_buffer.records == []
                assert framed.assembler.messages == []
                assert len(framed.channel.receive_buffer) == sum(
                    len(message) + 1 for message in messages)
                await framed.close()
            finally:
                await fabric.close()

        drive(body())

    def test_raw_channel_without_a_consumer_keeps_every_word(self, drive,
                                                             two_peers):
        async def body():
            fabric, src, dst = await two_peers("cm5", reorder_rate=0.3,
                                               seed=4)
            try:
                channel = open_live_channel(src, dst, packet_words=8,
                                            backoff=FAST)
                words = list(range(100))
                packets = await channel.send(words)
                await channel.drain()
                assert channel.receiver.delivered_count == packets
                assert channel.receive_buffer.read() == words
                assert len(channel.receive_buffer.records) == packets
                # The buffer is the receiver's consumer: one copy only.
                assert channel.receiver.delivered == []
                await channel.close()
            finally:
                await fabric.close()

        drive(body())


class TestUDPEndToEnd:
    def test_ordered_stream_over_real_sockets(self):
        result = measure_load(protocol_cell(
            "indefinite", 16, transport="udp", deadline=15.0, backoff=FAST))
        assert result.completed and result.audit.clean
        assert result.messages_delivered == 1
        assert result.config.transport == "udp"
