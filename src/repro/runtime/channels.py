"""Sockets-flavoured channel surface over the live ordered protocol.

The runtime mirror of :func:`repro.api.channel.open_channel`: the same
shape (an ordered word-stream channel between two endpoints, packetized
transparently), the same receive surface (it reuses
:class:`repro.api.channel.ChannelReceiveBuffer` verbatim), and the same
framing layer (:class:`repro.api.framing.FrameAssembler`) — only ``send``
is a coroutine, because the bytes really move.

Like the simulated API, the factory inspects the transport's service
flags and instantiates the cheap path when the network provides ordering
and reliability, or the full CM-5 protocol machinery when it does not.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.api.channel import ChannelReceiveBuffer
from repro.api.framing import FrameAssembler, MAX_MESSAGE_WORDS
from repro.protocols.base import packet_payload_sizes
from repro.runtime.frames import MAX_PAYLOAD_WORDS, TRACE_CTX_WORDS
from repro.runtime.endpoint import RuntimeEndpoint
from repro.runtime.flowcontrol import BackpressureSignal, FlowControlConfig
from repro.runtime.protocols import (
    CH_STREAM,
    OrderedChannelReceiver,
    OrderedChannelSender,
    RecoveryPolicy,
)
from repro.runtime.reliability import BackoffPolicy
from repro.runtime.transport import Address


class LiveChannel:
    """The sending half of a live unidirectional ordered channel."""

    def __init__(self, sender: OrderedChannelSender,
                 receiver: OrderedChannelReceiver,
                 receive_buffer: ChannelReceiveBuffer,
                 packet_words: int, mode: str) -> None:
        self._sender = sender
        self._receiver = receiver
        self.receive_buffer = receive_buffer
        self.packet_words = packet_words
        self.mode = mode
        self.words_sent = 0

    async def send(self, words: Sequence[int]) -> int:
        """Send an arbitrary-length word sequence; returns packets used."""
        words = list(words)
        sizes = packet_payload_sizes(len(words), self._effective_packet_words())
        cursor = 0
        for take in sizes:
            await self._sender.send(words[cursor:cursor + take])
            cursor += take
        self.words_sent += len(words)
        return len(sizes)

    def _effective_packet_words(self) -> int:
        """Fragmentation quantum for one send.

        Clamped to what a frame can physically carry — and when the
        sending endpoint's tracer is armed, the 3-word trace-context
        suffix rides inside the same frame, so a full-size packet must
        leave room for it or the context is silently dropped on exactly
        the packets a traced run cares about.
        """
        limit = MAX_PAYLOAD_WORDS
        if self._sender.endpoint.tracer.enabled:
            limit -= TRACE_CTX_WORDS
        return min(self.packet_words, limit)

    async def drain(self, timeout: float = 30.0) -> None:
        """Wait for every sent packet to be acknowledged (no-op on CR)."""
        await self._sender.drain(timeout)

    @property
    def outstanding(self) -> int:
        """Unacknowledged packets in the source buffer (0 on CR)."""
        return self._sender.outstanding

    def flow_signal(self, next_bytes: int = 0) -> BackpressureSignal:
        """Backpressure advice from the sender's credit estimate
        (always ``OK`` on an unmetered channel).  ``next_bytes`` is the
        payload about to be offered, so HARD reflects "this particular
        send would block", not just the headroom fraction."""
        return self._sender.flow_signal(next_bytes)

    @property
    def sender(self) -> OrderedChannelSender:
        """The underlying protocol sender (chaos/recovery orchestration)."""
        return self._sender

    @property
    def receiver(self) -> OrderedChannelReceiver:
        """The underlying protocol receiver (chaos/recovery orchestration)."""
        return self._receiver

    @property
    def broken(self) -> bool:
        """True once the channel has failed permanently."""
        return self._sender.broken

    async def close(self) -> None:
        """Tear down retransmission state (cancels the sender's
        retransmission timer) and unbind both ends."""
        await self._sender.close()
        self._receiver.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LiveChannel(mode={self.mode}, sent={self.words_sent}w)"


def open_live_channel(
    tx: RuntimeEndpoint,
    rx: RuntimeEndpoint,
    dst: Optional[Address] = None,
    channel: int = CH_STREAM,
    window: int = 32,
    packet_words: int = 16,
    reorder_window: int = 256,
    backoff: Optional[BackoffPolicy] = None,
    ack_every: int = 8,
    ack_delay: float = 0.005,
    recovery: Optional[RecoveryPolicy] = None,
    flow: Optional[FlowControlConfig] = None,
) -> LiveChannel:
    """Open a live ordered channel from ``tx`` to ``rx``.

    ``dst`` defaults to ``rx``'s transport address (one-process loopback);
    pass it explicitly for multi-process UDP runs where ``rx`` is remote.
    ``ack_every``/``ack_delay`` tune the receiver's ack coalescing.
    ``recovery`` arms the sender with epoch renegotiation: after retry
    exhaustion it probes the receiver and resumes from its durable
    cumulative point instead of breaking at the first give-up.
    ``flow`` arms credit-based flow control; the factory configures both
    ends from the same config, which the piggybacked wire encoding
    requires.
    """
    if reorder_window < window:
        raise ValueError("receiver reorder window must cover the send window")
    buffer = ChannelReceiveBuffer()
    receiver = OrderedChannelReceiver(
        rx, channel=channel, window=reorder_window, deliver=buffer._deliver,
        ack_every=ack_every, ack_delay=ack_delay, flow=flow,
    )
    sender = OrderedChannelSender(
        tx, dst if dst is not None else rx.local_address,
        channel=channel, window=window, backoff=backoff, recovery=recovery,
        flow=flow,
    )
    mode = "cr" if tx.cr_mode else "cm5"
    return LiveChannel(sender, receiver, buffer, packet_words, mode)


class LiveFramedChannel:
    """Discrete messages over a live channel (length-prefix framing).

    Reuses the simulator API's :class:`FrameAssembler` — the framing
    state machine is delivery-agnostic, so the live and simulated stacks
    share it unchanged.
    """

    def __init__(self, channel: LiveChannel) -> None:
        self.channel = channel
        self.assembler = FrameAssembler()
        channel.receive_buffer.on_record(
            lambda payload: self.assembler.feed(payload)
        )
        self.messages_sent = 0

    async def send_message(self, words: Sequence[int]) -> int:
        """Send one framed message; returns packets used."""
        words = list(words)
        if len(words) > MAX_MESSAGE_WORDS:
            raise ValueError("message too long to frame")
        packets = await self.channel.send([len(words)] + words)
        self.messages_sent += 1
        return packets

    @property
    def received_messages(self) -> List[List[int]]:
        return self.assembler.messages

    def on_message(self, callback: Callable[[List[int]], None]) -> None:
        self.assembler.on_message(callback)

    async def close(self) -> None:
        await self.channel.close()
