"""Ordered, reliable, flow-controlled channels.

``open_channel(tx_endpoint, rx_endpoint)`` gives the sending side a
:class:`Channel` whose ``send(words)`` accepts arbitrary-length word
sequences and whose receiving side accumulates them in order.  Under the
hood the channel picks its machinery from the network's service flags:

* network provides ordering + reliability (CR): the free Section 4 stream
  (:class:`~repro.protocols.cr_protocols.CRStreamSender`);
* otherwise, the paper's full indefinite-sequence protocol — or, when a
  ``window`` is requested, the credit-windowed variant that also bounds
  receiver memory.

One channel per (source, destination) direction: the stream protocols own
the node's STREAM_DATA/STREAM_ACK bindings.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.api.endpoint import Endpoint
# Re-exported: the buffer lives in a leaf the live runtime shares.
from repro.api.receive_buffer import ChannelReceiveBuffer
from repro.protocols.acks import AckPolicy
from repro.protocols.base import packet_payload_sizes
from repro.protocols.cr_protocols import CRStreamReceiver, CRStreamSender
from repro.protocols.indefinite_sequence import StreamReceiver, StreamSender
from repro.protocols.windowed import WindowedStreamReceiver, WindowedStreamSender


class Channel:
    """The sending half of a unidirectional channel."""

    def __init__(self, sender, receive_buffer: ChannelReceiveBuffer,
                 packet_size: int, mode: str) -> None:
        self._sender = sender
        self.receive_buffer = receive_buffer
        self.packet_size = packet_size
        self.mode = mode
        self.words_sent = 0

    def send(self, words: Sequence[int]) -> int:
        """Send an arbitrary-length word sequence; returns packets used."""
        words = list(words)
        sizes = packet_payload_sizes(len(words), self.packet_size)
        cursor = 0
        for take in sizes:
            self._sender.send(tuple(words[cursor:cursor + take]))
            cursor += take
        self.words_sent += len(words)
        return len(sizes)

    def close(self) -> None:
        close = getattr(self._sender, "close", None)
        if close is not None:
            close()

    @property
    def outstanding(self) -> int:
        """Unacknowledged packets held in the source buffer (0 on CR)."""
        return getattr(self._sender, "outstanding", 0)

    def __repr__(self) -> str:
        return f"Channel(mode={self.mode}, sent={self.words_sent}w)"


def open_channel(
    tx: Endpoint,
    rx: Endpoint,
    window: Optional[int] = None,
    ack_policy: Optional[AckPolicy] = None,
    consume_interval: float = 5.0,
    expected_total: Optional[int] = None,
) -> Channel:
    """Open a unidirectional ordered channel from ``tx`` to ``rx``.

    ``window`` requests credit-based receiver flow control (ignored on CR
    networks, where the hardware provides it).  ``ack_policy`` selects
    per-packet or group acknowledgements for the CMAM stream.
    """
    if tx.network is not rx.network:
        raise ValueError("endpoints live on different networks")
    network = tx.network
    buffer = ChannelReceiveBuffer()
    hardware_services = (
        getattr(network, "provides_in_order", False)
        and getattr(network, "provides_reliability", False)
    )
    if hardware_services:
        CRStreamReceiver(rx.node, rx.dispatcher, costs=rx.costs,
                         deliver=buffer._deliver)
        sender = CRStreamSender(tx.node, rx.node_id, costs=tx.costs)
        mode = "cr"
    elif window is not None:
        WindowedStreamReceiver(
            rx.node, rx.dispatcher, window=window, costs=rx.costs,
            consume_interval=consume_interval, deliver=buffer._deliver,
        )
        sender = WindowedStreamSender(
            tx.node, tx.dispatcher, rx.node_id, window=window, costs=tx.costs
        )
        mode = "windowed"
    else:
        StreamReceiver(
            rx.node, rx.dispatcher, costs=rx.costs, ack_policy=ack_policy,
            deliver=buffer._deliver, expected_total=expected_total,
        )
        sender = StreamSender(tx.node, tx.dispatcher, rx.node_id, costs=tx.costs)
        mode = "cmam"
    return Channel(sender, buffer, packet_size=tx.costs.n, mode=mode)
