"""Message framing over word-stream channels.

A :class:`~repro.api.channel.Channel` delivers an ordered word stream; most
applications want discrete *messages*.  :class:`FramedChannel` adds the
classic length-prefix framing: each message travels as one header word
(its length) followed by its payload words, and the receiving side
reassembles exact message boundaries from the stream — valid regardless of
how the stream was packetized, because the channel guarantees order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.api.channel import Channel

#: Framing limit: a length word must fit in 32 bits.
MAX_MESSAGE_WORDS = (1 << 32) - 1


class FrameAssembler:
    """Incremental length-prefix decoder over an ordered word stream.

    Completed messages go to the :meth:`on_message` consumer when one is
    attached and are then not kept; otherwise they collect in
    ``messages``.
    """

    def __init__(self) -> None:
        self.messages: List[List[int]] = []
        # Words still owed to the message in ``_partial``; 0 while the
        # next stream word is a length word.
        self._missing = 0
        self._partial: List[int] = []
        self._callback: Optional[Callable[[List[int]], None]] = None

    def on_message(self, callback: Callable[[List[int]], None]) -> None:
        self._callback = callback

    def feed(self, words: Sequence[int]) -> None:
        """Consume stream words; emit completed messages.

        Payload words move by slice, one ``extend`` per message per
        record, never word by word.
        """
        cursor, end = 0, len(words)
        while cursor < end:
            missing = self._missing
            if not missing:
                missing = words[cursor]
                cursor += 1
                if not missing:
                    self._emit([])
                    continue
            take = missing if missing <= end - cursor else end - cursor
            self._partial.extend(words[cursor:cursor + take])
            cursor += take
            if take == missing:
                self._emit(self._partial)
            else:
                self._missing = missing - take

    def _emit(self, message: List[int]) -> None:
        """Hand ``message`` to the :meth:`on_message` consumer (or keep
        it in ``messages`` when there is none) and start a fresh partial,
        so emitted messages never alias each other or the decoder's
        state."""
        self._missing = 0
        self._partial = []
        if self._callback is None:
            self.messages.append(message)
        else:
            self._callback(message)

    @property
    def in_progress(self) -> bool:
        """A message is partially received."""
        return self._missing > 0


class FramedChannel:
    """Discrete messages over a word-stream channel."""

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        self.assembler = FrameAssembler()
        channel.receive_buffer.on_record(
            lambda payload: self.assembler.feed(payload)
        )
        self.messages_sent = 0

    def send_message(self, words: Sequence[int]) -> int:
        """Send one framed message; returns packets used."""
        words = list(words)
        if len(words) > MAX_MESSAGE_WORDS:
            raise ValueError("message too long to frame")
        packets = self.channel.send([len(words)] + words)
        self.messages_sent += 1
        return packets

    @property
    def received_messages(self) -> List[List[int]]:
        return self.assembler.messages

    def on_message(self, callback: Callable[[List[int]], None]) -> None:
        self.assembler.on_message(callback)

    def close(self) -> None:
        self.channel.close()
