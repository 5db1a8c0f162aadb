"""Tests for length-prefix message framing over channels."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import quick_cr_setup, quick_setup
from repro.api import Endpoint, open_channel
from repro.api.framing import FrameAssembler, FramedChannel


class TestFrameAssembler:
    def test_single_message(self):
        assembler = FrameAssembler()
        assembler.feed([3, 10, 20, 30])
        assert assembler.messages == [[10, 20, 30]]

    def test_messages_split_across_feeds(self):
        assembler = FrameAssembler()
        assembler.feed([4, 1])
        assert assembler.in_progress
        assembler.feed([2, 3])
        assembler.feed([4, 2, 7, 8])
        assert assembler.messages == [[1, 2, 3, 4], [7, 8]]
        assert not assembler.in_progress

    def test_empty_message(self):
        assembler = FrameAssembler()
        assembler.feed([0, 2, 5, 6])
        assert assembler.messages == [[], [5, 6]]

    def test_callback(self):
        assembler = FrameAssembler()
        seen = []
        assembler.on_message(seen.append)
        assembler.feed([1, 42, 2, 1, 2])
        assert seen == [[42], [1, 2]]

    @given(
        messages=st.lists(
            st.lists(st.integers(0, 2**31), max_size=10), max_size=10
        ),
        chunk=st.integers(1, 7),
    )
    def test_any_chunking_reassembles_exactly(self, messages, chunk):
        """Framing is chunking-invariant: however the stream is sliced,
        the original message boundaries come back."""
        stream = []
        for message in messages:
            stream.append(len(message))
            stream.extend(message)
        assembler = FrameAssembler()
        for i in range(0, len(stream), chunk):
            assembler.feed(stream[i:i + chunk])
        assert assembler.messages == [list(m) for m in messages]


class TestFramedChannel:
    def _framed(self, setup):
        sim, a, b, _net = setup()
        channel = open_channel(Endpoint(a), Endpoint(b))
        return sim, FramedChannel(channel)

    def test_messages_roundtrip_cmam(self):
        sim, framed = self._framed(quick_setup)
        framed.send_message([1, 2, 3])
        framed.send_message([])
        framed.send_message(list(range(50)))
        sim.run()
        framed.close()
        assert framed.received_messages == [[1, 2, 3], [], list(range(50))]

    def test_messages_roundtrip_cr(self):
        sim, framed = self._framed(quick_cr_setup)
        framed.send_message([9] * 13)
        framed.send_message([7])
        sim.run()
        assert framed.received_messages == [[9] * 13, [7]]

    def test_message_boundaries_independent_of_packetization(self):
        """A 5-word message spans two 4-word packets; boundaries survive."""
        sim, framed = self._framed(quick_setup)
        framed.send_message([1, 2, 3, 4, 5])
        framed.send_message([6])
        sim.run()
        framed.close()
        assert framed.received_messages == [[1, 2, 3, 4, 5], [6]]

    def test_callback_fires_in_order(self):
        sim, framed = self._framed(quick_setup)
        seen = []
        framed.on_message(seen.append)
        for i in range(5):
            framed.send_message([i, i])
        sim.run()
        framed.close()
        assert seen == [[i, i] for i in range(5)]

    @settings(max_examples=15, deadline=None)
    @given(
        messages=st.lists(
            st.lists(st.integers(0, 2**31), max_size=12),
            min_size=1, max_size=8,
        )
    )
    def test_property_roundtrip_over_reordering_network(self, messages):
        sim, framed = self._framed(quick_setup)
        for message in messages:
            framed.send_message(message)
        sim.run()
        framed.close()
        assert framed.received_messages == [list(m) for m in messages]


def word_by_word(records):
    """Reference reassembler: decode the stream one word at a time."""
    messages, pending, partial = [], None, []
    for record in records:
        for word in record:
            if pending is None:
                pending = word
                if word == 0:
                    messages.append([])
                    pending = None
                continue
            partial.append(word)
            if len(partial) == pending:
                messages.append(partial)
                pending, partial = None, []
    return messages


def framed_stream(*messages):
    stream = []
    for message in messages:
        stream.append(len(message))
        stream.extend(message)
    return stream


BULK = list(range(1023))
BULK_STREAM = framed_stream(BULK)

#: Record shapes the slice-based decoder must agree with the oracle on.
RECORD_CASES = {
    "record-ends-on-message-boundary": [[3, 1, 2, 3], [2, 4, 5], [1, 6]],
    "length-word-ends-record": [[1, 9, 2], [7, 8, 3], [1, 2, 3]],
    "zero-length-back-to-back": [[0, 0, 2, 5], [6, 0, 0, 1, 4, 0], [0]],
    "message-spans-three-records": [[5, 1], [2, 3], [4, 5, 0]],
    "bulk-1023-in-256-word-records": [
        BULK_STREAM[i:i + 256] for i in range(0, len(BULK_STREAM), 256)
    ],
}


class TestSliceReassembly:
    @pytest.mark.parametrize("records", RECORD_CASES.values(),
                             ids=RECORD_CASES.keys())
    def test_matches_word_by_word_oracle(self, records):
        assembler = FrameAssembler()
        for record in records:
            assembler.feed(tuple(record))
        assert assembler.messages == word_by_word(records)
        assert not assembler.in_progress

    def test_bulk_message_is_exact(self):
        assembler = FrameAssembler()
        for record in RECORD_CASES["bulk-1023-in-256-word-records"]:
            assert not assembler.messages
            assembler.feed(record)
        assert assembler.messages == [BULK]

    def test_length_word_alone_leaves_message_in_progress(self):
        assembler = FrameAssembler()
        assembler.feed([1, 9, 2])
        assert assembler.messages == [[9]]
        assert assembler.in_progress
        assembler.feed([7, 8])
        assert assembler.messages == [[9], [7, 8]]

    def test_emitted_lists_are_not_aliased(self):
        assembler = FrameAssembler()
        seen = []
        assembler.on_message(seen.append)
        assembler.feed([0, 0, 2, 1, 2, 3, 3])
        assembler.feed([4, 5, 1])
        first = list(map(list, seen))
        assert len({id(message) for message in seen}) == len(seen) == 4
        for message in seen:
            message.append(99)
        assembler.feed([6, 2, 7, 8])
        assert seen[4:] == [[6], [7, 8]]
        assert len({id(message) for message in seen}) == 6
        assert seen[:4] == [m + [99] for m in first]
        # The consumer holds the only copy.
        assert assembler.messages == []

    @given(
        messages=st.lists(
            st.lists(st.integers(0, 2**31), max_size=20), max_size=10
        ),
        cuts=st.lists(st.integers(0, 200), max_size=12),
    )
    def test_any_record_split_matches_oracle(self, messages, cuts):
        stream = framed_stream(*messages)
        edges = sorted({0, len(stream), *(c for c in cuts if c < len(stream))})
        records = [stream[a:b] for a, b in zip(edges, edges[1:])]
        assembler = FrameAssembler()
        for record in records:
            assembler.feed(tuple(record))
        assert assembler.messages == word_by_word(records)
        assert assembler.messages == [list(m) for m in messages]

    @pytest.mark.parametrize("setup", [quick_setup, quick_cr_setup],
                             ids=["cmam", "cr"])
    @pytest.mark.parametrize("records", RECORD_CASES.values(),
                             ids=RECORD_CASES.keys())
    def test_same_records_through_framed_channel(self, setup, records):
        """Each raw stream record travels as one packet, so the receiving
        assembler sees exactly these record boundaries."""
        sim, a, b, _net = setup(packet_size=256)
        framed = FramedChannel(open_channel(Endpoint(a), Endpoint(b)))
        delivered = []
        framed.channel.receive_buffer.on_record(
            lambda payload: (delivered.append(list(payload)),
                             framed.assembler.feed(payload)))
        for record in records:
            framed.channel.send(record)
        sim.run()
        framed.close()
        assert delivered == [list(record) for record in records]
        assert framed.received_messages == word_by_word(records)
