"""Unit tests for the runtime wire format."""

import dataclasses
import random
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.flowcontrol import credit_words
from repro.runtime.frames import (
    CRC_RESIDUE,
    Frame,
    TRACE_CTX_WORDS,
    TRACE_FLAG,
    trace_context_words,
    FrameCorruption,
    FrameError,
    FrameKind,
    MAX_CHANNEL,
    MAX_PAYLOAD_WORDS,
    WORD_MASK,
    cum_ack_frame,
    data_frame,
    decode_datagram,
    decode_frame,
    encode_batch,
    encode_frame,
    epoch_reply_frame,
    epoch_req_frame,
)


def seal(frame, trace_ctx=None):
    """One frame as a datagram of its own."""
    return encode_batch([encode_frame(frame, trace_ctx)])


def decode_one(datagram):
    """The one frame a datagram carries."""
    (frame,) = decode_datagram(datagram)
    return frame


def reseal(body):
    """``body`` behind a trailer that matches it: damage the CRC cannot
    see, so the reject must come from a structural check."""
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


class TestRoundTrip:
    def test_data_frame_round_trips(self):
        frame = data_frame(channel=3, seq=41, payload=[1, 2, 3, 4], aux=7)
        assert decode_one(seal(frame)) == frame

    def test_frames_stay_frozen_hashable_values(self):
        frame = data_frame(channel=3, seq=41, payload=[1, 2], aux=7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            frame.seq = 42
        twin = Frame(FrameKind.DATA, 3, seq=41, aux=7, payload=(1, 2))
        assert frame == twin and hash(frame) == hash(twin)
        assert dataclasses.replace(frame, seq=42).seq == 42

    def test_empty_payload_round_trips(self):
        frame = Frame(kind=FrameKind.ACK, channel=1, seq=9)
        assert decode_one(seal(frame)) == frame

    @pytest.mark.parametrize("kind", list(FrameKind))
    def test_every_kind_round_trips(self, kind):
        frame = Frame(kind=kind, channel=2, seq=5, aux=1024, payload=(10, 20))
        assert decode_one(seal(frame)) == frame

    def test_out_of_range_words_rejected_not_masked(self):
        # Regression: encode_frame used to mask this to (5,) — a silent
        # corruption.  Out-of-range fields must refuse to encode.
        frame = data_frame(channel=1, seq=0, payload=[(1 << 40) + 5])
        with pytest.raises(FrameError):
            encode_frame(frame)

    def test_large_payload(self):
        payload = tuple(range(256))
        frame = data_frame(channel=1, seq=1, payload=payload)
        assert decode_one(seal(frame)).payload == payload

    def test_decode_frame_returns_the_next_offset(self):
        wire = encode_frame(data_frame(channel=1, seq=2, payload=(7, 8)))
        padded = b"\x00" * 5 + wire
        frame, offset = decode_frame(padded, 5, len(padded))
        assert frame.payload == (7, 8)
        assert offset == len(padded)


class TestDecodeErrors:
    def test_truncated_header_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"\xc5\x01", 0, 2)
        with pytest.raises(FrameError):
            decode_datagram(reseal(b"\xc5\x01"))

    def test_bad_magic_rejected(self):
        body = bytearray(encode_frame(data_frame(1, 0, [1])))
        body[0] = 0x00
        with pytest.raises(FrameError):
            decode_datagram(reseal(body))

    def test_unknown_kind_rejected(self):
        body = bytearray(encode_frame(data_frame(1, 0, [1])))
        body[1] = 0xEE
        with pytest.raises(FrameError):
            decode_datagram(reseal(body))

    def test_truncated_payload_rejected(self):
        body = encode_frame(data_frame(1, 0, [1, 2, 3]))
        with pytest.raises(FrameError):
            decode_datagram(reseal(body[:-2]))

    def test_trailing_garbage_rejected(self):
        """Bytes after the last frame that are too few for a header
        fail even under a matching trailer."""
        body = encode_frame(data_frame(1, 0, [1]))
        with pytest.raises(FrameError):
            decode_datagram(reseal(body + b"\x00"))

    def test_oversized_payload_rejected_at_construction(self):
        with pytest.raises(FrameError):
            data_frame(1, 0, list(range(MAX_PAYLOAD_WORDS + 1)))

    @pytest.mark.parametrize("kind_byte", [FrameKind.DATA,
                                           FrameKind.DATA | TRACE_FLAG])
    def test_oversized_count_with_valid_crc_rejected(self, kind_byte):
        """A count field past MAX_PAYLOAD_WORDS, with the payload present
        and a matching trailer, is a FrameError (never an IndexError
        from the codec's per-arity tables).  Traced or not: the encoder
        never puts more words on the wire, trace suffix included."""
        count = MAX_PAYLOAD_WORDS + 1
        header = struct.pack("!BBHIIH", 0xC5, kind_byte, 1, 0, 0, count)
        with pytest.raises(FrameError):
            decode_datagram(reseal(header + bytes(4 * count)))

    def test_empty_datagram_rejected(self):
        """A trailer with no frame in front of it passes the CRC (the
        CRC of no bytes is 0) but is not a datagram."""
        with pytest.raises(FrameError):
            decode_datagram(reseal(b""))


class TestGoldenWire:
    """Byte-for-byte datagram images: any codec rewrite must keep them.

    Each frame is its 14-byte header and its payload; the 4-byte
    trailer is the little-endian CRC-32 of everything before it.  A
    lone frame's trailer is the byte-reversed per-frame CRC of the
    earlier format, which ran over the same bytes."""

    DATA = ("c501000300000029000000070004"
            "00000001000000020000000300000004" "85f98227")
    CUM_ACK = ("c507000500000064000000010006"
               "000000660000006900000000000111700000000000000258"
               "ccfab334")
    TRACED = ("c581000200000009000000000005"
              "deadbeef00000000010203041122334455667788" "617df783")
    #: The three frames above sealed into one datagram.
    BATCH = ("c501000300000029000000070004"
             "00000001000000020000000300000004"
             "c507000500000064000000010006"
             "000000660000006900000000000111700000000000000258"
             "c581000200000009000000000005"
             "deadbeef00000000010203041122334455667788" "e66fd1ca")

    def _frames(self):
        return [
            data_frame(channel=3, seq=41, payload=[1, 2, 3, 4], aux=7),
            cum_ack_frame(5, 100, sacks=[102, 105], epoch=1,
                          credit=credit_words(70000, 600)),
            Frame(FrameKind.DATA, 2, 9, 0, (0xDEADBEEF, 0),
                  origin=0x01020304, origin_ts_ns=0x1122334455667788),
        ]

    def _encoded(self):
        data, ack, traced = self._frames()
        ctx = trace_context_words(0x01020304, 0x1122334455667788)
        return [encode_frame(data), encode_frame(ack),
                encode_frame(data_frame(2, 9, [0xDEADBEEF, 0]), ctx)]

    def test_data_frame(self):
        frame = self._frames()[0]
        assert seal(frame).hex() == self.DATA
        assert decode_datagram(bytes.fromhex(self.DATA)) == [frame]

    def test_cum_ack_with_credit_suffix(self):
        frame = self._frames()[1]
        assert seal(frame).hex() == self.CUM_ACK
        assert decode_datagram(bytes.fromhex(self.CUM_ACK)) == [frame]

    def test_traced_data_frame(self):
        ctx = trace_context_words(0x01020304, 0x1122334455667788)
        assert seal(data_frame(2, 9, [0xDEADBEEF, 0]), ctx).hex() == self.TRACED
        assert decode_datagram(bytes.fromhex(self.TRACED)) == \
            [self._frames()[2]]

    def test_three_frame_datagram(self):
        assert encode_batch(self._encoded()).hex() == self.BATCH
        assert decode_datagram(bytes.fromhex(self.BATCH)) == self._frames()

    def test_every_bit_flip_of_the_golden_datagram_is_rejected(self):
        """One CRC covers the whole datagram: a flip anywhere, header,
        payload or trailer, of any of the three frames, is
        FrameCorruption and loses all of them — never a decoded
        frame."""
        golden = bytes.fromhex(self.BATCH)
        for bit in range(8 * len(golden)):
            damaged = bytearray(golden)
            damaged[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(FrameCorruption):
                decode_datagram(bytes(damaged))

    def test_every_truncation_of_the_golden_datagram_is_rejected(self):
        golden = bytes.fromhex(self.BATCH)
        for cut in range(len(golden)):
            with pytest.raises(FrameError):
                decode_datagram(golden[:cut])


class TestChecksum:
    """The datagram CRC must catch single-bit wire damage anywhere."""

    def test_payload_bit_flip_raises_corruption(self):
        data = bytearray(seal(data_frame(1, 7, [1, 2, 3])))
        data[-5] ^= 0x01  # the last payload byte, ahead of the trailer
        with pytest.raises(FrameCorruption):
            decode_datagram(bytes(data))

    def test_header_bit_flip_raises_corruption(self):
        data = bytearray(seal(data_frame(1, 7, [1, 2, 3])))
        data[4] ^= 0x80  # inside the header fields, past the magic
        with pytest.raises(FrameCorruption):
            decode_datagram(bytes(data))

    def test_crc_field_bit_flip_raises_corruption(self):
        """Every bit of a lone frame's datagram, the trailer included."""
        encoded = seal(data_frame(1, 7, [1, 2, 3]))
        for offset in range(len(encoded)):
            for bit in range(8):
                data = bytearray(encoded)
                data[offset] ^= 1 << bit
                with pytest.raises(FrameCorruption):
                    decode_datagram(bytes(data))

    def test_corruption_is_a_frame_error(self):
        # Callers that guard with `except FrameError` must keep working.
        assert issubclass(FrameCorruption, FrameError)

    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=64), trailer=st.binary(min_size=4,
                                                          max_size=4))
    def test_residue_check_accepts_exactly_when_the_crc_matches(
            self, body, trailer):
        """``crc32(datagram) == CRC_RESIDUE`` is the same test as
        recomputing the CRC of the bytes before the trailer and
        comparing; half the examples carry the matching trailer."""
        if trailer[0] & 1:
            trailer = struct.pack("<I", zlib.crc32(body))
        recomputed = struct.unpack("<I", trailer)[0] == zlib.crc32(body)
        assert (zlib.crc32(body + trailer) == CRC_RESIDUE) == recomputed


class TestChaosHelpers:
    def test_epoch_req_carries_proposal_and_base(self):
        frame = epoch_req_frame(5, proposed_epoch=3, base_seq=42)
        decoded = decode_one(seal(frame))
        assert decoded.kind is FrameKind.EPOCH_REQ
        assert (decoded.channel, decoded.seq, decoded.aux) == (5, 3, 42)

    def test_epoch_reply_carries_expected_epoch_and_sacks(self):
        frame = epoch_reply_frame(5, next_expected=17, epoch=3, sacks=(19, 21))
        decoded = decode_one(seal(frame))
        assert decoded.kind is FrameKind.EPOCH_REPLY
        assert (decoded.seq, decoded.aux) == (17, 3)
        assert decoded.payload == (19, 21)

    def test_kind_10_is_rejected_as_unknown(self):
        body = bytearray(encode_frame(Frame(kind=FrameKind.ACK, channel=4,
                                            seq=99)))
        body[1] = 10  # the kind byte follows the magic byte
        with pytest.raises(FrameError, match="^unknown frame kind 10$"):
            decode_datagram(reseal(body))

    def test_frame_kind_wire_values_are_pinned(self):
        assert {kind.name: kind.value for kind in FrameKind} == {
            "DATA": 1, "ACK": 2, "ALLOC_REQ": 3, "ALLOC_REPLY": 4,
            "DEALLOC": 5, "FINAL_ACK": 6, "CUM_ACK": 7, "EPOCH_REQ": 8,
            "EPOCH_REPLY": 9, "CREDIT_UPDATE": 11, "COLL_HDR": 12,
            "COLL_GRANT": 13, "COLL_DONE": 14, "PING": 15, "PING_REQ": 16,
            "PING_ACK": 17,
        }


class TestFieldValidation:
    """Satellite regression: every out-of-range field must raise
    ``FrameError`` at encode time — never silently truncate on the
    wire (the old code masked with ``& 0xFFFF`` / ``& WORD_MASK``)."""

    def test_channel_above_16_bits_rejected(self):
        frame = Frame(kind=FrameKind.DATA, channel=MAX_CHANNEL + 1, seq=1)
        with pytest.raises(FrameError):
            encode_frame(frame)

    def test_seq_above_32_bits_rejected(self):
        frame = Frame(kind=FrameKind.DATA, channel=1, seq=WORD_MASK + 1)
        with pytest.raises(FrameError):
            encode_frame(frame)

    def test_aux_above_32_bits_rejected(self):
        frame = Frame(kind=FrameKind.DATA, channel=1, seq=1,
                      aux=WORD_MASK + 1)
        with pytest.raises(FrameError):
            encode_frame(frame)

    def test_negative_fields_rejected(self):
        for bad in (Frame(kind=FrameKind.DATA, channel=-1, seq=0),
                    Frame(kind=FrameKind.DATA, channel=0, seq=-1),
                    Frame(kind=FrameKind.DATA, channel=0, seq=0, aux=-2),
                    Frame(kind=FrameKind.DATA, channel=0, seq=0,
                          payload=(-1,))):
            with pytest.raises(FrameError):
                encode_frame(bad)

    def test_boundary_values_still_encode(self):
        frame = Frame(kind=FrameKind.DATA, channel=MAX_CHANNEL,
                      seq=WORD_MASK, aux=WORD_MASK,
                      payload=(WORD_MASK, 0))
        assert decode_one(seal(frame)) == frame

    def test_error_message_names_the_bad_field(self):
        frame = Frame(kind=FrameKind.DATA, channel=MAX_CHANNEL + 7, seq=0)
        with pytest.raises(FrameError, match="channel"):
            encode_frame(frame)


#: Any frame the encoder accepts, with or without a trace context.
_FRAMES = st.builds(
    lambda kind, channel, seq, aux, payload: Frame(kind, channel, seq, aux,
                                                   tuple(payload)),
    st.sampled_from(list(FrameKind)),
    st.integers(0, MAX_CHANNEL),
    st.integers(0, WORD_MASK),
    st.integers(0, WORD_MASK),
    st.lists(st.integers(0, WORD_MASK), max_size=40),
)
_CONTEXTS = st.none() | st.builds(trace_context_words,
                                  st.integers(0, WORD_MASK),
                                  st.integers(0, (1 << 64) - 1))


class TestPropertyRoundTrip:
    """Property tests: arbitrary frames must survive encode/decode
    exactly; every corruption and truncation must raise a typed error,
    never return a wrong frame."""

    def _arbitrary_frame(self, rng):
        kind = rng.choice(list(FrameKind))
        count = rng.choice((0, 1, 2, 3, 8, 17, 64, 256))
        return Frame(
            kind=kind,
            channel=rng.randint(0, MAX_CHANNEL),
            seq=rng.randint(0, WORD_MASK),
            aux=rng.randint(0, WORD_MASK),
            payload=tuple(rng.randint(0, WORD_MASK) for _ in range(count)),
        )

    def test_arbitrary_frames_round_trip(self):
        rng = random.Random(0xF4A3E5)
        for _ in range(300):
            frame = self._arbitrary_frame(rng)
            assert decode_one(seal(frame)) == frame

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_FRAMES, _CONTEXTS), min_size=1, max_size=12))
    def test_arbitrary_frame_lists_round_trip(self, items):
        """Frames sealed together, traced and untraced mixed, decode
        back in order with their trace contexts."""
        datagram = encode_batch([encode_frame(frame, ctx)
                                 for frame, ctx in items])
        expected = [
            frame if ctx is None else dataclasses.replace(
                frame, origin=ctx[0], origin_ts_ns=(ctx[1] << 32) | ctx[2])
            for frame, ctx in items
        ]
        assert decode_datagram(datagram) == expected

    def test_decode_accepts_memoryview_and_bytearray(self):
        frame = data_frame(channel=9, seq=3, payload=(1, 2, 3))
        wire = seal(frame)
        assert decode_datagram(memoryview(wire)) == [frame]
        assert decode_datagram(bytearray(wire)) == [frame]

    def test_every_truncation_length_raises(self):
        wire = seal(data_frame(channel=5, seq=8, payload=tuple(range(6))))
        for cut in range(len(wire)):
            with pytest.raises(FrameError):
                decode_datagram(wire[:cut])

    def test_corrupt_byte_at_every_offset_raises(self):
        """Flip one bit at every byte offset: the CRC must catch all of
        them — no offset may decode to a silently different frame."""
        frame = data_frame(channel=5, seq=8, aux=2, payload=tuple(range(6)))
        wire = seal(frame)
        for offset in range(len(wire)):
            for bit in (0x01, 0x80):
                damaged = bytearray(wire)
                damaged[offset] ^= bit
                with pytest.raises(FrameCorruption):
                    decode_datagram(bytes(damaged))


class TestBatchContainer:
    """Several frames sealed into one datagram must decode back
    exactly, in order; truncation is a typed error."""

    def _frames(self, n, rng=None):
        rng = rng or random.Random(0xBA7C4)
        return [
            data_frame(channel=rng.randint(0, 64), seq=seq,
                       payload=tuple(rng.randint(0, WORD_MASK)
                                     for _ in range(rng.randint(0, 8))))
            for seq in range(n)
        ]

    def test_batch_round_trips_in_order(self):
        frames = self._frames(9)
        batch = encode_batch([encode_frame(f) for f in frames])
        assert decode_datagram(batch) == frames

    def test_arbitrary_batches_round_trip(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(60):
            frames = self._frames(rng.randint(1, 20), rng)
            batch = encode_batch([encode_frame(f) for f in frames])
            assert decode_datagram(batch) == frames

    def test_empty_batch_rejected(self):
        with pytest.raises(FrameError):
            encode_batch([])

    def test_truncated_batch_raises_at_every_cut(self):
        frames = self._frames(4)
        batch = encode_batch([encode_frame(f) for f in frames])
        for cut in range(len(batch)):
            with pytest.raises(FrameError):
                decode_datagram(batch[:cut])

    def test_trailing_garbage_after_last_subframe_rejected(self):
        body = b"".join(encode_frame(f) for f in self._frames(2))
        with pytest.raises(FrameError):
            decode_datagram(encode_batch([body]) + b"\x00")
        with pytest.raises(FrameError):
            decode_datagram(reseal(body + b"\x00"))


class TestTraceContext:
    """The optional wire-propagated trace-context suffix."""

    CTX_TS = 0x1_2345_6789A  # > 32 bits, exercises the hi/lo split

    def _ctx(self, origin=0xDEADBEEF, ts_ns=CTX_TS):
        return trace_context_words(origin, ts_ns)

    def test_suffix_round_trips(self):
        frame = data_frame(channel=3, seq=41, payload=[1, 2, 3], aux=7)
        decoded = decode_one(seal(frame, self._ctx()))
        assert decoded.payload == (1, 2, 3)
        assert decoded.origin == 0xDEADBEEF
        assert decoded.origin_ts_ns == self.CTX_TS

    def test_traced_and_untraced_frames_compare_equal_on_wire_fields(self):
        frame = data_frame(channel=3, seq=41, payload=[1, 2, 3], aux=7)
        decoded = decode_one(seal(frame, self._ctx()))
        assert (decoded.kind, decoded.channel, decoded.seq, decoded.aux,
                decoded.payload) == (frame.kind, frame.channel, frame.seq,
                                     frame.aux, frame.payload)

    def test_untraced_decode_leaves_context_absent(self):
        frame = data_frame(channel=1, seq=2, payload=[9, 9, 9])
        decoded = decode_one(seal(frame))
        assert decoded.origin == -1
        assert decoded.origin_ts_ns == -1

    def test_flag_set_on_kind_byte_only_when_traced(self):
        frame = data_frame(channel=1, seq=2, payload=[5])
        plain = encode_frame(frame)
        traced = encode_frame(frame, self._ctx())
        assert plain[1] & TRACE_FLAG == 0
        assert traced[1] & TRACE_FLAG
        assert len(traced) == len(plain) + 4 * TRACE_CTX_WORDS

    def test_empty_payload_frame_carries_context(self):
        frame = Frame(kind=FrameKind.CREDIT_UPDATE, channel=2, seq=0, aux=64)
        decoded = decode_one(seal(frame, self._ctx(origin=42)))
        assert decoded.payload == ()
        assert decoded.origin == 42

    def test_oversized_payload_plus_context_rejected(self):
        frame = data_frame(
            channel=1, seq=0,
            payload=list(range(MAX_PAYLOAD_WORDS - TRACE_CTX_WORDS + 1)))
        encode_frame(frame)  # fits untraced
        with pytest.raises(FrameError):
            encode_frame(frame, self._ctx())

    def test_flagged_frame_too_short_for_context_rejected(self):
        """A TRACE_FLAG frame whose payload cannot hold the suffix is
        a FrameError, not a decodable frame."""
        frame = Frame(kind=FrameKind.DATA, channel=1, seq=0,
                      payload=(1, 2))
        body = bytearray(encode_frame(frame))
        body[1] |= TRACE_FLAG
        # A matching trailer, so only the flag is "damaged": the reject
        # must come from the too-short-for-context check, not the CRC.
        with pytest.raises(FrameError) as excinfo:
            decode_datagram(reseal(body))
        assert "trace context" in str(excinfo.value)

    def test_traced_subframes_survive_batching(self):
        frames = [data_frame(channel=1, seq=i, payload=[i]) for i in range(3)]
        wires = [encode_frame(f, trace_context_words(9, 1000 + i))
                 for i, f in enumerate(frames)]
        decoded = decode_datagram(encode_batch(wires))
        assert [d.origin for d in decoded] == [9, 9, 9]
        assert [d.origin_ts_ns for d in decoded] == [1000, 1001, 1002]
        assert [d.payload for d in decoded] == [(0,), (1,), (2,)]
