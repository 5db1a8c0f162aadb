"""Unit tests for the runtime wire format."""

import random

import pytest

from repro.runtime.frames import (
    Frame,
    TRACE_CTX_WORDS,
    TRACE_FLAG,
    parse_trace_context,
    trace_context_words,
    FrameCorruption,
    FrameError,
    FrameKind,
    MAX_CHANNEL,
    MAX_PAYLOAD_WORDS,
    WORD_MASK,
    data_frame,
    decode_frame,
    encode_batch,
    encode_frame,
    is_batch,
    iter_batch,
    epoch_reply_frame,
    epoch_req_frame,
)


class TestRoundTrip:
    def test_data_frame_round_trips(self):
        frame = data_frame(channel=3, seq=41, payload=[1, 2, 3, 4], aux=7)
        assert decode_frame(encode_frame(frame)) == frame

    def test_empty_payload_round_trips(self):
        frame = Frame(kind=FrameKind.ACK, channel=1, seq=9)
        assert decode_frame(encode_frame(frame)) == frame

    @pytest.mark.parametrize("kind", list(FrameKind))
    def test_every_kind_round_trips(self, kind):
        frame = Frame(kind=kind, channel=2, seq=5, aux=1024, payload=(10, 20))
        assert decode_frame(encode_frame(frame)) == frame

    def test_out_of_range_words_rejected_not_masked(self):
        # Regression: encode_frame used to mask this to (5,) — a silent
        # corruption.  Out-of-range fields must refuse to encode.
        frame = data_frame(channel=1, seq=0, payload=[(1 << 40) + 5])
        with pytest.raises(FrameError):
            encode_frame(frame)

    def test_large_payload(self):
        payload = tuple(range(256))
        frame = data_frame(channel=1, seq=1, payload=payload)
        assert decode_frame(encode_frame(frame)).payload == payload


class TestDecodeErrors:
    def test_truncated_header_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"\xc5\x01")

    def test_bad_magic_rejected(self):
        data = bytearray(encode_frame(data_frame(1, 0, [1])))
        data[0] = 0x00
        with pytest.raises(FrameError):
            decode_frame(bytes(data))

    def test_unknown_kind_rejected(self):
        data = bytearray(encode_frame(data_frame(1, 0, [1])))
        data[1] = 0xEE
        with pytest.raises(FrameError):
            decode_frame(bytes(data))

    def test_truncated_payload_rejected(self):
        data = encode_frame(data_frame(1, 0, [1, 2, 3]))
        with pytest.raises(FrameError):
            decode_frame(data[:-2])

    def test_trailing_garbage_rejected(self):
        data = encode_frame(data_frame(1, 0, [1]))
        with pytest.raises(FrameError):
            decode_frame(data + b"\x00")

    def test_oversized_payload_rejected_at_construction(self):
        with pytest.raises(FrameError):
            data_frame(1, 0, list(range(MAX_PAYLOAD_WORDS + 1)))


class TestChecksum:
    """The frame CRC must catch single-bit wire damage anywhere."""

    def test_payload_bit_flip_raises_corruption(self):
        data = bytearray(encode_frame(data_frame(1, 7, [1, 2, 3])))
        data[-1] ^= 0x01
        with pytest.raises(FrameCorruption):
            decode_frame(bytes(data))

    def test_header_bit_flip_raises_corruption(self):
        data = bytearray(encode_frame(data_frame(1, 7, [1, 2, 3])))
        data[4] ^= 0x80  # inside the header fields, past the magic
        with pytest.raises(FrameCorruption):
            decode_frame(bytes(data))

    def test_crc_field_bit_flip_raises_corruption(self):
        frame = data_frame(1, 7, [1, 2, 3])
        encoded = encode_frame(frame)
        for offset in range(len(encoded)):
            for bit in range(8):
                data = bytearray(encoded)
                data[offset] ^= 1 << bit
                with pytest.raises(FrameError):
                    decode_frame(bytes(data))

    def test_corruption_is_a_frame_error(self):
        # Callers that guard with `except FrameError` must keep working.
        assert issubclass(FrameCorruption, FrameError)


class TestChaosHelpers:
    def test_epoch_req_carries_proposal_and_base(self):
        frame = epoch_req_frame(5, proposed_epoch=3, base_seq=42)
        decoded = decode_frame(encode_frame(frame))
        assert decoded.kind is FrameKind.EPOCH_REQ
        assert (decoded.channel, decoded.seq, decoded.aux) == (5, 3, 42)

    def test_epoch_reply_carries_expected_epoch_and_sacks(self):
        frame = epoch_reply_frame(5, next_expected=17, epoch=3, sacks=(19, 21))
        decoded = decode_frame(encode_frame(frame))
        assert decoded.kind is FrameKind.EPOCH_REPLY
        assert (decoded.seq, decoded.aux) == (17, 3)
        assert decoded.payload == (19, 21)

    def test_kind_10_is_rejected_as_unknown(self):
        data = bytearray(encode_frame(Frame(kind=FrameKind.ACK, channel=4,
                                            seq=99)))
        data[1] = 10  # the kind byte follows the magic byte
        with pytest.raises(FrameError, match="^unknown frame kind 10$"):
            decode_frame(bytes(data))

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
        assert decode_frame(encode_frame(frame)) == frame

    def test_error_message_names_the_bad_field(self):
        frame = Frame(kind=FrameKind.DATA, channel=MAX_CHANNEL + 7, seq=0)
        with pytest.raises(FrameError, match="channel"):
            encode_frame(frame)


class TestPropertyRoundTrip:
    """Seeded-random property tests: arbitrary frames must survive
    encode/decode exactly; every corruption and truncation must raise
    a typed error, never return a wrong frame."""

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
            again = decode_frame(encode_frame(frame))
            assert again == frame

    def test_decode_accepts_memoryview_and_bytearray(self):
        frame = data_frame(channel=9, seq=3, payload=(1, 2, 3))
        wire = encode_frame(frame)
        assert decode_frame(memoryview(wire)) == frame
        assert decode_frame(bytearray(wire)) == frame

    def test_every_truncation_length_raises(self):
        wire = encode_frame(data_frame(channel=5, seq=8,
                                       payload=tuple(range(6))))
        for cut in range(len(wire)):
            with pytest.raises(FrameError):
                decode_frame(wire[:cut])

    def test_corrupt_byte_at_every_offset_raises(self):
        """Flip one bit at every byte offset: the CRC (or a header
        check) must catch all of them — no offset may decode to a
        silently different frame."""
        frame = data_frame(channel=5, seq=8, aux=2, payload=tuple(range(6)))
        wire = encode_frame(frame)
        for offset in range(len(wire)):
            for bit in (0x01, 0x80):
                damaged = bytearray(wire)
                damaged[offset] ^= bit
                with pytest.raises(FrameError):
                    decode_frame(bytes(damaged))


class TestBatchContainer:
    """The container frame: coalesced sub-frames must decode back
    exactly, in order, with corruption and truncation localized."""

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
        assert is_batch(batch)
        decoded = [decode_frame(view) for view in iter_batch(batch)]
        assert decoded == frames

    def test_single_frame_datagram_is_not_a_batch(self):
        wire = encode_frame(data_frame(channel=1, seq=1, payload=(1,)))
        assert not is_batch(wire)

    def test_arbitrary_batches_round_trip(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(60):
            frames = self._frames(rng.randint(1, 20), rng)
            batch = encode_batch([encode_frame(f) for f in frames])
            assert [decode_frame(v) for v in iter_batch(batch)] == frames

    def test_empty_batch_rejected(self):
        with pytest.raises(FrameError):
            encode_batch([])

    def test_truncated_batch_raises_at_every_cut(self):
        frames = self._frames(4)
        batch = encode_batch([encode_frame(f) for f in frames])
        for cut in range(len(batch)):
            with pytest.raises(FrameError):
                list(iter_batch(batch[:cut]))

    def test_trailing_garbage_after_last_subframe_rejected(self):
        batch = encode_batch([encode_frame(f) for f in self._frames(2)])
        with pytest.raises(FrameError):
            list(iter_batch(batch + b"\x00"))

    def test_corruption_is_localized_to_one_subframe(self):
        """A bit flip inside sub-frame k must fail *that* sub-frame's
        CRC while its siblings still decode — loss stays per-frame."""
        frames = self._frames(5)
        wires = [encode_frame(f) for f in frames]
        batch = bytearray(encode_batch(wires))
        # Find the middle sub-frame's payload region and damage it.
        offset = 4  # container prefix
        for wire in wires[:2]:
            offset += 2 + len(wire)
        victim_at = offset + 2 + len(wires[2]) - 1  # last byte of frame 2
        batch[victim_at] ^= 0x40
        results = []
        for view in iter_batch(bytes(batch)):
            try:
                results.append(decode_frame(view))
            except FrameCorruption:
                results.append(None)
        assert results[2] is None
        survivors = [r for i, r in enumerate(results) if i != 2]
        assert survivors == [frames[0], frames[1], frames[3], frames[4]]

    def test_corrupt_byte_at_every_batch_offset_never_misdecodes(self):
        """Damage every byte of a container: each sub-frame either
        decodes to exactly its original or raises — never a wrong
        frame.  (Framing damage may surface as a container-level
        FrameError; that is tail loss, not corruption.)"""
        frames = self._frames(3)
        wires = [encode_frame(f) for f in frames]
        batch = encode_batch(wires)
        for offset in range(len(batch)):
            damaged = bytearray(batch)
            damaged[offset] ^= 0x10
            try:
                for i, view in enumerate(iter_batch(bytes(damaged))):
                    try:
                        decoded = decode_frame(view)
                    except FrameError:
                        continue
                    if i < len(frames):
                        assert decoded == frames[i]
            except FrameError:
                pass  # framing damage: detected, not silently decoded


class TestTraceContext:
    """The optional wire-propagated trace-context suffix (ISSUE 8)."""

    CTX_TS = 0x1_2345_6789A  # > 32 bits, exercises the hi/lo split

    def _ctx(self, origin=0xDEADBEEF, ts_ns=CTX_TS):
        return trace_context_words(origin, ts_ns)

    def test_suffix_round_trips(self):
        frame = data_frame(channel=3, seq=41, payload=[1, 2, 3], aux=7)
        wire = encode_frame(frame, self._ctx())
        decoded = decode_frame(wire)
        assert decoded.payload == (1, 2, 3)
        assert decoded.origin == 0xDEADBEEF
        assert decoded.origin_ts_ns == self.CTX_TS

    def test_traced_and_untraced_frames_compare_equal_on_wire_fields(self):
        frame = data_frame(channel=3, seq=41, payload=[1, 2, 3], aux=7)
        decoded = decode_frame(encode_frame(frame, self._ctx()))
        assert (decoded.kind, decoded.channel, decoded.seq, decoded.aux,
                decoded.payload) == (frame.kind, frame.channel, frame.seq,
                                     frame.aux, frame.payload)

    def test_untraced_decode_leaves_context_absent(self):
        frame = data_frame(channel=1, seq=2, payload=[9, 9, 9])
        decoded = decode_frame(encode_frame(frame))
        assert decoded.origin == -1
        assert decoded.origin_ts_ns == -1

    def test_flag_set_on_kind_byte_only_when_traced(self):
        frame = data_frame(channel=1, seq=2, payload=[5])
        plain = encode_frame(frame)
        traced = encode_frame(frame, self._ctx())
        assert plain[1] & TRACE_FLAG == 0
        assert traced[1] & TRACE_FLAG
        assert len(traced) == len(plain) + 4 * TRACE_CTX_WORDS

    def test_parse_trace_context_inverts_trace_context_words(self):
        words = trace_context_words(7, self.CTX_TS)
        assert parse_trace_context(words) == (7, self.CTX_TS)

    def test_empty_payload_frame_carries_context(self):
        frame = Frame(kind=FrameKind.CREDIT_UPDATE, channel=2, seq=0, aux=64)
        decoded = decode_frame(encode_frame(frame, self._ctx(origin=42)))
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
        wire damage, not a decodable frame."""
        frame = Frame(kind=FrameKind.DATA, channel=1, seq=0,
                      payload=(1, 2))
        import struct
        import zlib

        wire = bytearray(encode_frame(frame))
        wire[1] |= TRACE_FLAG
        # Recompute the CRC so only the flag is "damaged" — the reject
        # must come from the too-short-for-context check, not the CRC.
        crc = zlib.crc32(bytes(wire[18:]), zlib.crc32(bytes(wire[:14])))
        wire[14:18] = struct.pack("!I", crc)
        with pytest.raises(FrameError) as excinfo:
            decode_frame(bytes(wire))
        assert "trace context" in str(excinfo.value)

    def test_traced_subframes_survive_batching(self):
        frames = [data_frame(channel=1, seq=i, payload=[i]) for i in range(3)]
        wires = [encode_frame(f, trace_context_words(9, 1000 + i))
                 for i, f in enumerate(frames)]
        batch = encode_batch(wires)
        decoded = [decode_frame(v) for v in iter_batch(batch)]
        assert [d.origin for d in decoded] == [9, 9, 9]
        assert [d.origin_ts_ns for d in decoded] == [1000, 1001, 1002]
        assert [d.payload for d in decoded] == [(0,), (1,), (2,)]
