"""Wire frames for the live runtime.

The simulator moves word tuples through a modeled NI; the runtime moves
real datagrams through real transports, so it needs an actual wire
format.  A :class:`Frame` is the runtime analogue of one CM-5 packet:
a fixed header (kind, logical channel, sequence/transfer id, an
auxiliary word for offsets/totals) followed by the payload words, each
packed as a 32-bit big-endian unsigned integer — mirroring the word
granularity the paper's instruction counts are expressed in.

A *datagram* is one or more frames back to back, then a 4-byte CRC-32
trailer over every byte before it.  A frame is its 14-byte header
(magic, kind, channel, seq, aux, payload word count) and then its
payload words, so each header delimits its own frame: frames need no
length prefix, and a lone frame and a batch of frames are the same
format.  The trailer is little-endian, so the CRC of a whole intact
datagram is the constant :data:`CRC_RESIDUE`, and the receiver checks
a datagram with one ``zlib.crc32`` call (the CRC is linear, so this
catches exactly the damage that recomputing and comparing would).

Both the loopback and the UDP transport carry these datagrams
unchanged.  Decode failures surface as :class:`FrameError`, so a
damaged datagram degrades into a drop (which the fault-tolerance
machinery already recovers from) instead of a crash; a CRC mismatch is
:class:`FrameCorruption`, a subclass the endpoint counts separately.
One CRC per datagram means bit damage loses the whole datagram, every
frame in it.

Hot-path design (the ``frames`` rows of the benchmark's call and time
ledgers in ``bench/`` count what these cost per message):

* :func:`encode_frame` packs header and payload with one per-arity
  ``struct.Struct``, compiled on first use and found by list index;
* :func:`encode_batch` seals frames into a datagram: one join, one CRC;
* :func:`decode_frame` parses the frame at an offset and returns it
  with the offset of the next, bounded by where the trailer starts;
  :func:`decode_datagram` checks the trailer and walks every frame
  (the endpoint runs the same check and walk inline);
* a :class:`Frame` is built in one call.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

#: First header byte of every runtime frame ("C5" — the machine).
MAGIC = 0xC5

#: Frame header: magic, kind, channel, seq, aux, payload word count.
_HEADER = struct.Struct("!BBHIIH")

#: Frame header size on the wire; the payload words follow it.
HEADER_BYTES = _HEADER.size

#: Fields of a decoded header, ahead of the payload words.
_HEADER_FIELDS = 6

#: Datagram trailer: CRC-32 of every byte before it, little-endian.
_TRAILER = struct.Struct("<I")
TRAILER_BYTES = _TRAILER.size

#: ``zlib.crc32`` of any datagram whose trailer matches its bytes (the
#: CRC-32 residue of a message followed by its own little-endian CRC).
CRC_RESIDUE = 0x2144DF1C

#: Payload words are 32-bit unsigned, like the CM-5's network words.
WORD_MASK = 0xFFFFFFFF

#: Largest channel id a frame header can carry (16-bit field).
MAX_CHANNEL = 0xFFFF

#: Largest payload a single frame may carry (far above any packet size
#: the protocols use; a guard against runaway senders).
MAX_PAYLOAD_WORDS = 4096

#: Keep datagrams under the classic UDP payload ceiling so the same
#: batches work over real sockets.
MAX_BATCH_BYTES = 60000

#: High bit of the kind byte: set when the payload ends with a
#: piggybacked trace-context suffix (see :func:`trace_context_words`).
#: Flow control's credit suffix needs no in-band marker because both
#: sides of an armed channel *agree* it is present; trace context is
#: appended only while the sender's tracer is enabled — a runtime
#: condition the receiver cannot know — so its presence must be
#: explicit on the wire.  :class:`FrameKind` values stay below 0x80.
TRACE_FLAG = 0x80

#: Width of the trace-context suffix: origin endpoint id (CRC-32 of the
#: endpoint name), then the 64-bit send timestamp split hi/lo.
TRACE_CTX_WORDS = 3

Buffer = Union[bytes, bytearray, memoryview]


class FrameError(ValueError):
    """A datagram could not be decoded as a runtime frame — or a frame
    carries a field that cannot be represented on the wire."""


class FrameCorruption(FrameError):
    """A datagram failed its CRC check (bit damage)."""


class FrameKind(enum.IntEnum):
    """What a frame means to the protocol state machines."""

    DATA = 1          #: payload-carrying packet (seq = sequence number / transfer id)
    ACK = 2           #: per-packet acknowledgement (seq = acknowledged seq)
    ALLOC_REQ = 3     #: finite-sequence step 1: request a segment (aux = total words)
    ALLOC_REPLY = 4   #: finite-sequence step 3: segment granted (seq = transfer id)
    DEALLOC = 5      #: finite-sequence step 5: transfer finished, free the segment
    FINAL_ACK = 6    #: finite-sequence step 6: cumulative ack — aux = contiguous
                     #: word high-water mark; payload = selectively received
                     #: packet offsets beyond it (empty when complete)
    CUM_ACK = 7      #: stream cumulative ack — seq = receiver's next expected
                     #: sequence number (everything below is delivered);
                     #: aux = channel epoch; payload = out-of-order seqs
                     #: parked in the reorder buffer (selective acks)
    EPOCH_REQ = 8    #: channel recovery probe — seq = proposed epoch,
                     #: aux = sender's lowest unacknowledged sequence number
    EPOCH_REPLY = 9  #: recovery grant — seq = receiver's next expected
                     #: sequence number (a definitive cumulative ack),
                     #: aux = granted epoch, payload = selective acks
    # 10 is unassigned; a datagram carrying it is rejected as unknown.
    CREDIT_UPDATE = 11  #: flow control — receiver→sender: payload = 4-word
                        #: cumulative grant totals (see
                        #: :mod:`repro.runtime.flowcontrol`), aux = epoch;
                        #: sender→receiver with an *empty* payload: a credit
                        #: probe asking for a fresh advertisement
    COLL_HDR = 12    #: collective transfer announcement — seq = op id,
                     #: aux = total payload words, payload[0] = protocol
                     #: (0 eager / 1 rendezvous); rendezvous data waits
                     #: for the matching COLL_GRANT before moving
    COLL_GRANT = 13  #: rendezvous grant (receiver → sender) — seq = op id,
                     #: aux = granted words; admission control may defer it
                     #: until bulk-buffer budget frees up
    COLL_DONE = 14   #: collective completion (receiver → initiator) —
                     #: seq = op id, aux = words received; closes the
                     #: initiator's end-to-end timing for that peer
    PING = 15        #: SWIM direct probe — seq = probe id, aux = sender's
                     #: incarnation; payload = piggybacked gossip updates
    PING_REQ = 16    #: SWIM indirect probe request (origin → proxy) —
                     #: seq = origin's probe id, payload[0] = target peer
                     #: id, rest = gossip updates
    PING_ACK = 17    #: SWIM probe acknowledgement — seq = echoed probe
                     #: id, aux = the acked member's incarnation,
                     #: payload[0] = subject peer id, rest = gossip


#: Member by value (``None`` where unassigned), indexed by the kind byte
#: without :data:`TRACE_FLAG`: cheaper than the enum's ``__call__`` or a
#: dict lookup on the decode hot path.
_KIND_BY_VALUE: List[Optional[FrameKind]] = [None] * TRACE_FLAG
for _kind in FrameKind:
    _KIND_BY_VALUE[_kind] = _kind

#: Frame kinds eligible to carry the piggybacked trace-context suffix.
#: DATA is the journey backbone; the EPOCH pair and CREDIT_UPDATE ride
#: along so recovery and flow-control traffic shows up in cross-peer
#: timelines too.  Pure acks are excluded — their payload tail is
#: already claimed by the sack list + optional credit suffix.
TRACE_CTX_KINDS = frozenset({
    FrameKind.DATA, FrameKind.EPOCH_REQ, FrameKind.EPOCH_REPLY,
    FrameKind.CREDIT_UPDATE, FrameKind.COLL_HDR, FrameKind.COLL_GRANT,
    FrameKind.COLL_DONE,
})


@dataclass(frozen=True, init=False)
class Frame:
    """One decoded runtime frame.

    ``origin`` / ``origin_ts_ns`` are the piggybacked trace context
    (origin endpoint id, sender's ``perf_counter_ns`` at SEND) carried
    by a :data:`TRACE_FLAG`-marked frame; ``-1`` when absent.  They
    are decode-side outputs only — :func:`encode_frame` takes the
    suffix as an explicit argument, never from these fields.

    Construction is one call: ``__init__`` fills the instance dict
    directly instead of the generated ``object.__setattr__`` per field
    plus a ``__post_init__``.  Assigning a field still raises
    ``FrozenInstanceError``.
    """

    kind: FrameKind
    channel: int
    seq: int = 0
    aux: int = 0
    payload: Tuple[int, ...] = ()
    origin: int = -1
    origin_ts_ns: int = -1

    def __init__(self, kind: FrameKind, channel: int, seq: int = 0,
                 aux: int = 0, payload: Tuple[int, ...] = (),
                 origin: int = -1, origin_ts_ns: int = -1) -> None:
        if payload[MAX_PAYLOAD_WORDS:]:  # a slice test: no len() call
            raise FrameError(
                f"payload of {len(payload)} words exceeds {MAX_PAYLOAD_WORDS}"
            )
        fields = self.__dict__
        fields["kind"] = kind
        fields["channel"] = channel
        fields["seq"] = seq
        fields["aux"] = aux
        fields["payload"] = payload
        fields["origin"] = origin
        fields["origin_ts_ns"] = origin_ts_ns

    @property
    def words(self) -> int:
        return len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Frame({self.kind.name}, ch={self.channel}, seq={self.seq}, "
            f"aux={self.aux}, {len(self.payload)}w)"
        )


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

#: Per-arity frame packers (header plus ``n`` payload words) by word
#: count, compiled on first use (see :func:`_frame_struct`).
#: ``struct.pack(fmt, ...)`` re-parses its format on every call; these
#: do not.
_FRAME_STRUCTS: List[Optional[struct.Struct]] = [None] * (MAX_PAYLOAD_WORDS + 1)


def _frame_struct(count: int) -> struct.Struct:
    packer = _FRAME_STRUCTS[count] = struct.Struct(f"{_HEADER.format}{count}I")
    return packer


def _field_error(frame: Frame) -> FrameError:
    """Diagnose which field made ``struct`` refuse to pack."""
    if not isinstance(frame.kind, FrameKind):
        return FrameError(f"kind {frame.kind!r} is not a FrameKind")
    if not 0 <= frame.channel <= MAX_CHANNEL:
        return FrameError(
            f"channel {frame.channel} outside the 16-bit wire field "
            f"[0, {MAX_CHANNEL}]"
        )
    if not 0 <= frame.seq <= WORD_MASK:
        return FrameError(f"seq {frame.seq} outside the 32-bit wire field")
    if not 0 <= frame.aux <= WORD_MASK:
        return FrameError(f"aux {frame.aux} outside the 32-bit wire field")
    for index, word in enumerate(frame.payload):
        if not 0 <= word <= WORD_MASK:
            return FrameError(
                f"payload word {index} ({word}) outside the 32-bit wire field"
            )
    return FrameError(f"unencodable frame {frame!r}")  # pragma: no cover


def encode_frame(frame: Frame,
                 trace_ctx: Optional[Tuple[int, ...]] = None) -> bytes:
    """Serialize a frame to its wire bytes: header, then payload.

    The result is not yet a datagram: :func:`encode_batch` seals one or
    more encoded frames behind a CRC trailer.

    Out-of-range fields raise :class:`FrameError` instead of silently
    wrapping: a channel id past 16 bits or a sequence number past 2^32
    would otherwise alias another channel/packet on the wire — a silent
    correctness bug, not an encoding detail.

    ``trace_ctx`` (the 3-word suffix from :func:`trace_context_words`)
    rides behind the payload with :data:`TRACE_FLAG` set on the kind
    byte, so receivers strip it unambiguously regardless of their own
    tracer state.
    """
    payload = frame.payload
    count = len(payload)
    kind_byte = frame.kind
    if trace_ctx is not None:
        if count + TRACE_CTX_WORDS > MAX_PAYLOAD_WORDS:
            raise FrameError(
                f"payload of {count} words leaves no room for the "
                f"{TRACE_CTX_WORDS}-word trace context"
            )
        payload = payload + trace_ctx
        count += TRACE_CTX_WORDS
        kind_byte |= TRACE_FLAG
    try:
        return (_FRAME_STRUCTS[count] or _frame_struct(count)).pack(
            MAGIC, kind_byte, frame.channel, frame.seq, frame.aux, count,
            *payload)
    except (struct.error, TypeError):
        raise _field_error(frame) from None


def encode_batch(frames: Sequence[bytes]) -> bytes:
    """Seal encoded frames, one or many, into one datagram: the frames
    back to back, then the CRC-32 of all of them."""
    if not frames:
        raise FrameError("cannot seal a datagram with no frames")
    body = b"".join(frames)
    return body + _TRAILER.pack(zlib.crc32(body))


def decode_frame(data: Buffer, offset: int, end: int) -> Tuple[Frame, int]:
    """Parse the frame at ``offset`` of a datagram whose frames stop at
    ``end`` (where the trailer starts); return it with the offset just
    past it.

    Works on any buffer (``bytes``, ``bytearray``, ``memoryview``) and
    does not check the CRC: the caller checks the whole datagram once
    (see :func:`decode_datagram`).  Raises :class:`FrameError` on a
    short header, bad magic, an unknown kind, a count above
    :data:`MAX_PAYLOAD_WORDS`, a payload running past ``end``, or a
    flagged frame too short for its trace context.
    """
    start = offset + HEADER_BYTES
    if start > end:
        raise FrameError(
            f"{end - offset} bytes left, shorter than a frame header")
    magic, kind, channel, seq, aux, count = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise FrameError(f"bad magic byte 0x{magic:02x}")
    frame_kind = _KIND_BY_VALUE[kind & ~TRACE_FLAG]
    if frame_kind is None:
        raise FrameError(f"unknown frame kind {kind & ~TRACE_FLAG}")
    if count > MAX_PAYLOAD_WORDS:
        raise FrameError(
            f"frame declares {count} payload words, more than {MAX_PAYLOAD_WORDS}"
        )
    stop = start + 4 * count
    if stop > end:
        raise FrameError(
            f"frame declares {count} payload words ({4 * count} bytes) "
            f"but only {end - start} bytes remain before the trailer"
        )
    traced = kind & TRACE_FLAG
    if traced and count < TRACE_CTX_WORDS:
        raise FrameError(
            f"{frame_kind.name} frame flags a trace context but carries "
            f"only {count} payload words"
        )
    if not count:
        return Frame(frame_kind, channel, seq, aux), stop
    # The per-arity struct re-reads the header: one call for the payload.
    fields = (_FRAME_STRUCTS[count] or _frame_struct(count)).unpack_from(
        data, offset)
    if not traced:
        return Frame(frame_kind, channel, seq, aux,
                     fields[_HEADER_FIELDS:]), stop
    return Frame(frame_kind, channel, seq, aux,
                 fields[_HEADER_FIELDS:-TRACE_CTX_WORDS], fields[-3],
                 (fields[-2] << 32) | fields[-1]), stop


def decode_datagram(data: Buffer) -> List[Frame]:
    """Check a datagram's CRC trailer, then decode its frames in order.

    Raises :class:`FrameCorruption` when the CRC does not match (bit
    damage anywhere, trailer included) and :class:`FrameError` when
    intact bytes do not parse as frames (see :func:`decode_frame`); a
    datagram carries at least one frame.
    """
    if zlib.crc32(data) != CRC_RESIDUE:
        raise FrameCorruption(
            f"CRC mismatch on a datagram of {len(data)} bytes")
    end = len(data) - TRAILER_BYTES
    frames: List[Frame] = []
    offset = 0
    while True:
        frame, offset = decode_frame(data, offset, end)
        frames.append(frame)
        if offset == end:
            return frames


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------


def data_frame(channel: int, seq: int, payload: Sequence[int], aux: int = 0) -> Frame:
    """Convenience constructor for the common payload-carrying case."""
    return Frame(FrameKind.DATA, channel, seq, aux, tuple(payload))


def cum_ack_frame(channel: int, next_expected: int,
                  sacks: Sequence[int] = (), epoch: int = 0,
                  credit: Optional[Tuple[int, ...]] = None) -> Frame:
    """A stream cumulative acknowledgement.

    ``next_expected`` acknowledges every sequence number below it;
    ``sacks`` selectively acknowledges out-of-order packets parked
    beyond the contiguous point; ``epoch`` is the receiver's current
    channel epoch (bumped by crash-recovery renegotiation).

    When flow control is armed on the channel, ``credit`` (the 4-word
    suffix from :func:`repro.runtime.flowcontrol.credit_words`) rides
    behind the sacks for free — a lost ``CREDIT_UPDATE`` is healed by
    the very next ack.  Both sides of a channel agree on whether the
    suffix is present, so the payload stays self-consistent without an
    in-band marker.
    """
    payload = tuple(sacks)
    if credit is not None:
        payload += tuple(credit)
    return Frame(
        kind=FrameKind.CUM_ACK, channel=channel, seq=next_expected,
        aux=epoch, payload=payload,
    )


def epoch_req_frame(channel: int, proposed_epoch: int, base_seq: int) -> Frame:
    """A channel-recovery probe: the sender proposes a new epoch and
    names its lowest unacknowledged sequence number (``base_seq``)."""
    return Frame(
        kind=FrameKind.EPOCH_REQ, channel=channel, seq=proposed_epoch,
        aux=base_seq,
    )


def epoch_reply_frame(channel: int, next_expected: int, epoch: int,
                      sacks: Sequence[int] = (),
                      credit: Optional[Tuple[int, ...]] = None) -> Frame:
    """The receiver's recovery grant: a definitive cumulative ack
    (``next_expected``) under the granted ``epoch``.  ``credit`` is the
    same optional 4-word flow-control suffix ``CUM_ACK`` carries, so a
    renegotiated channel resynchronizes its credit state in the same
    frame that restores its sequence state."""
    payload = tuple(sacks)
    if credit is not None:
        payload += tuple(credit)
    return Frame(
        kind=FrameKind.EPOCH_REPLY, channel=channel, seq=next_expected,
        aux=epoch, payload=payload,
    )


def credit_update_frame(channel: int, credit: Sequence[int],
                        epoch: int = 0) -> Frame:
    """A standalone flow-control advertisement (receiver → sender).

    ``credit`` is the 4-word cumulative grant encoding from
    :func:`repro.runtime.flowcontrol.credit_words`; being cumulative,
    the frame is idempotent and safe to lose — any later advertisement
    (standalone, piggybacked, or an ``EPOCH_REPLY``) supersedes it.
    """
    return Frame(kind=FrameKind.CREDIT_UPDATE, channel=channel,
                 aux=epoch, payload=tuple(credit))


#: Collective protocol discriminators carried in ``COLL_HDR.payload[0]``.
COLL_PROTO_EAGER = 0
COLL_PROTO_RENDEZVOUS = 1


def coll_hdr_frame(channel: int, op_id: int, total_words: int,
                   protocol: int) -> Frame:
    """A collective transfer announcement (initiator → peer).

    ``protocol`` is :data:`COLL_PROTO_EAGER` (data is already on its
    way into pre-granted credit) or :data:`COLL_PROTO_RENDEZVOUS` (data
    waits for the peer's :func:`coll_grant_frame`)."""
    return Frame(kind=FrameKind.COLL_HDR, channel=channel, seq=op_id,
                 aux=total_words, payload=(protocol,))


def coll_grant_frame(channel: int, op_id: int, granted_words: int) -> Frame:
    """A rendezvous grant: the peer's bulk buffer can take the transfer."""
    return Frame(kind=FrameKind.COLL_GRANT, channel=channel, seq=op_id,
                 aux=granted_words)


def coll_done_frame(channel: int, op_id: int, words_received: int) -> Frame:
    """A collective completion receipt (peer → initiator)."""
    return Frame(kind=FrameKind.COLL_DONE, channel=channel, seq=op_id,
                 aux=words_received)


def trace_context_words(origin_id: int, ts_ns: int) -> Tuple[int, int, int]:
    """Pack a trace context into its 3-word wire suffix.

    ``origin_id`` identifies the sending endpoint (the runtime uses
    CRC-32 of the endpoint name); ``ts_ns`` is the sender's
    ``perf_counter_ns`` at the SEND instant, split into two 32-bit
    words.  The same timestamp is recorded on the sender's SEND trace
    event, so a receiver-side RECV carrying this context names its
    exact sending event — the join key cross-peer journey
    reconstruction is built on.
    """
    return (
        origin_id & WORD_MASK,
        (ts_ns >> 32) & WORD_MASK,
        ts_ns & WORD_MASK,
    )


# ---------------------------------------------------------------------------
# SWIM membership: probes + piggybacked gossip
# ---------------------------------------------------------------------------

#: Width of one piggybacked membership update on the wire: subject peer
#: id (CRC-32 of the peer name, the same convention as the endpoint's
#: ``trace_origin``), the update code, and the incarnation number.
GOSSIP_UPDATE_WORDS = 3

#: Membership update codes carried in gossip words.  ``REFUTE`` is an
#: ALIVE assertion from the accused member itself — it outranks a
#: SUSPECT at the *same* incarnation, which plain second-hand ALIVE
#: does not.
GOSSIP_JOIN = 0
GOSSIP_ALIVE = 1
GOSSIP_SUSPECT = 2
GOSSIP_DEAD = 3
GOSSIP_LEFT = 4
GOSSIP_REFUTE = 5

_GOSSIP_CODES = frozenset((
    GOSSIP_JOIN, GOSSIP_ALIVE, GOSSIP_SUSPECT,
    GOSSIP_DEAD, GOSSIP_LEFT, GOSSIP_REFUTE,
))


def encode_gossip(updates: Sequence[Tuple[int, int, int]]) -> Tuple[int, ...]:
    """Pack ``(peer_id, code, incarnation)`` updates into payload words."""
    words: List[int] = []
    for peer_id, code, incarnation in updates:
        if code not in _GOSSIP_CODES:
            raise FrameError(f"unknown gossip code {code}")
        words.append(peer_id & WORD_MASK)
        words.append(code)
        words.append(incarnation & WORD_MASK)
    return tuple(words)


def decode_gossip(words: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Inverse of :func:`encode_gossip`.

    A ragged tail (length not a multiple of the update width) raises
    :class:`FrameError` — the datagram CRC already rules out bit damage,
    so a ragged gossip block is a sender bug worth surfacing loudly.
    """
    if len(words) % GOSSIP_UPDATE_WORDS:
        raise FrameError(
            f"gossip block of {len(words)} words is not a multiple "
            f"of {GOSSIP_UPDATE_WORDS}"
        )
    updates: List[Tuple[int, int, int]] = []
    for index in range(0, len(words), GOSSIP_UPDATE_WORDS):
        code = words[index + 1]
        if code not in _GOSSIP_CODES:
            raise FrameError(f"unknown gossip code {code}")
        updates.append((words[index], code, words[index + 2]))
    return updates


def ping_frame(channel: int, probe_id: int, incarnation: int,
               gossip: Sequence[int] = ()) -> Frame:
    """A SWIM direct probe carrying the sender's own incarnation."""
    return Frame(kind=FrameKind.PING, channel=channel, seq=probe_id,
                 aux=incarnation, payload=tuple(gossip))


def ping_req_frame(channel: int, probe_id: int, target_id: int,
                   gossip: Sequence[int] = ()) -> Frame:
    """An indirect probe request: "ping ``target_id`` on my behalf"."""
    return Frame(kind=FrameKind.PING_REQ, channel=channel, seq=probe_id,
                 payload=(target_id & WORD_MASK,) + tuple(gossip))


def ping_ack_frame(channel: int, probe_id: int, subject_id: int,
                   incarnation: int, gossip: Sequence[int] = ()) -> Frame:
    """A probe acknowledgement vouching for ``subject_id``'s liveness."""
    return Frame(kind=FrameKind.PING_ACK, channel=channel, seq=probe_id,
                 aux=incarnation,
                 payload=(subject_id & WORD_MASK,) + tuple(gossip))


def credit_probe_frame(channel: int) -> Frame:
    """A sender → receiver credit probe: "re-advertise, I'm starved".

    Distinguished from an advertisement by its empty payload.  Sent on
    a timer by a sender blocked on credit with nothing in flight — the
    one situation where no ack traffic exists to piggyback a grant on.
    """
    return Frame(kind=FrameKind.CREDIT_UPDATE, channel=channel)
