"""Wire frames for the live runtime.

The simulator moves word tuples through a modeled NI; the runtime moves
real datagrams through real transports, so it needs an actual wire
format.  A :class:`Frame` is the runtime analogue of one CM-5 packet:
a fixed header (kind, logical channel, sequence/transfer id, an
auxiliary word for offsets/totals) followed by the payload words, each
packed as a 32-bit big-endian unsigned integer — mirroring the word
granularity the paper's instruction counts are expressed in.

Both the loopback and the UDP transport carry these frames unchanged;
decode failures are surfaced as :class:`FrameError` so a corrupted
datagram degrades into a drop (which the fault-tolerance machinery
already recovers from) instead of a crash.

Every frame carries a CRC-32 over the rest of the header plus the
payload, so in-flight corruption (the chaos engine's bit-flips, a
misbehaving NIC) is *detected* rather than silently delivered as wrong
words: a checksum mismatch raises :class:`FrameCorruption`, a
:class:`FrameError` subclass the endpoint counts separately from other
decode failures.

Hot-path design (the per-message cost breakdown in
``repro.analysis.costbreakdown`` ranks these as the dominant codec
terms):

* encode packs prefix, checksum, and payload into **one** pooled
  ``bytearray`` (no ``prefix + crc + body`` concatenation); per-arity
  payload ``struct.Struct`` objects are compiled once and cached;
* decode works on any buffer (``bytes`` or ``memoryview``) and takes
  zero-copy ``memoryview`` slices for the checksum, so unbundling a
  batch never copies sub-frame bytes;
* several small frames bound for the same peer coalesce into a *batch
  container* datagram (:func:`encode_batch` / :func:`iter_batch`): a
  3-byte batch header followed by length-prefixed, individually
  CRC-protected sub-frames.  Receivers unbundle transparently before
  dispatch, so the protocol state machines never see the container.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: First header byte of every runtime datagram ("C5" — the machine).
MAGIC = 0xC5

#: Header layout before the checksum: magic, kind, channel, seq, aux,
#: payload word count.  The CRC-32 (over this prefix + the payload
#: body) rides directly behind it, closing out the header.
_PREFIX = struct.Struct("!BBHIIH")
_CRC = struct.Struct("!I")

#: Full header size on the wire (prefix + checksum).
HEADER_BYTES = _PREFIX.size + _CRC.size

#: Payload words are 32-bit unsigned, like the CM-5's network words.
WORD_MASK = 0xFFFFFFFF

#: Largest channel id a frame header can carry (16-bit field).
MAX_CHANNEL = 0xFFFF

#: Largest payload a single frame may carry (far above any packet size
#: the protocols use; a guard against runaway senders).
MAX_PAYLOAD_WORDS = 4096

#: Second header byte of a batch container datagram.  Outside the
#: :class:`FrameKind` value range, so a bare frame can never be
#: mistaken for a batch (or vice versa).
BATCH_BYTE = 0xB5

#: Batch container prefix: magic, batch byte, sub-frame count.
_BATCH_PREFIX = struct.Struct("!BBH")

#: Per-sub-frame length prefix inside a batch.
_SUBLEN = struct.Struct("!H")

#: Keep batch datagrams under the classic UDP payload ceiling so the
#: same container works over real sockets.
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
    """A structurally valid datagram failed its checksum (bit damage)."""


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


#: Value → member map: a dict hit is several times cheaper than the
#: enum's ``__call__`` on the decode hot path.
_KIND_BY_VALUE: Dict[int, FrameKind] = {int(kind): kind for kind in FrameKind}

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


@dataclass(frozen=True)
class Frame:
    """One decoded runtime datagram.

    ``origin`` / ``origin_ts_ns`` are the piggybacked trace context
    (origin endpoint id, sender's ``perf_counter_ns`` at SEND) carried
    by a :data:`TRACE_FLAG`-marked datagram; ``-1`` when absent.  They
    are decode-side outputs only — :func:`encode_frame` takes the
    suffix as an explicit argument, never from these fields.
    """

    kind: FrameKind
    channel: int
    seq: int = 0
    aux: int = 0
    payload: Tuple[int, ...] = ()
    origin: int = -1
    origin_ts_ns: int = -1

    def __post_init__(self) -> None:
        if len(self.payload) > MAX_PAYLOAD_WORDS:
            raise FrameError(
                f"payload of {len(self.payload)} words exceeds {MAX_PAYLOAD_WORDS}"
            )

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

#: Per-arity payload packers, compiled once.  ``struct.pack(f"!{n}I")``
#: re-parses the format string on every call; these do not.
_PAYLOAD_STRUCTS: Dict[int, struct.Struct] = {}


def _payload_struct(count: int) -> struct.Struct:
    cached = _PAYLOAD_STRUCTS.get(count)
    if cached is None:
        cached = _PAYLOAD_STRUCTS[count] = struct.Struct(f"!{count}I")
    return cached


#: Reusable encode buffers.  ``encode_frame`` borrows one, packs in
#: place, snapshots the result, and returns it — so steady-state
#: encoding allocates only the immutable result bytes.
_ENCODE_POOL: List[bytearray] = []
_ENCODE_POOL_LIMIT = 8


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
    """Serialize a frame to the datagram bytes that go on the wire.

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
    kind_byte = int(frame.kind) if isinstance(frame.kind, FrameKind) else frame.kind
    if trace_ctx is not None:
        if count + TRACE_CTX_WORDS > MAX_PAYLOAD_WORDS:
            raise FrameError(
                f"payload of {count} words leaves no room for the "
                f"{TRACE_CTX_WORDS}-word trace context"
            )
        payload = payload + tuple(trace_ctx)
        count += TRACE_CTX_WORDS
        kind_byte |= TRACE_FLAG
    size = HEADER_BYTES + 4 * count
    buf = _ENCODE_POOL.pop() if _ENCODE_POOL else bytearray(HEADER_BYTES + 64)
    if len(buf) < size:
        buf.extend(bytes(size - len(buf)))
    try:
        _PREFIX.pack_into(
            buf, 0, MAGIC, kind_byte, frame.channel, frame.seq, frame.aux, count
        )
        if count:
            _payload_struct(count).pack_into(buf, HEADER_BYTES, *payload)
    except (struct.error, TypeError):
        raise _field_error(frame) from None
    with memoryview(buf) as view:
        crc = zlib.crc32(view[HEADER_BYTES:size], zlib.crc32(view[:_PREFIX.size]))
        _CRC.pack_into(buf, _PREFIX.size, crc)
        wire = bytes(view[:size])
    if len(_ENCODE_POOL) < _ENCODE_POOL_LIMIT:
        _ENCODE_POOL.append(buf)
    return wire


def decode_frame(data: Buffer) -> Frame:
    """Parse datagram bytes back into a :class:`Frame`.

    Accepts any buffer (``bytes`` or a zero-copy ``memoryview`` slice of
    a batch container).  Raises :class:`FrameError` on bad magic,
    unknown kind, or truncation, and :class:`FrameCorruption` (a
    subclass) when the structure is intact but the checksum does not
    match — the endpoint counts the two separately so bit damage is
    visible as such.
    """
    length = len(data)
    if length < HEADER_BYTES:
        raise FrameError(f"datagram of {length} bytes is shorter than a header")
    magic, kind, channel, seq, aux, count = _PREFIX.unpack_from(data)
    if magic != MAGIC:
        raise FrameError(f"bad magic byte 0x{magic:02x}")
    traced = kind & TRACE_FLAG
    if traced:
        kind &= ~TRACE_FLAG
    frame_kind = _KIND_BY_VALUE.get(kind)
    if frame_kind is None:
        raise FrameError(f"unknown frame kind {kind}")
    expected = HEADER_BYTES + 4 * count
    if length != expected:
        raise FrameError(
            f"frame declares {count} payload words ({expected} bytes) "
            f"but datagram has {length} bytes"
        )
    (crc,) = _CRC.unpack_from(data, _PREFIX.size)
    with memoryview(data) as view:
        actual = zlib.crc32(view[HEADER_BYTES:], zlib.crc32(view[:_PREFIX.size]))
    if crc != actual:
        raise FrameCorruption(
            f"checksum mismatch on {frame_kind.name} frame "
            f"(wire 0x{crc:08x} != computed 0x{actual:08x})"
        )
    payload: Tuple[int, ...] = ()
    if count:
        payload = _payload_struct(count).unpack_from(data, HEADER_BYTES)
    if not traced:
        return Frame(kind=frame_kind, channel=channel, seq=seq, aux=aux,
                     payload=payload)
    if count < TRACE_CTX_WORDS:
        raise FrameError(
            f"{frame_kind.name} frame flags a trace context but carries "
            f"only {count} payload words"
        )
    origin = payload[-3]
    origin_ts = (payload[-2] << 32) | payload[-1]
    return Frame(kind=frame_kind, channel=channel, seq=seq, aux=aux,
                 payload=payload[:-TRACE_CTX_WORDS],
                 origin=origin, origin_ts_ns=origin_ts)


# ---------------------------------------------------------------------------
# batch container
# ---------------------------------------------------------------------------


def is_batch(data: Buffer) -> bool:
    """True when a datagram is a batch container rather than one frame."""
    return len(data) >= 2 and data[0] == MAGIC and data[1] == BATCH_BYTE


def encode_batch(datagrams: Sequence[bytes]) -> bytes:
    """Coalesce already-encoded frames into one container datagram.

    Each sub-frame keeps its own CRC, so a bit flip inside the container
    damages exactly the sub-frames it touches — the rest still decode.
    The container itself adds 3 header bytes plus 2 bytes per sub-frame.
    """
    if not datagrams:
        raise FrameError("cannot encode an empty batch")
    if len(datagrams) > 0xFFFF:
        raise FrameError(f"batch of {len(datagrams)} frames exceeds 65535")
    parts = [_BATCH_PREFIX.pack(MAGIC, BATCH_BYTE, len(datagrams))]
    append = parts.append
    pack_len = _SUBLEN.pack
    for datagram in datagrams:
        append(pack_len(len(datagram)))
        append(datagram)
    return b"".join(parts)


def iter_batch(data: Buffer) -> Iterator[memoryview]:
    """Yield zero-copy sub-datagram views from a batch container.

    Truncation or a corrupted length prefix raises :class:`FrameError`
    at the point of damage; sub-frames already yielded stay valid, so a
    partially mangled batch degrades into the loss of its tail.
    """
    length = len(data)
    if length < _BATCH_PREFIX.size:
        raise FrameError(f"batch container of {length} bytes is shorter than its header")
    magic, marker, count = _BATCH_PREFIX.unpack_from(data)
    if magic != MAGIC or marker != BATCH_BYTE:
        raise FrameError(f"not a batch container (0x{magic:02x} 0x{marker:02x})")
    view = memoryview(data)
    offset = _BATCH_PREFIX.size
    for _ in range(count):
        if offset + _SUBLEN.size > length:
            raise FrameError("batch container truncated inside a length prefix")
        (sub_len,) = _SUBLEN.unpack_from(data, offset)
        offset += _SUBLEN.size
        if offset + sub_len > length:
            raise FrameError(
                f"batch sub-frame declares {sub_len} bytes but only "
                f"{length - offset} remain"
            )
        yield view[offset:offset + sub_len]
        offset += sub_len
    if offset != length:
        raise FrameError(f"batch container has {length - offset} trailing bytes")


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------


def data_frame(channel: int, seq: int, payload: Sequence[int], aux: int = 0) -> Frame:
    """Convenience constructor for the common payload-carrying case."""
    return Frame(
        kind=FrameKind.DATA, channel=channel, seq=seq, aux=aux,
        payload=tuple(payload),
    )


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


def parse_trace_context(words: Sequence[int]) -> Tuple[int, int]:
    """Inverse of :func:`trace_context_words`: (origin_id, ts_ns)."""
    if len(words) != TRACE_CTX_WORDS:
        raise FrameError(f"trace context needs {TRACE_CTX_WORDS} words")
    return words[0], (words[1] << 32) | words[2]


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
    :class:`FrameError` — the frame CRC already rules out bit damage,
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
