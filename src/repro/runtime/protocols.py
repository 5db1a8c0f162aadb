"""Live ports of the paper's three protocols (Section 3.2, run for real).

Each protocol is the same state machine the simulator executes, driven by
real datagrams on an asyncio loop instead of virtual-time events — and
where the simulator charges calibrated instruction counts, these charge
measured ``perf_counter_ns`` spans to the same four feature buckets:

* **single-packet datagram** — send one packet, hold it at the source
  until the acknowledgement releases it (fault tolerance), dedupe at the
  destination;
* **finite-sequence bulk transfer** — segment allocation handshake
  (buffer management), offset-addressed data packets (in-order
  delivery), deallocation + final ack (fault tolerance), with
  **selective-repeat** recovery: every data packet is tracked
  individually and only the offsets the receiver has not confirmed are
  retransmitted.  The receiver's ``FINAL_ACK`` is cumulative — ``aux``
  carries its contiguous word high-water mark, the payload selectively
  acknowledges packets parked beyond a gap — so a single lost packet
  costs one packet's retransmission, not a resend of the whole
  remainder (go-back-N);
* **indefinite-sequence ordered channel** — sequence numbers and a
  reorder buffer (in-order delivery, reusing the simulator's
  :class:`~repro.protocols.sequencing.ReorderWindow` state machine),
  windowed source buffering with **coalesced cumulative
  acknowledgements**: the receiver acks with a ``CUM_ACK`` carrying its
  next-expected sequence number (plus selective acks for parked
  out-of-order packets), decided once per run of frames a datagram
  carries: sent immediately when the run brings ``ack_every`` arrivals
  or held a duplicate, otherwise deferred behind a small delayed-ack
  timer — so well under one ack datagram rides the wire per data
  datagram.

Every handler takes a *run* — the consecutive frames of one kind that
one datagram carries for its channel (see
:meth:`~repro.runtime.endpoint.RuntimeEndpoint._on_datagram`).  The
ordered channel's receiver pays each feature once per run; the other
handlers, with nothing to share, loop over it.  Sending is by runs too:
:meth:`OrderedChannelSender.send` takes a message's packets as one run
and pays each feature once per step of it (one sequence-number span,
one :meth:`~repro.runtime.endpoint.RuntimeEndpoint.send_frames` encode
pass, one tracking pass, one credit charge), waiting only where a
packet-at-a-time loop would; the bulk sender queues and tracks its
whole data phase as one run, and releases a ``FINAL_ACK``'s packets
with one ``ack_keys`` call.

Retransmission timers everywhere are RTT-adaptive (RFC 6298 SRTT/RTTVAR
via :class:`~repro.runtime.reliability.RttEstimator`); each
retransmitter holds one timer on its endpoint's wheel and no task (as
does each receiver's delayed ack), and its resends hand the
already-encoded frame to the endpoint's ``resend``, which queues it on
the same flush as every other frame: the frames one timer pass resends
to a peer share datagrams, with that pass's acks and credit.  Sends
never suspend (``send_frame`` encodes and queues): a protocol waits
only on its peer (acks, credit, window space, epoch replies).

Every protocol checks the endpoint's service flags: on a CR-mode
transport (in-order + reliable) the sequencing, acknowledgement, and
source-buffering machinery is skipped entirely — which is exactly how
the runtime re-derives Figure 6's overhead collapse from wall-clock
time.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.attribution import Feature
from repro.protocols.sequencing import ReorderWindow, SequenceError
from repro.runtime.endpoint import RuntimeEndpoint
from repro.runtime.flowcontrol import (
    CREDIT_WORDS,
    BackpressureSignal,
    FlowControlConfig,
    ReceiverWindow,
    SenderWindow,
    credit_words,
    parse_credit_words,
)
from repro.runtime.frames import (
    WORD_MASK,
    Frame,
    FrameError,
    FrameKind,
    credit_probe_frame,
    credit_update_frame,
    cum_ack_frame,
    data_frame,
    encode_frame,
    epoch_reply_frame,
    epoch_req_frame,
)
from repro.runtime.reliability import BackoffPolicy, Retransmitter, RetransmitExhausted
from repro.runtime.timers import WheelTimer
from repro.runtime.tracing import EventType
from repro.runtime.transport import Address

#: Default logical channel numbers (one per protocol, like the
#: simulator's PacketType bindings).
CH_SINGLE = 1
CH_BULK = 2
CH_STREAM = 3

#: Cap on the selective-ack list carried in one ack datagram.
MAX_SACKS = 512


class ProtocolFailure(RuntimeError):
    """A live protocol could not complete (retry budget exhausted)."""


class ChannelBroken(ProtocolFailure):
    """An ordered channel is permanently dead.

    Raised (typed, never a silent hang) to blocked senders and drain
    waiters when the retransmitter exhausts its retries and epoch
    renegotiation either is not configured or also fails — the peer is
    gone for good.
    """


@dataclass
class RecoveryPolicy:
    """How an ordered-channel sender renegotiates after retry exhaustion.

    When the retransmitter gives up on a packet, the sender — instead of
    declaring the channel broken outright — pauses retransmission and
    probes the receiver with ``EPOCH_REQ`` frames.  A restarted peer
    under the same address answers with its durable next-expected
    sequence number; the sender resumes from that cumulative ack.  When
    every probe goes unanswered (or ``max_epochs`` renegotiations have
    already been spent) the channel breaks with
    :class:`ChannelBroken`.
    """

    max_epochs: int = 4          #: renegotiation rounds before giving up
    probe_retries: int = 12      #: EPOCH_REQ probes per round
    probe_interval: float = 0.05  #: first probe's reply timeout
    probe_factor: float = 1.5    #: backoff between probes
    probe_ceiling: float = 1.0   #: cap on the probe timeout

    def __post_init__(self) -> None:
        if (self.max_epochs < 1 or self.probe_retries < 1
                or self.probe_interval <= 0 or self.probe_factor < 1.0):
            raise ValueError(f"nonsensical recovery policy: {self}")


# ---------------------------------------------------------------------------
# single-packet datagram
# ---------------------------------------------------------------------------


class SinglePacketSender:
    """Source side: send one packet, buffer it until acknowledged."""

    def __init__(self, endpoint: RuntimeEndpoint, dst: Address,
                 channel: int = CH_SINGLE,
                 backoff: Optional[BackoffPolicy] = None) -> None:
        self.endpoint = endpoint
        self.dst = dst
        self.channel = channel
        #: The sequence number the next packet takes.
        self._next_seq = 0
        self._pending: Dict[int, asyncio.Future] = {}
        self.retransmitter = Retransmitter(
            self._resend, policy=backoff,
            attribution=endpoint.attribution, on_give_up=self._give_up,
            tracer=endpoint.tracer, name=endpoint.name, channel=channel,
            timers=endpoint.timers,
            counters=endpoint.counters.scoped("single_tx.rtx"),
        )
        endpoint.bind(channel, self._on_frame)

    async def send(self, words: Sequence[int], timeout: float = 30.0) -> int:
        """Send one datagram; on CM-5 transports, await its ack."""
        attr = self.endpoint.attribution
        seq = self._next_seq
        data = self.endpoint.send_frame(
            self.dst, data_frame(self.channel, seq, words), Feature.BASE)
        # Spent only once the frame has encoded: a rejected payload
        # leaves no gap below the receiver's floor and no orphan future.
        self._next_seq = seq + 1
        if self.endpoint.cr_mode:
            return seq
        future = asyncio.get_running_loop().create_future()
        self._pending[seq] = future
        with attr.spans[Feature.FAULT_TOLERANCE]:
            # Source buffering: the wire bytes stay pinned until the ack.
            self.retransmitter.track(seq, data)
        try:
            await asyncio.wait_for(future, timeout)
        except RetransmitExhausted as exc:
            raise ProtocolFailure(str(exc)) from exc
        return seq

    def _resend(self, key, data: bytes) -> None:
        self.endpoint.resend(self.dst, data)

    def _give_up(self, key, error: RetransmitExhausted) -> None:
        future = self._pending.pop(key, None)
        if future is not None and not future.done():
            future.set_exception(error)

    def _on_frame(self, frames: List[Frame], src: Address) -> None:
        if frames[0].kind is not FrameKind.ACK:
            return
        with self.endpoint.attribution.spans[Feature.FAULT_TOLERANCE]:
            for frame in frames:
                self.retransmitter.ack(frame.seq)
                future = self._pending.pop(frame.seq, None)
                if future is not None and not future.done():
                    future.set_result(True)

    async def close(self) -> None:
        self.endpoint.unbind(self.channel)
        self.retransmitter.cancel_all()


class SinglePacketReceiver:
    """Destination side: deliver, deduplicate, acknowledge.

    Each fresh message goes to ``on_message``; the receiver keeps none.
    Its duplicate filter is bounded by reordering, not by history: a
    cumulative floor below which every sequence number has been
    delivered, plus the set of those that arrived above it.
    """

    def __init__(self, endpoint: RuntimeEndpoint, channel: int = CH_SINGLE,
                 on_message: Optional[Callable[[List[int]], None]] = None) -> None:
        self.endpoint = endpoint
        self.channel = channel
        self.on_message = on_message
        self.counters = endpoint.counters.scoped("single_rx")
        #: Every sequence number below the floor has been delivered.
        self._floor = 0
        #: Delivered sequence numbers above the floor (arrived early).
        self._above: Set[int] = set()
        endpoint.bind(channel, self._on_frame)

    @property
    def duplicates(self) -> int:
        return self.counters.get("duplicates")

    @property
    def acks_sent(self) -> int:
        return self.counters.get("acks_sent")

    def _on_frame(self, frames: List[Frame], src: Address) -> None:
        if frames[0].kind is not FrameKind.DATA:
            return
        for frame in frames:
            self._on_data(frame, src)

    def _is_duplicate(self, seq: int) -> bool:
        """Record ``seq`` as delivered; True when it already was."""
        floor = self._floor
        if seq < floor or seq in self._above:
            return True
        if seq != floor:
            self._above.add(seq)
            return False
        floor += 1
        above = self._above
        while floor in above:
            above.discard(floor)
            floor += 1
        self._floor = floor
        return False

    def _on_data(self, frame: Frame, src: Address) -> None:
        attr = self.endpoint.attribution
        if not self.endpoint.cr_mode:
            with attr.spans[Feature.FAULT_TOLERANCE]:
                duplicate = self._is_duplicate(frame.seq)
                # Ack unconditionally: the previous ack may have been lost.
                self.counters["acks_sent"] += 1
                self.endpoint.post_frame(
                    src, Frame(FrameKind.ACK, self.channel, seq=frame.seq),
                    Feature.FAULT_TOLERANCE,
                )
            if duplicate:
                self.counters["duplicates"] += 1
                return
        with attr.spans[Feature.BUFFER_MGMT]:
            # Receive-queue slot management (the datagram's landing buffer).
            message: List[int] = []
        with attr.spans[Feature.BASE]:
            message.extend(frame.payload)
        tracer = self.endpoint.tracer
        if tracer.enabled:
            tracer.emit(EventType.DELIVER, endpoint=self.endpoint.name,
                        channel=self.channel, seq=frame.seq, aux=frame.aux,
                        feature=Feature.BASE)
        if self.on_message is not None:
            with attr.spans[Feature.USER]:
                self.on_message(message)

    def close(self) -> None:
        """Stop receiving on this channel (unbind the handler)."""
        self.endpoint.unbind(self.channel)


# ---------------------------------------------------------------------------
# finite-sequence bulk transfer
# ---------------------------------------------------------------------------


@dataclass
class _Segment:
    """A destination-side landing area for one transfer."""

    total: int
    words: List[int] = field(default_factory=list)
    received: List[bool] = field(default_factory=list)
    received_words: int = 0
    contiguous_words: int = 0     # high-water mark: words received with no gap
    cursor: int = 0               # CR mode: next append position
    packet_offsets: Set[int] = field(default_factory=set)
    dealloc_from: Optional[Address] = None

    def __post_init__(self) -> None:
        if not self.words:
            self.words = [0] * self.total
            self.received = [False] * self.total

    def advance_high_water(self) -> None:
        hw = self.contiguous_words
        while hw < self.total and self.received[hw]:
            hw += 1
        self.contiguous_words = hw

    def sacked_offsets(self) -> List[int]:
        """Received packet offsets parked beyond the contiguous mark."""
        parked = [o for o in self.packet_offsets if o >= self.contiguous_words]
        parked.sort()
        return parked[:MAX_SACKS]


@dataclass
class BulkOutcome:
    """What the sender learns from one completed transfer."""

    transfer_id: int
    packets_sent: int
    data_rounds: int  # 1 + the worst single packet's resend count
    retransmitted_data_bytes: int = 0
    goback_n_equivalent_bytes: int = 0  # what resend-the-remainder would have cost


@dataclass
class _XferState:
    """Source-side bookkeeping for one in-flight transfer."""

    total_words: int
    future: asyncio.Future
    wire_bytes: int = 0           # wire bytes of the initial data round
    resent_bytes: int = 0
    worst_resends: int = 0        # max resend count over this transfer's packets
    resend_counts: Dict[int, int] = field(default_factory=dict)


class BulkReceiver:
    """Destination side: allocate, reassemble by offset, cumulatively ack.

    Each completed message goes to ``on_message``; the receiver keeps
    only its word count, for a repeated final ack.
    """

    def __init__(self, endpoint: RuntimeEndpoint, channel: int = CH_BULK,
                 on_message: Optional[Callable[[List[int]], None]] = None) -> None:
        self.endpoint = endpoint
        self.channel = channel
        self.on_message = on_message
        self._segments: Dict[int, _Segment] = {}
        self._finished: Dict[int, int] = {}  # transfer id -> word count
        self.counters = endpoint.counters.scoped("bulk_rx")
        endpoint.bind(channel, self._on_frame)

    @property
    def duplicates(self) -> int:
        return self.counters.get("duplicates")

    @property
    def final_acks_sent(self) -> int:
        return self.counters.get("final_acks_sent")

    @property
    def status_acks_sent(self) -> int:
        """Partial (cumulative) FINAL_ACKs prompted by an early dealloc."""
        return self.counters.get("status_acks_sent")

    # -- frame handling -------------------------------------------------------

    def _on_frame(self, frames: List[Frame], src: Address) -> None:
        kind = frames[0].kind
        if kind is FrameKind.ALLOC_REQ:
            handle = self._on_alloc
        elif kind is FrameKind.DATA:
            handle = self._on_data
        elif kind is FrameKind.DEALLOC:
            handle = self._on_dealloc
        else:
            return
        for frame in frames:
            handle(frame, src)

    def _on_alloc(self, frame: Frame, src: Address) -> None:
        attr = self.endpoint.attribution
        xfer = frame.seq
        if xfer in self._finished:
            # The transfer already completed; the final ack must have been
            # lost — repeat it so the source can release its buffer.
            self._send_final_ack(src, xfer, self._finished[xfer])
            return
        with attr.spans[Feature.BUFFER_MGMT]:
            if xfer not in self._segments:
                self._segments[xfer] = _Segment(total=frame.aux)
            if not self.endpoint.cr_mode:
                self.endpoint.post_frame(
                    src, Frame(FrameKind.ALLOC_REPLY, self.channel, seq=xfer),
                    Feature.BUFFER_MGMT,
                )

    def _on_data(self, frame: Frame, src: Address) -> None:
        attr = self.endpoint.attribution
        segment = self._segments.get(frame.seq)
        if segment is None:
            # Data for a finished (or never-allocated) transfer: stale
            # retransmission, already covered by the final ack path.
            self.counters["duplicates"] += 1
            return
        tracer = self.endpoint.tracer
        if self.endpoint.cr_mode:
            # Ordered lossless delivery: append — no offsets to decode.
            with attr.spans[Feature.BASE]:
                start = segment.cursor
                for index, word in enumerate(frame.payload):
                    segment.words[start + index] = word
                segment.cursor += len(frame.payload)
                segment.received_words += len(frame.payload)
            if tracer.enabled:
                tracer.emit(EventType.DELIVER, endpoint=self.endpoint.name,
                            channel=self.channel, seq=frame.seq, aux=start,
                            feature=Feature.BASE)
            return
        with attr.spans[Feature.IN_ORDER]:
            # Offset extraction + received-count maintenance.
            start = frame.aux
            fresh = not segment.received[start]
            if fresh:
                for index in range(len(frame.payload)):
                    segment.received[start + index] = True
                segment.received_words += len(frame.payload)
                segment.packet_offsets.add(start)
                segment.advance_high_water()
        if not fresh:
            self.counters["duplicates"] += 1
            return
        with attr.spans[Feature.BASE]:
            for index, word in enumerate(frame.payload):
                segment.words[start + index] = word
        if tracer.enabled:
            # The packet's words are in the landing segment: the bulk
            # analogue of delivery (the transfer completes at dealloc).
            tracer.emit(EventType.DELIVER, endpoint=self.endpoint.name,
                        channel=self.channel, seq=frame.seq, aux=start,
                        feature=Feature.BASE)
        if (segment.dealloc_from is not None
                and segment.received_words >= segment.total):
            # A retransmitted packet filled the last gap after the
            # dealloc already arrived: complete without waiting for the
            # dealloc's next retransmission.
            self._finish(segment.dealloc_from, frame.seq, segment)

    def _on_dealloc(self, frame: Frame, src: Address) -> None:
        xfer = frame.seq
        if xfer in self._finished:
            self._send_final_ack(src, xfer, self._finished[xfer])
            return
        segment = self._segments.get(xfer)
        if segment is None:
            return
        if segment.received_words < segment.total:
            # Incomplete: report progress — a cumulative FINAL_ACK with
            # the contiguous high-water mark plus selective acks, so the
            # source retransmits only what is actually missing.
            segment.dealloc_from = src
            self._send_status_ack(src, xfer, segment)
            return
        self._finish(src, xfer, segment)

    def _finish(self, src: Address, xfer: int, segment: _Segment) -> None:
        attr = self.endpoint.attribution
        with attr.spans[Feature.BUFFER_MGMT]:
            message = segment.words
            del self._segments[xfer]
            self._finished[xfer] = segment.total
        if not self.endpoint.cr_mode:
            self._send_final_ack(src, xfer, segment.total)
        if self.on_message is not None:
            with attr.spans[Feature.USER]:
                self.on_message(message)

    def _send_final_ack(self, src: Address, xfer: int, total: int) -> None:
        with self.endpoint.attribution.spans[Feature.FAULT_TOLERANCE]:
            self.counters["final_acks_sent"] += 1
            self.endpoint.post_frame(
                src, Frame(FrameKind.FINAL_ACK, self.channel, seq=xfer, aux=total),
                Feature.FAULT_TOLERANCE,
            )

    def _send_status_ack(self, src: Address, xfer: int, segment: _Segment) -> None:
        with self.endpoint.attribution.spans[Feature.FAULT_TOLERANCE]:
            self.counters["status_acks_sent"] += 1
            self.endpoint.post_frame(
                src,
                Frame(FrameKind.FINAL_ACK, self.channel, seq=xfer,
                      aux=segment.contiguous_words,
                      payload=tuple(segment.sacked_offsets())),
                Feature.FAULT_TOLERANCE,
            )

    def close(self) -> None:
        """Stop receiving on this channel (unbind the handler)."""
        self.endpoint.unbind(self.channel)


class BulkSender:
    """Source side of the finite-sequence transfer (selective repeat)."""

    def __init__(self, endpoint: RuntimeEndpoint, dst: Address,
                 channel: int = CH_BULK, packet_words: int = 16,
                 backoff: Optional[BackoffPolicy] = None) -> None:
        if packet_words < 1:
            raise ValueError("packet_words must be positive")
        self.endpoint = endpoint
        self.dst = dst
        self.channel = channel
        self.packet_words = packet_words
        self.policy = backoff or BackoffPolicy()
        self._xfer = itertools.count(1)
        self._alloc_futures: Dict[int, asyncio.Future] = {}
        self._inflight: Dict[int, _XferState] = {}
        self.counters = endpoint.counters.scoped("bulk_tx")
        self.retransmitter = Retransmitter(
            self._resend, policy=self.policy,
            attribution=endpoint.attribution, on_give_up=self._give_up,
            tracer=endpoint.tracer, name=endpoint.name, channel=channel,
            timers=endpoint.timers,
            counters=self.counters.scoped("rtx"),
        )
        endpoint.bind(channel, self._on_frame)

    @property
    def data_rounds(self) -> int:
        return self.counters.get("data_rounds")

    @property
    def retransmitted_data_packets(self) -> int:
        return self.counters.get("retransmitted_data_packets")

    @property
    def retransmitted_data_bytes(self) -> int:
        return self.counters.get("retransmitted_data_bytes")

    @property
    def goback_n_equivalent_bytes(self) -> int:
        return self.counters.get("goback_n_equivalent_bytes")

    @property
    def stale_final_acks(self) -> int:
        return self.counters.get("stale_final_acks")

    async def send(self, words: Sequence[int], timeout: float = 30.0) -> BulkOutcome:
        """Run the six-step transfer; returns once the data is safe."""
        words = list(words)
        if words and not (0 <= min(words) and max(words) <= WORD_MASK):
            # Refused before the transfer takes an id or sends its
            # ALLOC_REQ: a data packet that cannot encode must not leave
            # a transfer open at the receiver and in flight here.
            raise FrameError("payload word outside the 32-bit wire field")
        attr = self.endpoint.attribution
        xfer = next(self._xfer)
        loop = asyncio.get_running_loop()

        if self.endpoint.cr_mode:
            # Steps collapse: the network's ordering and reliability make
            # the handshake a one-way header and the final ack unnecessary.
            self.endpoint.send_frame(
                self.dst,
                Frame(FrameKind.ALLOC_REQ, self.channel, seq=xfer, aux=len(words)),
                Feature.BUFFER_MGMT,
            )
            packets = len(self._send_data(
                xfer, words, range(0, len(words), self.packet_words)))
            self.endpoint.send_frame(
                self.dst, Frame(FrameKind.DEALLOC, self.channel, seq=xfer),
                Feature.BUFFER_MGMT,
            )
            self.counters["data_rounds"] += 1
            return BulkOutcome(transfer_id=xfer, packets_sent=packets, data_rounds=1)

        # Steps 1-3: allocation handshake (retransmitted until replied).
        alloc_future = loop.create_future()
        self._alloc_futures[xfer] = alloc_future
        request = self.endpoint.send_frame(
            self.dst,
            Frame(FrameKind.ALLOC_REQ, self.channel, seq=xfer, aux=len(words)),
            Feature.BUFFER_MGMT,
        )
        with attr.spans[Feature.BUFFER_MGMT]:
            self.retransmitter.track(("alloc", xfer), request)
        try:
            await asyncio.wait_for(alloc_future, timeout)
        except RetransmitExhausted as exc:
            raise ProtocolFailure(str(exc)) from exc

        # Steps 4-6: selective repeat.  Every data packet is tracked
        # individually; the timer wheel retransmits only the offsets the
        # receiver's cumulative FINAL_ACKs have not confirmed.
        state = _XferState(total_words=len(words), future=loop.create_future())
        self._inflight[xfer] = state
        with attr.spans[Feature.IN_ORDER]:
            # Offset generation: what sequencing costs when the network
            # may reorder (Section 3.2, Figure 3 step 4), once for the
            # whole data phase.
            offsets = range(0, len(words), self.packet_words)
        wire = self._send_data(xfer, words, offsets)
        with attr.spans[Feature.FAULT_TOLERANCE]:
            # Source buffering: pin each packet until its ack covers it.
            self.retransmitter.track(
                [("data", xfer, offset) for offset in offsets], wire,
                sample_rtt=False)
        state.wire_bytes = sum(map(len, wire))
        packets = len(wire)
        dealloc = self.endpoint.send_frame(
            self.dst, Frame(FrameKind.DEALLOC, self.channel, seq=xfer),
            Feature.BUFFER_MGMT,
        )
        with attr.spans[Feature.FAULT_TOLERANCE]:
            # The dealloc doubles as the status request: its
            # retransmissions prompt fresh cumulative FINAL_ACKs.
            self.retransmitter.track(("dealloc", xfer), dealloc)
        try:
            await asyncio.wait_for(state.future, timeout)
        except RetransmitExhausted as exc:
            raise ProtocolFailure(str(exc)) from exc
        finally:
            self._inflight.pop(xfer, None)
        rounds = 1 + state.worst_resends
        self.counters["data_rounds"] += rounds
        gbn_bytes = state.worst_resends * state.wire_bytes
        self.counters["goback_n_equivalent_bytes"] += gbn_bytes
        return BulkOutcome(
            transfer_id=xfer, packets_sent=packets, data_rounds=rounds,
            retransmitted_data_bytes=state.resent_bytes,
            goback_n_equivalent_bytes=gbn_bytes,
        )

    def _send_data(self, xfer: int, words: List[int],
                   offsets: range) -> List[bytes]:
        """Queue the transfer's data packets, one per offset, as one run
        through the endpoint; returns their wire bytes."""
        step = self.packet_words
        channel = self.channel
        return self.endpoint.send_frames(self.dst, [
            data_frame(channel, xfer, words[offset:offset + step], aux=offset)
            for offset in offsets], Feature.BASE)

    def _resend(self, key, data: bytes) -> None:
        if isinstance(key, tuple) and key[0] == "data":
            state = self._inflight.get(key[1])
            if state is not None:
                state.resent_bytes += len(data)
                count = state.resend_counts.get(key[2], 0) + 1
                state.resend_counts[key[2]] = count
                state.worst_resends = max(state.worst_resends, count)
            self.counters["retransmitted_data_packets"] += 1
            self.counters["retransmitted_data_bytes"] += len(data)
        self.endpoint.resend(self.dst, data)

    def _data_keys(self, xfer: int, end: int) -> List[Tuple]:
        """Retransmitter keys of ``xfer``'s data packets at offsets
        below ``end``."""
        return [("data", xfer, offset)
                for offset in range(0, end, self.packet_words)]

    def _release_transfer(self, xfer: int, total: int) -> None:
        """Release every packet of a ``total``-word transfer still
        tracked, and its dealloc, in one pass."""
        keys = self._data_keys(xfer, total)
        keys.append(("dealloc", xfer))
        self.retransmitter.ack_keys(keys)

    def _give_up(self, key, error: RetransmitExhausted) -> None:
        if not isinstance(key, tuple):
            return
        if key[0] == "alloc":
            future = self._alloc_futures.pop(key[1], None)
            if future is not None and not future.done():
                future.set_exception(error)
            return
        state = self._inflight.get(key[1])
        if state is not None:
            if not state.future.done():
                state.future.set_exception(error)
            # Stop resending the rest of a dead transfer.
            self._release_transfer(key[1], state.total_words)

    def _on_frame(self, frames: List[Frame], src: Address) -> None:
        kind = frames[0].kind
        if kind is FrameKind.ALLOC_REPLY:
            with self.endpoint.attribution.spans[Feature.BUFFER_MGMT]:
                for frame in frames:
                    self.retransmitter.ack(("alloc", frame.seq))
                    future = self._alloc_futures.pop(frame.seq, None)
                    if future is not None and not future.done():
                        future.set_result(True)
        elif kind is FrameKind.FINAL_ACK:
            with self.endpoint.attribution.spans[Feature.FAULT_TOLERANCE]:
                for frame in frames:
                    self._on_final_ack(frame)

    def _on_final_ack(self, frame: Frame) -> None:
        xfer = frame.seq
        state = self._inflight.get(xfer)
        if state is None:
            # Duplicate/stale final ack for a transfer already resolved
            # (or never started): benign, count and drop.
            self.counters["stale_final_acks"] += 1
            return
        high_water = frame.aux
        total = state.total_words
        if high_water >= total:
            # Every word is in: the packets and the dealloc all go.
            self._release_transfer(xfer, total)
            if not state.future.done():
                state.future.set_result(high_water)
            return
        # Cumulative release: every packet the contiguous mark covers.
        # Short of ``total``, that is full packets only (the last packet
        # ends at ``total``), so a packet at ``offset`` is covered when
        # ``offset + packet_words <= high_water``.  Then the selective
        # release: packets parked beyond the gap.  One pass for both.
        keys = self._data_keys(xfer, high_water - self.packet_words + 1)
        keys += [("data", xfer, int(offset)) for offset in frame.payload]
        self.retransmitter.ack_keys(keys)

    async def close(self) -> None:
        self.endpoint.unbind(self.channel)
        self.retransmitter.cancel_all()


# ---------------------------------------------------------------------------
# indefinite-sequence ordered channel
# ---------------------------------------------------------------------------


class OrderedChannelSender:
    """Source side: sequence numbers, windowed source buffer, retransmit.

    With a :class:`RecoveryPolicy`, retry exhaustion triggers epoch
    renegotiation instead of immediate failure: the timer wheel pauses,
    ``EPOCH_REQ`` probes ask the (possibly restarted) receiver where it
    stands, and on a reply the sender resumes from the receiver's
    durable cumulative point.  Either way the sender never hangs
    silently — a channel that cannot recover raises
    :class:`ChannelBroken` to every blocked ``send()`` and ``drain()``.
    """

    def __init__(self, endpoint: RuntimeEndpoint, dst: Address,
                 channel: int = CH_STREAM, window: int = 32,
                 backoff: Optional[BackoffPolicy] = None,
                 recovery: Optional[RecoveryPolicy] = None,
                 flow: Optional[FlowControlConfig] = None) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self.endpoint = endpoint
        self.dst = dst
        self.channel = channel
        self.window = window
        self.recovery = recovery
        # Credit-based flow control (None = unmetered, the historical
        # behaviour).  Both sides of a channel must agree on `flow`,
        # because a credit-bearing ack carries its grant as a payload
        # suffix with no in-band marker.
        self.flow = SenderWindow(flow) if flow is not None else None
        self.epoch = 0
        self._epochs_used = 0
        #: The sequence number the next packet takes.
        self._next_seq = 0
        self._space = asyncio.Event()
        self._space.set()
        self._drain_waiters: List[asyncio.Future] = []
        self._failure: Optional[Exception] = None
        self._closed = False
        # Byte mirror of every unacknowledged packet.  The retransmitter
        # drops an entry when it gives up; this mirror is what lets a
        # renegotiated epoch resupply those packets.  Purged only below
        # the *cumulative* ack point — a selectively-acked packet stays,
        # because a crashed receiver loses its parked packets and the
        # sender must be able to send them again.
        self._wire: Dict[int, bytes] = {}
        self._recover_task: Optional[asyncio.Task] = None
        self._epoch_reply: Optional[asyncio.Future] = None
        self.counters = endpoint.counters.scoped("stream_tx")
        self.retransmitter = Retransmitter(
            self._resend, policy=backoff,
            attribution=endpoint.attribution, on_give_up=self._give_up,
            tracer=endpoint.tracer, name=endpoint.name, channel=channel,
            timers=endpoint.timers,
            counters=self.counters.scoped("rtx"),
        )
        endpoint.bind(channel, self._on_frame)

    @property
    def acks_received(self) -> int:
        return self.counters.get("acks_received")

    @property
    def packets_released(self) -> int:
        return self.counters.get("packets_released")

    @property
    def outstanding(self) -> int:
        return self.retransmitter.outstanding

    @property
    def sent(self) -> int:
        return self._next_seq

    @property
    def broken(self) -> bool:
        """True once the channel has failed permanently."""
        return self._failure is not None

    @property
    def failure(self) -> Optional[Exception]:
        return self._failure

    @property
    def recovering(self) -> bool:
        return self._recover_task is not None and not self._recover_task.done()

    async def send(self, *packets: Sequence[int]) -> int:
        """Send a run of packets, each one packet's worth of words, in
        order; returns the first one's sequence number.  ``send(words)``
        is a run of one.

        The run goes out in as few steps as the window and the credit
        allow.  A step admits the next packet and every one after it
        that still fits, and pays each feature once for all of them:
        one ``IN_ORDER`` span for their block of sequence numbers, one
        encode pass through :meth:`RuntimeEndpoint.send_frames`, one
        tracking pass and one credit charge.  Between steps it blocks
        (uncharged — it is idle time, not messaging work) exactly where
        a packet-at-a-time loop would: before a packet the full window
        or the missing credit holds back.

        A packet the wire cannot carry raises :class:`FrameError`
        before any of the run is queued or numbered, whichever step it
        would have gone in.
        """
        if self._closed:
            raise ProtocolFailure("channel sender is closed")
        if self._failure is not None:
            raise self._failure
        endpoint = self.endpoint
        attr = endpoint.attribution
        flow = self.flow
        channel = self.channel
        window = self.window
        # The source buffer, or None on CR: the network retains packets.
        tracked = None if endpoint.cr_mode else self.retransmitter.entries
        first = self._next_seq  # what an empty run returns
        start, count = 0, len(packets)
        while start < count:
            room = count
            if tracked is not None:
                in_flight = len(tracked)
                while in_flight >= window:
                    self._space.clear()
                    await self._space.wait()
                    if self._closed:
                        raise ProtocolFailure("channel sender is closed")
                    self._raise_if_failed()
                    in_flight = len(tracked)
                room = window - in_flight
            nbytes = 0
            if flow is not None:
                # The network orders and retains packets on CR — but it
                # does not size the receiver's buffers, so credit gates
                # admission in both modes.
                need = len(packets[start]) * 4
                # ``flow.can_send(need)``, without the call.
                if (flow.limit_bytes - flow.used_bytes < need
                        or flow.limit_msgs <= flow.used_msgs):
                    await self._await_credit(need)
                    if tracked is not None and start + 1 < count:
                        # Acks may have come in while it waited, making
                        # room for the packets after this one.
                        room = window - len(tracked)
                room_bytes = flow.limit_bytes - flow.used_bytes - need
                room_msgs = flow.limit_msgs - flow.used_msgs - 1
                nbytes = need
            # The packet the waits were for goes; so does every next one
            # the window and the credit still leave room for.
            end = start + 1
            while end < count and end - start < room:
                if flow is not None:
                    need = len(packets[end]) * 4
                    if room_bytes < need or room_msgs < 1:
                        break
                    room_bytes -= need
                    room_msgs -= 1
                    nbytes += need
                end += 1
            admitted = end - start
            seq = self._next_seq
            if not start:
                # Taken now, not before a wait: another send on this
                # channel may have gone first.
                first = seq
                if end < count:
                    # The window or the credit cuts the run: the packets
                    # later steps send must encode too, or this step
                    # would put part of the message on the wire.
                    for words in packets[end:]:
                        encode_frame(Frame(FrameKind.DATA, channel, seq, 0,
                                           tuple(words)))
            wire = endpoint.send_frames(self.dst, [
                Frame(FrameKind.DATA, channel, seq + index, 0, tuple(words))
                for index, words in enumerate(packets[start:end])],
                Feature.BASE)
            # The numbers are spent only once their frames have encoded
            # and queued: a packet the wire cannot carry raises above and
            # leaves no gap for the receiver to wait on.
            if tracked is None:
                self._next_seq = seq + admitted
            else:
                with attr.spans[Feature.IN_ORDER]:
                    self._next_seq = seq + admitted
                keys = range(seq, seq + admitted)
                with attr.spans[Feature.FAULT_TOLERANCE]:
                    # Source buffering: pin each packet until an ack
                    # covers it.
                    self.retransmitter.track(keys, wire)
                    mirror = self._wire
                    for key, data in zip(keys, wire):
                        mirror[key] = data
            if flow is not None:
                with attr.spans[Feature.FLOW_CONTROL]:
                    flow.consume(nbytes, admitted)
            start = end
        return first

    def flow_signal(self, next_bytes: int = 0) -> BackpressureSignal:
        """The current backpressure advice (always OK when unmetered)."""
        if self.flow is None:
            return BackpressureSignal.OK
        return self.flow.signal(next_bytes)

    async def _await_credit(self, nbytes: int) -> None:
        """Block until the peer's advertised credit covers ``nbytes``.

        Entered only once ``flow.can_send(nbytes)`` has said no, so a
        send with credit in hand never pays for the coroutine.  Idle
        waiting is uncharged (like the window wait above); the
        admission bookkeeping around it is charged to
        :attr:`Feature.FLOW_CONTROL`.  While starved past the probe
        interval — possible only when nothing is in flight to elicit an
        ack — a ``CREDIT_UPDATE`` probe asks the receiver to
        re-advertise, so a partition that ate every grant can't wedge
        the sender forever.
        """
        flow = self.flow
        endpoint = self.endpoint
        tracer = endpoint.tracer
        if tracer.enabled:
            tracer.emit(EventType.FLOW_BLOCK, endpoint=endpoint.name,
                        channel=self.channel, seq=self._next_seq,
                        aux=max(flow.available_bytes, 0),
                        feature=Feature.FLOW_CONTROL)
        self.counters["flow.blocked"] += 1
        blocked_from = time.perf_counter_ns()
        while not flow.can_send(nbytes):
            if self._closed:
                raise ProtocolFailure("channel sender is closed")
            self._raise_if_failed()
            granted = await flow.grant_wait(nbytes,
                                            flow.config.probe_interval)
            if granted:
                break
            with endpoint.attribution.spans[Feature.FLOW_CONTROL]:
                self.counters["flow.probes"] += 1
                endpoint.post_frame(self.dst,
                                    credit_probe_frame(self.channel),
                                    Feature.FLOW_CONTROL)
        blocked_ns = time.perf_counter_ns() - blocked_from
        self.counters["flow.blocked_ns"] += blocked_ns
        if tracer.enabled:
            tracer.emit(EventType.FLOW_UNBLOCK, endpoint=endpoint.name,
                        channel=self.channel, seq=self._next_seq,
                        aux=blocked_ns & 0xFFFFFFFF,
                        feature=Feature.FLOW_CONTROL)

    def _apply_credit(self, payload: Sequence[int]) -> Tuple[int, ...]:
        """Split a credit-bearing ack payload: apply the 4-word grant
        suffix to the sender window, return the leading sacks."""
        if self.flow is None:
            return tuple(payload)
        if len(payload) < CREDIT_WORDS:
            # A metered channel's acks always carry the suffix; anything
            # shorter is a foreign/malformed ack — ignore it entirely.
            self.counters["flow.malformed_acks"] += 1
            return ()
        sacks = tuple(payload[:-CREDIT_WORDS])
        granted_bytes, granted_msgs = parse_credit_words(
            payload[-CREDIT_WORDS:])
        with self.endpoint.attribution.spans[Feature.FLOW_CONTROL]:
            if self.flow.apply(granted_bytes, granted_msgs):
                self.counters["flow.updates_applied"] += 1
        return sacks

    async def drain(self, timeout: float = 30.0) -> None:
        """Wait until every sent packet has been acknowledged.

        Safe to call concurrently: every waiter gets its own future and
        all of them resolve when the source buffer empties (or fail when
        the channel fails).
        """
        self._raise_if_failed()
        if self.endpoint.cr_mode or self.retransmitter.outstanding == 0:
            return
        future = asyncio.get_running_loop().create_future()
        self._drain_waiters.append(future)
        try:
            await asyncio.wait_for(future, timeout)
        finally:
            if future in self._drain_waiters:
                self._drain_waiters.remove(future)
        self._raise_if_failed()

    def _resend(self, key, data: bytes) -> None:
        self.endpoint.resend(self.dst, data)

    def _give_up(self, key, error: RetransmitExhausted) -> None:
        if self._closed or self._failure is not None:
            return
        if self.recovering:
            # Several keys can exhaust in the same wheel pass; one
            # renegotiation covers them all (the byte mirror still
            # holds every packet the wheel dropped).  Checked before the
            # epoch budget: a straggler give-up must never break a
            # channel whose last-epoch recovery is still in flight.
            return
        if (self.recovery is not None
                and self._epochs_used < self.recovery.max_epochs):
            self._epochs_used += 1
            self.counters["recoveries_started"] += 1
            self.retransmitter.pause()
            self._recover_task = asyncio.get_running_loop().create_task(
                self._recover()
            )
            return
        self._break(ChannelBroken(
            f"ordered channel {self.channel} to {self.dst!r} is dead: {error}"
        ))

    def _break(self, failure: ProtocolFailure) -> None:
        """Fail the channel permanently: wake every blocked sender and
        drain waiter with the typed error instead of leaving them hung."""
        self._failure = failure
        self._space.set()
        if self.flow is not None:
            self.flow.release_waiters()
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_exception(failure)
        self._drain_waiters = []
        if self._epoch_reply is not None and not self._epoch_reply.done():
            self._epoch_reply.cancel()

    async def _recover(self) -> None:
        """Probe the receiver with EPOCH_REQs until it answers or the
        probe budget runs out."""
        policy = self.recovery
        endpoint = self.endpoint
        loop = asyncio.get_running_loop()
        proposed = self.epoch + 1
        base = min(self._wire) if self._wire else self._next_seq
        if endpoint.tracer.enabled:
            endpoint.tracer.emit(EventType.EPOCH, endpoint=endpoint.name,
                                 channel=self.channel, seq=proposed, aux=base,
                                 kind="EPOCH_PROBE",
                                 feature=Feature.FAULT_TOLERANCE)
        timeout = policy.probe_interval
        for _attempt in range(policy.probe_retries):
            self._epoch_reply = loop.create_future()
            self.counters["epoch_probes"] += 1
            endpoint.send_frame(
                self.dst, epoch_req_frame(self.channel, proposed, base),
                Feature.FAULT_TOLERANCE,
            )
            try:
                reply = await asyncio.wait_for(self._epoch_reply, timeout)
            except asyncio.TimeoutError:
                timeout = min(timeout * policy.probe_factor,
                              policy.probe_ceiling)
                continue
            self._epoch_reply = None
            self._complete_recovery(reply, proposed, base)
            return
        self._epoch_reply = None
        self._break(ChannelBroken(
            f"ordered channel {self.channel} to {self.dst!r}: "
            f"{policy.probe_retries} epoch probes unanswered"
        ))

    def _complete_recovery(self, reply: Frame, proposed: int,
                           base: int) -> None:
        expected = reply.seq
        if expected < base:
            # The receiver expects data from before anything we still
            # hold: it lost state we were already told was delivered.
            # Resuming would silently re-deliver or skip — break instead.
            self._break(ChannelBroken(
                f"ordered channel {self.channel} to {self.dst!r}: receiver "
                f"lost acknowledged data (expects {expected}, "
                f"sender base {base})"
            ))
            return
        self.epoch = max(reply.aux, proposed)
        # A metered EPOCH_REPLY resynchronizes credit in the same frame
        # that restores sequence state — recovery through a partition
        # must not leave the sender starved of both data acks and grants.
        sacks = self._apply_credit(reply.payload)
        with self.endpoint.attribution.spans[Feature.FAULT_TOLERANCE]:
            covered = {int(s) for s in sacks}
            stale = [s for s in self._wire if s < expected or s in covered]
            for seq in stale:
                del self._wire[seq]
                self.retransmitter.ack(seq)
            for seq in sorted(self._wire):
                self.retransmitter.requeue(seq, self._wire[seq])
            self.retransmitter.resume()
            self.counters["recoveries_completed"] += 1
        if self.endpoint.tracer.enabled:
            self.endpoint.tracer.emit(EventType.EPOCH,
                                      endpoint=self.endpoint.name,
                                      channel=self.channel, seq=self.epoch,
                                      aux=expected, kind="EPOCH_GRANT",
                                      feature=Feature.FAULT_TOLERANCE)
        if self.retransmitter.outstanding < self.window:
            self._space.set()
        if self.retransmitter.outstanding == 0:
            for waiter in self._drain_waiters:
                if not waiter.done():
                    waiter.set_result(True)
            self._drain_waiters = []

    def _raise_if_failed(self) -> None:
        if self._failure is not None:
            raise self._failure

    def _on_frame(self, frames: List[Frame], src: Address) -> None:
        kind = frames[0].kind
        if kind is not FrameKind.CUM_ACK:
            for frame in frames:
                if kind is FrameKind.EPOCH_REPLY:
                    future = self._epoch_reply
                    if future is not None and not future.done():
                        future.set_result(frame)
                elif (kind is FrameKind.CREDIT_UPDATE
                      and self.flow is not None and frame.payload):
                    # A standalone advertisement (watermark top-up or an
                    # answered probe).  Empty payloads are probes —
                    # sender-directed frames only, meaningless here.
                    self.counters["flow.updates_rx"] += 1
                    self._apply_credit(frame.payload)
            return
        retransmitter = self.retransmitter
        wire = self._wire
        for frame in frames:
            # A metered ack carries its credit grant as a payload suffix;
            # peel it off (charged to flow control) before the sack scan.
            sacks = self._apply_credit(frame.payload)
            with self.endpoint.attribution.spans[Feature.FAULT_TOLERANCE]:
                self.counters["acks_received"] += 1
                # Cumulative: everything below next-expected is delivered.
                released = retransmitter.ack_below(frame.seq)
                for seq in [s for s in wire if s < frame.seq]:
                    del wire[seq]
                # Selective: out-of-order packets parked in the reorder
                # buffer.  These stay in the byte mirror — a receiver
                # crash loses its parked packets, and recovery must be
                # able to resupply them.
                if sacks:
                    released += retransmitter.ack_keys(sacks)
                self.counters["packets_released"] += released
                tracked = len(retransmitter.entries)
                if tracked < self.window:
                    self._space.set()
                if not tracked:
                    for waiter in self._drain_waiters:
                        if not waiter.done():
                            waiter.set_result(True)

    @property
    def closed(self) -> bool:
        return self._closed

    async def close(self) -> None:
        """Tear down: refuse further sends, release any blocked sender,
        fail outstanding drain waiters, unbind, cancel the retransmit timer.
        Idempotent — a second close is a no-op."""
        if self._closed:
            return
        self._closed = True
        if self._failure is None and (self._drain_waiters
                                      or self.retransmitter.outstanding):
            failure = ProtocolFailure("channel sender closed with "
                                      f"{self.retransmitter.outstanding} "
                                      "unacknowledged packets")
            for waiter in self._drain_waiters:
                if not waiter.done():
                    waiter.set_exception(failure)
            self._drain_waiters = []
        self._space.set()
        if self.flow is not None:
            self.flow.release_waiters()
        self.endpoint.unbind(self.channel)
        if self._recover_task is not None and not self._recover_task.done():
            self._recover_task.cancel()
            try:
                await self._recover_task
            except (asyncio.CancelledError, Exception):
                pass
        self.retransmitter.cancel_all()


class OrderedChannelReceiver:
    """Destination side: reorder buffer, in-order delivery, coalesced acks.

    The endpoint hands the receiver a *run* at a time: the consecutive
    DATA frames one datagram carries for this channel.  Each feature
    is paid once per run: one ``IN_ORDER`` span around the run's
    reorder accepts, one ``USER`` span around its deliveries, one
    ``ReceiverWindow.on_data`` call for its admitted bytes and packets,
    and one ack decision at its end.

    Instead of one ack datagram per data datagram, the receiver sends a
    cumulative ``CUM_ACK`` (next-expected seq + selective acks for parked
    packets), decided once per run:

    * immediately when the run brings the arrivals not yet acked to
      ``ack_every``, so a streaming sender's window keeps turning — one
      ack then covers the whole run instead of being cut mid-datagram;
    * immediately when the run held a duplicate — a duplicate means the
      sender retransmitted, i.e. a previous ack (or the packet) was lost;
    * otherwise after a short delayed-ack timer (``ack_delay``), so an
      idle channel still confirms its tail.
    """

    def __init__(self, endpoint: RuntimeEndpoint, channel: int = CH_STREAM,
                 window: int = 256,
                 deliver: Optional[Callable[[int, Tuple[int, ...]], None]] = None,
                 ack_every: int = 8, ack_delay: float = 0.005,
                 resume_expected: int = 0, epoch: int = 0,
                 flow: Optional[FlowControlConfig] = None) -> None:
        if ack_every < 1:
            raise ValueError("ack_every must be positive")
        if ack_delay <= 0:
            raise ValueError("ack_delay must be positive")
        self.endpoint = endpoint
        self.channel = channel
        self.user_deliver = deliver
        self.reorder = ReorderWindow(window=window, start=resume_expected)
        self.epoch = epoch
        # Credit ledger (None = unmetered); must match the sender's.
        self.flow = ReceiverWindow(flow) if flow is not None else None
        # High-water of cumulative bytes advertised, for the granted-
        # credit counter (the initial window is an implicit grant).
        self._last_granted = flow.window_bytes if flow is not None else 0
        self.ack_every = ack_every
        self.ack_delay = ack_delay
        # Packets kept for a later read; stays empty while ``deliver``
        # consumes them (see ``_deliver``).
        self.delivered: List[Tuple[int, Tuple[int, ...]]] = []
        self._delivered_count = 0
        self.counters = endpoint.counters.scoped("stream_rx")
        self._unacked = 0
        self._parked: Set[int] = set()
        self._ack_handle: Optional[WheelTimer] = None
        endpoint.bind(channel, self._on_frame)

    @property
    def arrivals(self) -> int:
        return self.counters.get("arrivals")

    @property
    def acks_sent(self) -> int:
        return self.counters.get("acks_sent")

    @property
    def immediate_acks(self) -> int:
        return self.counters.get("immediate_acks")

    @property
    def delayed_acks(self) -> int:
        return self.counters.get("delayed_acks")

    @property
    def duplicates(self) -> int:
        return self.reorder.duplicates

    @property
    def ooo_arrivals(self) -> int:
        return self.reorder.ooo_accepted

    @property
    def delivered_count(self) -> int:
        return self._delivered_count

    def _on_frame(self, frames: List[Frame], src: Address) -> None:
        kind = frames[0].kind
        if kind is not FrameKind.DATA:
            for frame in frames:
                if kind is FrameKind.EPOCH_REQ:
                    self._on_epoch_req(frame, src)
                elif (kind is FrameKind.CREDIT_UPDATE
                      and self.flow is not None and not frame.payload):
                    # A starved sender's probe (empty payload): answer
                    # with a fresh full-state advertisement,
                    # unconditionally — the probe exists precisely
                    # because previous grants were lost.
                    with self.endpoint.attribution.spans[Feature.FLOW_CONTROL]:
                        self.counters["flow.probes_rx"] += 1
                        self._post_credit_update(src)
            return
        endpoint = self.endpoint
        attr = endpoint.attribution
        tracer = endpoint.tracer
        flow = self.flow
        # The run's tally, kept in locals (no call per frame): packets
        # admitted and their bytes, how far the buffered level moved and
        # rose at most, and packets admitted past the grant — which
        # holds still until the run's end (see ReceiverWindow.on_data).
        admitted = fresh = overruns = 0
        if flow is not None:
            room_bytes = flow.granted_bytes - flow.consumed_bytes
            room_msgs = flow.granted_msgs - flow.consumed_msgs
        if endpoint.cr_mode:
            # Lossless FIFO network: every packet is the next packet.
            # Credit still meters buffer admission — admitted, then
            # released straight to the user — and with no ack traffic to
            # piggyback on, every top-up is a standalone frame.
            arrivals = len(frames)
            self.counters["arrivals"] += arrivals
            update_due = False
            if flow is not None:
                largest = 0
                for frame in frames:
                    size = len(frame.payload) << 2
                    admitted += size
                    fresh += 1
                    if size > largest:
                        largest = size
                    if admitted > room_bytes or fresh > room_msgs:
                        overruns += 1
                with attr.spans[Feature.FLOW_CONTROL]:
                    update_due = flow.on_data(
                        admitted, delivered=True, packets=fresh,
                        rise_bytes=largest, rise_msgs=1, overruns=overruns)
            self._delivered_count += arrivals
            deliver = self.user_deliver
            if deliver is None:
                self._deliver([(frame.seq, frame.payload) for frame in frames])
            else:
                with attr.spans[Feature.USER]:
                    for frame in frames:
                        if tracer.enabled:
                            self._trace_delivery(frame.seq)
                        deliver(frame.seq, frame.payload)
            if update_due:
                with attr.spans[Feature.FLOW_CONTROL]:
                    self.counters["flow.updates_sent"] += 1
                    self._post_credit_update(src)
            return
        reorder = self.reorder
        parked = self._parked
        duplicates = reorder.duplicates
        dups = overflows = 0
        level = rise = level_msgs = rise_msgs = 0
        ready: List[Tuple[int, Tuple[int, ...]]] = []
        with attr.spans[Feature.IN_ORDER]:
            for frame in frames:
                payload = frame.payload
                try:
                    run = reorder.accept(frame.seq, payload)
                except SequenceError:
                    # Beyond the reorder window (only possible if the
                    # sender's window exceeds ours): treat as a drop and
                    # let the retransmission path deliver it once we have
                    # caught up.
                    overflows += 1
                    continue
                if run:
                    # In order: the packet itself, then whatever parked
                    # packets its arrival let through.
                    ready += run
                    for run_seq, run_payload in run[1:]:
                        parked.discard(run_seq)
                        level_msgs -= 1
                        if flow is not None:
                            level -= len(run_payload) << 2
                        if tracer.enabled:
                            tracer.emit(EventType.UNPARK,
                                        endpoint=endpoint.name,
                                        channel=self.channel, seq=run_seq,
                                        aux=0, feature=Feature.IN_ORDER)
                elif reorder.duplicates == duplicates:
                    # Out of order: the packet waits in the reorder
                    # buffer until its gap fills.
                    parked.add(frame.seq)
                    level_msgs += 1
                    if level_msgs > rise_msgs:
                        rise_msgs = level_msgs
                    if flow is not None:
                        level += len(payload) << 2
                        if level > rise:
                            rise = level
                    if tracer.enabled:
                        tracer.emit(EventType.PARK, endpoint=endpoint.name,
                                    channel=self.channel, seq=frame.seq,
                                    aux=0, feature=Feature.IN_ORDER)
                else:
                    # A duplicate never enters the buffer.
                    duplicates = reorder.duplicates
                    dups += 1
                    continue
                fresh += 1
                if flow is not None:
                    admitted += len(payload) << 2
                    if admitted > room_bytes or fresh > room_msgs:
                        overruns += 1
        self.counters["arrivals"] += fresh + dups + overflows
        if ready:
            self._delivered_count += fresh - level_msgs
            self._deliver(ready)
        update_due = False
        if flow is not None and fresh:
            # One ledger call per run: what it let through leaves the
            # buffer, then its fresh packets are admitted (parked ones
            # occupy buffer until their gap fills).
            with attr.spans[Feature.FLOW_CONTROL]:
                update_due = flow.on_data(
                    admitted, admitted - level, fresh - level_msgs,
                    packets=fresh, rise_bytes=rise, rise_msgs=rise_msgs,
                    overruns=overruns)
        if overflows:
            self.counters["window_overflows"] += overflows
            if not fresh and not dups:
                return  # no frame of the run reached the ack decision
        with attr.spans[Feature.FAULT_TOLERANCE]:
            self._unacked += fresh + dups
            if dups or self._unacked >= self.ack_every:
                self._send_ack(src)
                self.counters["immediate_acks"] += 1
            else:
                if update_due:
                    # The low watermark crossed between acks: advertise
                    # now instead of waiting out the delayed-ack timer —
                    # a starved sender's window must keep turning.
                    with attr.spans[Feature.FLOW_CONTROL]:
                        self.counters["flow.updates_sent"] += 1
                        self._post_credit_update(src)
                if self._ack_handle is None:
                    self._schedule_ack(src)

    # -- epoch renegotiation --------------------------------------------------

    def _on_epoch_req(self, frame: Frame, src: Address) -> None:
        """A sender gave up retransmitting and is asking where we stand.

        Reply with the durable next-expected sequence number (plus
        selective acks for anything parked) under the highest epoch
        either side has seen.  The reply is definitive: the sender
        purges below it and resupplies the rest.
        """
        with self.endpoint.attribution.spans[Feature.FAULT_TOLERANCE]:
            proposed, base = frame.seq, frame.aux
            self.counters["epoch_requests"] += 1
            if proposed > self.epoch:
                self.epoch = proposed
                if self.endpoint.tracer.enabled:
                    self.endpoint.tracer.emit(
                        EventType.EPOCH, endpoint=self.endpoint.name,
                        channel=self.channel, seq=proposed, aux=base,
                        kind="EPOCH_ADOPT", feature=Feature.FAULT_TOLERANCE)
            if self.reorder.expected < base and not self._delivered_count:
                # A receiver with no delivery history joining a stream
                # already under way: accept the sender's base rather than
                # waiting forever for sequence numbers that predate us.
                self.reorder = ReorderWindow(window=self.reorder.window,
                                             start=base)
                self._parked.clear()
            sacks = sorted(self._parked)[:MAX_SACKS]
            self.counters["acks_sent"] += 1
            self.endpoint.post_frame(
                src,
                epoch_reply_frame(self.channel, self.reorder.expected,
                                  self.epoch, sacks,
                                  credit=self._credit_suffix()),
                Feature.FAULT_TOLERANCE,
            )

    # -- crash / restart ------------------------------------------------------

    def crash(self) -> int:
        """Simulate process death on this side of the channel.

        Protocol soft state — parked out-of-order packets, the delayed-ack
        timer, the channel binding — is lost.  Application-durable state
        survives: the in-order delivery point, and everything already
        delivered, which is the application's copy (``deliver``'s, or
        :attr:`delivered` when no consumer is attached).  Returns the
        durable next-expected sequence number (what a restarted
        incarnation passes as ``resume_expected``).
        """
        self.endpoint.unbind(self.channel)
        if self._ack_handle is not None:
            self._ack_handle.cancel()
            self._ack_handle = None
        expected = self.reorder.expected
        self.reorder = ReorderWindow(window=self.reorder.window,
                                     start=expected)
        self._parked.clear()
        self._unacked = 0
        if self.flow is not None:
            # The buffer's contents died with the process: mark every
            # admitted-but-undelivered byte as gone (their packets will
            # be re-admitted by retransmission) and re-advertise on the
            # first post-restart contact.
            self.flow.on_crash()
        return expected

    def rebind(self, endpoint: RuntimeEndpoint) -> None:
        """Attach this receiver to a restarted endpoint (same channel)."""
        self.endpoint = endpoint
        self.counters = endpoint.counters.scoped("stream_rx")
        endpoint.bind(self.channel, self._on_frame)

    # -- ack coalescing -------------------------------------------------------

    def _credit_suffix(self) -> Optional[Tuple[int, ...]]:
        """Advertise-and-encode for a credit-bearing ack (None when
        unmetered).  A pending watermark/refresh obligation is satisfied
        by the ride — count it as a coalesced update."""
        if self.flow is None:
            return None
        with self.endpoint.attribution.spans[Feature.FLOW_CONTROL]:
            if self.flow.update_due:
                self.counters["flow.updates_coalesced"] += 1
            granted_bytes, granted_msgs = self.flow.advertise()
            self.counters["flow.credits_granted"] += max(
                granted_bytes - self._last_granted, 0)
            self._last_granted = granted_bytes
            return credit_words(granted_bytes, granted_msgs)

    def _post_credit_update(self, src: Address) -> None:
        """Send a standalone full-state advertisement to the sender."""
        granted_bytes, granted_msgs = self.flow.advertise()
        self.counters["flow.credits_granted"] += max(
            granted_bytes - self._last_granted, 0)
        self._last_granted = granted_bytes
        self.endpoint.post_frame(
            src,
            credit_update_frame(self.channel,
                                credit_words(granted_bytes, granted_msgs),
                                epoch=self.epoch),
            Feature.FLOW_CONTROL,
        )

    def _send_ack(self, src: Address) -> None:
        if self._ack_handle is not None:
            self._ack_handle.cancel()
            self._ack_handle = None
        self._unacked = 0
        self.counters["acks_sent"] += 1
        sacks = sorted(self._parked)[:MAX_SACKS]
        self.endpoint.post_frame(
            src, cum_ack_frame(self.channel, self.reorder.expected, sacks,
                               epoch=self.epoch,
                               credit=self._credit_suffix()),
            Feature.FAULT_TOLERANCE,
        )

    def _schedule_ack(self, src: Address) -> None:
        """Arm the delayed-ack timer; the caller checked none is armed."""
        self._ack_handle = self.endpoint.timers.call_at(
            asyncio.get_running_loop().time() + self.ack_delay,
            self._ack_timer, src,
        )

    def _ack_timer(self, src: Address) -> None:
        self._ack_handle = None
        tracer = self.endpoint.tracer
        if tracer.enabled:
            tracer.emit(EventType.TIMER_FIRE, endpoint=self.endpoint.name,
                        channel=self.channel, seq=self.reorder.expected,
                        kind="DELAYED_ACK", feature=Feature.FAULT_TOLERANCE)
        if self._unacked:
            with self.endpoint.attribution.spans[Feature.FAULT_TOLERANCE]:
                self._send_ack(src)
                self.counters["delayed_acks"] += 1

    def close(self) -> None:
        """Unbind the handler and cancel the pending delayed-ack timer."""
        self.endpoint.unbind(self.channel)
        if self._ack_handle is not None:
            self._ack_handle.cancel()
            self._ack_handle = None

    def _deliver(self, ready: List[Tuple[int, Tuple[int, ...]]]) -> None:
        """Hand a run's in-order packets over, as ``(seq, payload)``
        pairs: to ``deliver`` when a consumer is attached (nothing is
        kept), else into :attr:`delivered`.  The caller counts them and
        releases their bytes from the credit window, in the same
        ``on_data`` call that admits the run.  Each payload is a decoded
        frame's tuple, handed over as it is."""
        tracer = self.endpoint.tracer
        deliver = self.user_deliver
        if deliver is None:
            if tracer.enabled:
                for seq, _payload in ready:
                    self._trace_delivery(seq)
            with self.endpoint.attribution.spans[Feature.BASE]:
                self.delivered += ready
            return
        with self.endpoint.attribution.spans[Feature.USER]:
            for seq, payload in ready:
                if tracer.enabled:
                    self._trace_delivery(seq)
                deliver(seq, payload)

    def _trace_delivery(self, seq: int) -> None:
        self.endpoint.tracer.emit(EventType.DELIVER,
                                  endpoint=self.endpoint.name,
                                  channel=self.channel, seq=seq, aux=0,
                                  feature=Feature.BASE)
