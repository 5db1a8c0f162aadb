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
  out-of-order packets), sent immediately every ``ack_every`` arrivals
  or on a duplicate, otherwise deferred behind a small delayed-ack
  timer — so well under one ack datagram rides the wire per data
  datagram.

Retransmission timers everywhere are RTT-adaptive (RFC 6298 SRTT/RTTVAR
via :class:`~repro.runtime.reliability.RttEstimator`); each
retransmitter holds one ``call_at`` timer handle and no task, and its
resends push the already-encoded bytes straight to the transport
(:meth:`~repro.runtime.endpoint.RuntimeEndpoint.send_now`).

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
from repro.protocols.sequencing import ReorderWindow, SequenceError, SequenceGenerator
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
    Frame,
    FrameKind,
    credit_probe_frame,
    credit_update_frame,
    cum_ack_frame,
    data_frame,
    epoch_reply_frame,
    epoch_req_frame,
)
from repro.runtime.reliability import BackoffPolicy, Retransmitter, RetransmitExhausted
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
        self._seq = itertools.count()
        self._pending: Dict[int, asyncio.Future] = {}
        self.retransmitter = Retransmitter(
            self._resend, policy=backoff,
            attribution=endpoint.attribution, on_give_up=self._give_up,
            tracer=endpoint.tracer, name=endpoint.name, channel=channel,
            counters=endpoint.counters.scoped("single_tx.rtx"),
        )
        endpoint.bind(channel, self._on_frame)

    async def send(self, words: Sequence[int], timeout: float = 30.0) -> int:
        """Send one datagram; on CM-5 transports, await its ack."""
        attr = self.endpoint.attribution
        seq = next(self._seq)
        frame = data_frame(self.channel, seq, words)
        if self.endpoint.cr_mode:
            await self.endpoint.send_frame(self.dst, frame, Feature.BASE)
            return seq
        future = asyncio.get_running_loop().create_future()
        self._pending[seq] = future
        data = await self.endpoint.send_frame(self.dst, frame, Feature.BASE)
        with attr.span(Feature.FAULT_TOLERANCE):
            # Source buffering: the wire bytes stay pinned until the ack.
            self.retransmitter.track(seq, data)
        try:
            await asyncio.wait_for(future, timeout)
        except RetransmitExhausted as exc:
            raise ProtocolFailure(str(exc)) from exc
        return seq

    def _resend(self, key, data: bytes) -> None:
        self.endpoint.send_now(self.dst, data)

    def _give_up(self, key, error: RetransmitExhausted) -> None:
        future = self._pending.pop(key, None)
        if future is not None and not future.done():
            future.set_exception(error)

    def _on_frame(self, frame: Frame, src: Address) -> None:
        if frame.kind is not FrameKind.ACK:
            return
        with self.endpoint.attribution.span(Feature.FAULT_TOLERANCE):
            self.retransmitter.ack(frame.seq)
            future = self._pending.pop(frame.seq, None)
            if future is not None and not future.done():
                future.set_result(True)

    async def close(self) -> None:
        self.endpoint.unbind(self.channel)
        self.retransmitter.cancel_all()


class SinglePacketReceiver:
    """Destination side: deliver, deduplicate, acknowledge."""

    def __init__(self, endpoint: RuntimeEndpoint, channel: int = CH_SINGLE,
                 on_message: Optional[Callable[[List[int]], None]] = None) -> None:
        self.endpoint = endpoint
        self.channel = channel
        self.on_message = on_message
        self.messages: List[List[int]] = []
        self.counters = endpoint.counters.scoped("single_rx")
        self._delivered_seqs: set = set()
        self._waiters: List[Tuple[int, asyncio.Future]] = []
        endpoint.bind(channel, self._on_frame)

    @property
    def duplicates(self) -> int:
        return self.counters.get("duplicates")

    @property
    def acks_sent(self) -> int:
        return self.counters.get("acks_sent")

    def _on_frame(self, frame: Frame, src: Address) -> None:
        if frame.kind is not FrameKind.DATA:
            return
        attr = self.endpoint.attribution
        if not self.endpoint.cr_mode:
            with attr.span(Feature.FAULT_TOLERANCE):
                duplicate = frame.seq in self._delivered_seqs
                self._delivered_seqs.add(frame.seq)
                # Ack unconditionally: the previous ack may have been lost.
                self.counters.inc("acks_sent")
                self.endpoint.post_frame(
                    src, Frame(FrameKind.ACK, self.channel, seq=frame.seq),
                    Feature.FAULT_TOLERANCE,
                )
            if duplicate:
                self.counters.inc("duplicates")
                return
        with attr.span(Feature.BUFFER_MGMT):
            # Receive-queue slot management (the datagram's landing buffer).
            self.messages.append([])
        with attr.span(Feature.BASE):
            self.messages[-1].extend(frame.payload)
        tracer = self.endpoint.tracer
        if tracer.enabled:
            tracer.emit(EventType.DELIVER, endpoint=self.endpoint.name,
                        channel=self.channel, seq=frame.seq, aux=frame.aux,
                        feature=Feature.BASE)
        if self.on_message is not None:
            with attr.span(Feature.USER):
                self.on_message(self.messages[-1])
        self._notify()

    # -- completion futures ---------------------------------------------------

    def expect(self, count: int) -> "asyncio.Future":
        """Future resolving once ``count`` messages have been delivered."""
        future = asyncio.get_running_loop().create_future()
        self._waiters.append((count, future))
        self._notify()
        return future

    def _notify(self) -> None:
        done = len(self.messages)
        for count, future in list(self._waiters):
            if done >= count and not future.done():
                future.set_result(done)
        self._waiters = [(c, f) for c, f in self._waiters if not f.done()]

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
    """Destination side: allocate, reassemble by offset, cumulatively ack."""

    def __init__(self, endpoint: RuntimeEndpoint, channel: int = CH_BULK,
                 on_complete: Optional[Callable[[List[int]], None]] = None) -> None:
        self.endpoint = endpoint
        self.channel = channel
        self.on_complete = on_complete
        self._segments: Dict[int, _Segment] = {}
        self._finished: Dict[int, List[int]] = {}  # transfer id -> message
        self._completions: Dict[int, asyncio.Future] = {}
        self.messages: List[List[int]] = []
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

    def completion(self, transfer_id: int) -> "asyncio.Future":
        """Future resolving with the message once the transfer lands
        (already resolved if it landed before anyone asked)."""
        future = self._completions.get(transfer_id)
        if future is None:
            future = asyncio.get_running_loop().create_future()
            self._completions[transfer_id] = future
            if transfer_id in self._finished:
                future.set_result(self._finished[transfer_id])
        return future

    # -- frame handling -------------------------------------------------------

    def _on_frame(self, frame: Frame, src: Address) -> None:
        if frame.kind is FrameKind.ALLOC_REQ:
            self._on_alloc(frame, src)
        elif frame.kind is FrameKind.DATA:
            self._on_data(frame, src)
        elif frame.kind is FrameKind.DEALLOC:
            self._on_dealloc(frame, src)

    def _on_alloc(self, frame: Frame, src: Address) -> None:
        attr = self.endpoint.attribution
        xfer = frame.seq
        if xfer in self._finished:
            # The transfer already completed; the final ack must have been
            # lost — repeat it so the source can release its buffer.
            self._send_final_ack(src, xfer, len(self._finished[xfer]))
            return
        with attr.span(Feature.BUFFER_MGMT):
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
            self.counters.inc("duplicates")
            return
        tracer = self.endpoint.tracer
        if self.endpoint.cr_mode:
            # Ordered lossless delivery: append — no offsets to decode.
            with attr.span(Feature.BASE):
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
        with attr.span(Feature.IN_ORDER):
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
            self.counters.inc("duplicates")
            return
        with attr.span(Feature.BASE):
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
            self._send_final_ack(src, xfer, len(self._finished[xfer]))
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
        with attr.span(Feature.BUFFER_MGMT):
            message = segment.words
            del self._segments[xfer]
            self._finished[xfer] = message
        self.messages.append(message)
        if not self.endpoint.cr_mode:
            self._send_final_ack(src, xfer, segment.total)
        if self.on_complete is not None:
            with attr.span(Feature.USER):
                self.on_complete(message)
        future = self._completions.get(xfer)
        if future is not None and not future.done():
            future.set_result(message)

    def _send_final_ack(self, src: Address, xfer: int, total: int) -> None:
        with self.endpoint.attribution.span(Feature.FAULT_TOLERANCE):
            self.counters.inc("final_acks_sent")
            self.endpoint.post_frame(
                src, Frame(FrameKind.FINAL_ACK, self.channel, seq=xfer, aux=total),
                Feature.FAULT_TOLERANCE,
            )

    def _send_status_ack(self, src: Address, xfer: int, segment: _Segment) -> None:
        with self.endpoint.attribution.span(Feature.FAULT_TOLERANCE):
            self.counters.inc("status_acks_sent")
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
        attr = self.endpoint.attribution
        xfer = next(self._xfer)
        loop = asyncio.get_running_loop()

        if self.endpoint.cr_mode:
            # Steps collapse: the network's ordering and reliability make
            # the handshake a one-way header and the final ack unnecessary.
            await self.endpoint.send_frame(
                self.dst,
                Frame(FrameKind.ALLOC_REQ, self.channel, seq=xfer, aux=len(words)),
                Feature.BUFFER_MGMT,
            )
            packets = await self._send_data_cr(xfer, words)
            await self.endpoint.send_frame(
                self.dst, Frame(FrameKind.DEALLOC, self.channel, seq=xfer),
                Feature.BUFFER_MGMT,
            )
            self.counters.inc("data_rounds")
            return BulkOutcome(transfer_id=xfer, packets_sent=packets, data_rounds=1)

        # Steps 1-3: allocation handshake (retransmitted until replied).
        alloc_future = loop.create_future()
        self._alloc_futures[xfer] = alloc_future
        request = await self.endpoint.send_frame(
            self.dst,
            Frame(FrameKind.ALLOC_REQ, self.channel, seq=xfer, aux=len(words)),
            Feature.BUFFER_MGMT,
        )
        with attr.span(Feature.BUFFER_MGMT):
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
        packets = 0
        cursor = 0
        total = len(words)
        while cursor < total:
            take = min(self.packet_words, total - cursor)
            with attr.span(Feature.IN_ORDER):
                # Offset generation: what sequencing costs when the
                # network may reorder (Section 3.2, Figure 3 step 4).
                offset = cursor
            frame = data_frame(
                self.channel, xfer, words[cursor:cursor + take], aux=offset
            )
            data = await self.endpoint.send_frame(self.dst, frame, Feature.BASE)
            with attr.span(Feature.FAULT_TOLERANCE):
                # Source buffering: pin each packet until its ack covers it.
                self.retransmitter.track(("data", xfer, offset), data,
                                         sample_rtt=False)
            state.wire_bytes += len(data)
            packets += 1
            cursor += take
        dealloc = await self.endpoint.send_frame(
            self.dst, Frame(FrameKind.DEALLOC, self.channel, seq=xfer),
            Feature.BUFFER_MGMT,
        )
        with attr.span(Feature.FAULT_TOLERANCE):
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
        self.counters.inc("data_rounds", rounds)
        gbn_bytes = state.worst_resends * state.wire_bytes
        self.counters.inc("goback_n_equivalent_bytes", gbn_bytes)
        return BulkOutcome(
            transfer_id=xfer, packets_sent=packets, data_rounds=rounds,
            retransmitted_data_bytes=state.resent_bytes,
            goback_n_equivalent_bytes=gbn_bytes,
        )

    async def _send_data_cr(self, xfer: int, words: List[int]) -> int:
        packets = 0
        cursor = 0
        total = len(words)
        while cursor < total:
            take = min(self.packet_words, total - cursor)
            frame = data_frame(
                self.channel, xfer, words[cursor:cursor + take], aux=cursor
            )
            await self.endpoint.send_frame(self.dst, frame, Feature.BASE)
            packets += 1
            cursor += take
        return packets

    def _resend(self, key, data: bytes) -> None:
        if isinstance(key, tuple) and key[0] == "data":
            state = self._inflight.get(key[1])
            if state is not None:
                state.resent_bytes += len(data)
                count = state.resend_counts.get(key[2], 0) + 1
                state.resend_counts[key[2]] = count
                state.worst_resends = max(state.worst_resends, count)
            self.counters.inc("retransmitted_data_packets")
            self.counters.inc("retransmitted_data_bytes", len(data))
        self.endpoint.send_now(self.dst, data)

    def _release_transfer(self, xfer: int) -> None:
        for key in self.retransmitter.tracked_keys():
            if (isinstance(key, tuple) and key[0] in ("data", "dealloc")
                    and key[1] == xfer):
                self.retransmitter.ack(key)

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
            self._release_transfer(key[1])

    def _on_frame(self, frame: Frame, src: Address) -> None:
        if frame.kind is FrameKind.ALLOC_REPLY:
            with self.endpoint.attribution.span(Feature.BUFFER_MGMT):
                self.retransmitter.ack(("alloc", frame.seq))
                future = self._alloc_futures.pop(frame.seq, None)
                if future is not None and not future.done():
                    future.set_result(True)
        elif frame.kind is FrameKind.FINAL_ACK:
            with self.endpoint.attribution.span(Feature.FAULT_TOLERANCE):
                self._on_final_ack(frame)

    def _on_final_ack(self, frame: Frame) -> None:
        xfer = frame.seq
        state = self._inflight.get(xfer)
        if state is None:
            # Duplicate/stale final ack for a transfer already resolved
            # (or never started): benign, count and drop.
            self.counters.inc("stale_final_acks")
            return
        high_water = frame.aux
        total = state.total_words
        # Cumulative release: every packet the contiguous mark covers.
        for key in self.retransmitter.tracked_keys():
            if (isinstance(key, tuple) and key[0] == "data"
                    and key[1] == xfer):
                offset = key[2]
                take = min(self.packet_words, total - offset)
                if offset + take <= high_water:
                    self.retransmitter.ack(key)
        # Selective release: packets parked beyond the gap.
        for offset in frame.payload:
            self.retransmitter.ack(("data", xfer, int(offset)))
        if high_water >= total:
            self._release_transfer(xfer)
            if not state.future.done():
                state.future.set_result(high_water)

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
        self._seq = SequenceGenerator()
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
        return self._seq.issued

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

    @property
    def recoveries_started(self) -> int:
        return self.counters.get("recoveries_started")

    @property
    def recoveries_completed(self) -> int:
        return self.counters.get("recoveries_completed")

    async def send(self, words: Sequence[int]) -> int:
        """Send one packet's worth of data; returns its sequence number.

        Blocks (uncharged — it is idle time, not messaging work) while the
        send window is full.
        """
        if self._closed:
            raise ProtocolFailure("channel sender is closed")
        self._raise_if_failed()
        attr = self.endpoint.attribution
        nbytes = len(words) * 4
        if self.endpoint.cr_mode:
            # The network orders and retains packets — but it does not
            # size the receiver's buffers, so credit still gates admission.
            await self._await_credit(nbytes)
            seq = self._seq.next()
            frame = data_frame(self.channel, seq, words)
            await self.endpoint.send_frame(self.dst, frame, Feature.BASE)
            if self.flow is not None:
                with attr.span(Feature.FLOW_CONTROL):
                    self.flow.consume(nbytes)
            return seq
        while self.retransmitter.outstanding >= self.window:
            self._space.clear()
            await self._space.wait()
            if self._closed:
                raise ProtocolFailure("channel sender is closed")
            self._raise_if_failed()
        await self._await_credit(nbytes)
        with attr.span(Feature.IN_ORDER):
            seq = self._seq.next()
        frame = data_frame(self.channel, seq, words)
        data = await self.endpoint.send_frame(self.dst, frame, Feature.BASE)
        with attr.span(Feature.FAULT_TOLERANCE):
            # Source buffering: pin the packet until an ack covers it.
            self.retransmitter.track(seq, data)
            self._wire[seq] = data
        if self.flow is not None:
            with attr.span(Feature.FLOW_CONTROL):
                self.flow.consume(nbytes)
        return seq

    def flow_signal(self, next_bytes: int = 0) -> BackpressureSignal:
        """The current backpressure advice (always OK when unmetered)."""
        if self.flow is None:
            return BackpressureSignal.OK
        return self.flow.signal(next_bytes)

    async def _await_credit(self, nbytes: int) -> None:
        """Block until the peer's advertised credit covers ``nbytes``.

        Idle waiting is uncharged (like the window wait above); the
        admission bookkeeping around it is charged to
        :attr:`Feature.FLOW_CONTROL`.  While starved past the probe
        interval — possible only when nothing is in flight to elicit an
        ack — a ``CREDIT_UPDATE`` probe asks the receiver to
        re-advertise, so a partition that ate every grant can't wedge
        the sender forever.
        """
        flow = self.flow
        if flow is None or flow.can_send(nbytes):
            return
        endpoint = self.endpoint
        tracer = endpoint.tracer
        if tracer.enabled:
            tracer.emit(EventType.FLOW_BLOCK, endpoint=endpoint.name,
                        channel=self.channel, seq=self._seq.issued,
                        aux=max(flow.available_bytes, 0),
                        feature=Feature.FLOW_CONTROL)
        self.counters.inc("flow.blocked")
        blocked_from = time.perf_counter_ns()
        while not flow.can_send(nbytes):
            if self._closed:
                raise ProtocolFailure("channel sender is closed")
            self._raise_if_failed()
            granted = await flow.grant_wait(nbytes,
                                            flow.config.probe_interval)
            if granted:
                break
            with endpoint.attribution.span(Feature.FLOW_CONTROL):
                self.counters.inc("flow.probes")
                endpoint.post_frame(self.dst,
                                    credit_probe_frame(self.channel),
                                    Feature.FLOW_CONTROL)
        blocked_ns = time.perf_counter_ns() - blocked_from
        self.counters.inc("flow.blocked_ns", blocked_ns)
        if tracer.enabled:
            tracer.emit(EventType.FLOW_UNBLOCK, endpoint=endpoint.name,
                        channel=self.channel, seq=self._seq.issued,
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
            self.counters.inc("flow.malformed_acks")
            return ()
        sacks = tuple(payload[:-CREDIT_WORDS])
        granted_bytes, granted_msgs = parse_credit_words(
            payload[-CREDIT_WORDS:])
        with self.endpoint.attribution.span(Feature.FLOW_CONTROL):
            if self.flow.apply(granted_bytes, granted_msgs):
                self.counters.inc("flow.updates_applied")
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
        self.endpoint.send_now(self.dst, data)

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
            self.counters.inc("recoveries_started")
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
        base = min(self._wire) if self._wire else self._seq.issued
        if endpoint.tracer.enabled:
            endpoint.tracer.emit(EventType.EPOCH, endpoint=endpoint.name,
                                 channel=self.channel, seq=proposed, aux=base,
                                 kind="EPOCH_PROBE",
                                 feature=Feature.FAULT_TOLERANCE)
        timeout = policy.probe_interval
        for _attempt in range(policy.probe_retries):
            self._epoch_reply = loop.create_future()
            self.counters.inc("epoch_probes")
            await endpoint.send_frame(
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
        with self.endpoint.attribution.span(Feature.FAULT_TOLERANCE):
            covered = {int(s) for s in sacks}
            stale = [s for s in self._wire if s < expected or s in covered]
            for seq in stale:
                del self._wire[seq]
                self.retransmitter.ack(seq)
            for seq in sorted(self._wire):
                self.retransmitter.requeue(seq, self._wire[seq])
            self.retransmitter.resume()
            self.counters.inc("recoveries_completed")
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

    def _on_frame(self, frame: Frame, src: Address) -> None:
        if frame.kind is FrameKind.EPOCH_REPLY:
            future = self._epoch_reply
            if future is not None and not future.done():
                future.set_result(frame)
            return
        if frame.kind is FrameKind.CREDIT_UPDATE:
            # A standalone advertisement (watermark top-up or an answered
            # probe).  Empty payloads are probes — sender-directed frames
            # only, meaningless here.
            if self.flow is not None and frame.payload:
                self.counters.inc("flow.updates_rx")
                self._apply_credit(frame.payload)
            return
        if frame.kind is not FrameKind.CUM_ACK:
            return
        # A metered ack carries its credit grant as a payload suffix;
        # peel it off (charged to flow control) before the sack scan.
        sacks = self._apply_credit(frame.payload)
        with self.endpoint.attribution.span(Feature.FAULT_TOLERANCE):
            self.counters.inc("acks_received")
            # Cumulative: everything below next-expected is delivered.
            released = self.retransmitter.ack_below(frame.seq)
            for seq in [s for s in self._wire if s < frame.seq]:
                del self._wire[seq]
            # Selective: out-of-order packets parked in the reorder buffer.
            # These stay in the byte mirror — a receiver crash loses its
            # parked packets, and recovery must be able to resupply them.
            for seq in sacks:
                if self.retransmitter.ack(int(seq)):
                    released += 1
            self.counters.inc("packets_released", released)
            if self.retransmitter.outstanding < self.window:
                self._space.set()
            if self.retransmitter.outstanding == 0:
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

    Instead of one ack datagram per data datagram, the receiver sends a
    cumulative ``CUM_ACK`` (next-expected seq + selective acks for parked
    packets):

    * immediately every ``ack_every`` arrivals, so a streaming sender's
      window keeps turning;
    * immediately on a duplicate arrival — a duplicate means the sender
      retransmitted, i.e. a previous ack (or the packet) was lost;
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
        self.delivered: List[Tuple[int, Tuple[int, ...]]] = []
        self.counters = endpoint.counters.scoped("stream_rx")
        self._unacked = 0
        self._parked: Set[int] = set()
        self._ack_handle: Optional[asyncio.TimerHandle] = None
        self._waiters: List[Tuple[int, asyncio.Future]] = []
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
    def window_overflows(self) -> int:
        return self.counters.get("window_overflows")

    @property
    def duplicates(self) -> int:
        return self.reorder.duplicates

    @property
    def ooo_arrivals(self) -> int:
        return self.reorder.ooo_accepted

    @property
    def delivered_count(self) -> int:
        return len(self.delivered)

    def delivered_words(self) -> List[int]:
        return [w for _seq, payload in self.delivered for w in payload]

    def _on_frame(self, frame: Frame, src: Address) -> None:
        if frame.kind is FrameKind.EPOCH_REQ:
            self._on_epoch_req(frame, src)
            return
        if frame.kind is FrameKind.CREDIT_UPDATE:
            # A starved sender's probe (empty payload): answer with a
            # fresh full-state advertisement, unconditionally — the
            # probe exists precisely because previous grants were lost.
            if self.flow is not None and not frame.payload:
                with self.endpoint.attribution.span(Feature.FLOW_CONTROL):
                    self.counters.inc("flow.probes_rx")
                    self._post_credit_update(src)
            return
        if frame.kind is not FrameKind.DATA:
            return
        self.counters.inc("arrivals")
        attr = self.endpoint.attribution
        tracer = self.endpoint.tracer
        if self.endpoint.cr_mode:
            # Lossless FIFO network: every packet is the next packet.
            # Credit still meters buffer admission — and with no ack
            # traffic to piggyback on, every top-up is a standalone frame.
            if self.flow is not None:
                with attr.span(Feature.FLOW_CONTROL):
                    update_due = self.flow.on_data(len(frame.payload) * 4)
            self._deliver(frame.seq, frame.payload)
            if self.flow is not None and update_due:
                with attr.span(Feature.FLOW_CONTROL):
                    self.counters.inc("flow.updates_sent")
                    self._post_credit_update(src)
            self._notify()
            return
        duplicates_before = self.reorder.duplicates
        with attr.span(Feature.IN_ORDER):
            try:
                run = self.reorder.accept(frame.seq, frame.payload)
            except SequenceError:
                # Beyond the reorder window (only possible if the sender's
                # window exceeds ours): treat as a drop and let the
                # retransmission path deliver it once we have caught up.
                self.counters.inc("window_overflows")
                return
            if run:
                for run_seq, run_payload in run:
                    if run_seq in self._parked:
                        self._parked.discard(run_seq)
                        if tracer.enabled:
                            tracer.emit(EventType.UNPARK,
                                        endpoint=self.endpoint.name,
                                        channel=self.channel, seq=run_seq,
                                        aux=0, feature=Feature.IN_ORDER)
                    self._deliver(run_seq, run_payload)
            elif self.reorder.duplicates == duplicates_before:
                self._parked.add(frame.seq)
                if tracer.enabled:
                    # Out-of-order: the packet waits in the reorder
                    # buffer until its gap fills.
                    tracer.emit(EventType.PARK, endpoint=self.endpoint.name,
                                channel=self.channel, seq=frame.seq, aux=0,
                                feature=Feature.IN_ORDER)
        duplicate = self.reorder.duplicates > duplicates_before
        if self.flow is not None and not duplicate:
            # Admission accounting for every fresh packet (parked ones
            # occupy buffer until their gap fills; duplicates never enter).
            with attr.span(Feature.FLOW_CONTROL):
                self.flow.on_data(len(frame.payload) * 4)
        with attr.span(Feature.FAULT_TOLERANCE):
            self._unacked += 1
            if duplicate or self._unacked >= self.ack_every:
                self._send_ack(src)
                self.counters.inc("immediate_acks")
            else:
                if self.flow is not None and self.flow.update_due:
                    # The low watermark crossed between acks: advertise
                    # now instead of waiting out the delayed-ack timer —
                    # a starved sender's window must keep turning.
                    with attr.span(Feature.FLOW_CONTROL):
                        self.counters.inc("flow.updates_sent")
                        self._post_credit_update(src)
                self._schedule_ack(src)
        self._notify()

    # -- epoch renegotiation --------------------------------------------------

    @property
    def epoch_requests(self) -> int:
        return self.counters.get("epoch_requests")

    def _on_epoch_req(self, frame: Frame, src: Address) -> None:
        """A sender gave up retransmitting and is asking where we stand.

        Reply with the durable next-expected sequence number (plus
        selective acks for anything parked) under the highest epoch
        either side has seen.  The reply is definitive: the sender
        purges below it and resupplies the rest.
        """
        with self.endpoint.attribution.span(Feature.FAULT_TOLERANCE):
            proposed, base = frame.seq, frame.aux
            self.counters.inc("epoch_requests")
            if proposed > self.epoch:
                self.epoch = proposed
                if self.endpoint.tracer.enabled:
                    self.endpoint.tracer.emit(
                        EventType.EPOCH, endpoint=self.endpoint.name,
                        channel=self.channel, seq=proposed, aux=base,
                        kind="EPOCH_ADOPT", feature=Feature.FAULT_TOLERANCE)
            if self.reorder.expected < base and not self.delivered:
                # A receiver with no delivery history joining a stream
                # already under way: accept the sender's base rather than
                # waiting forever for sequence numbers that predate us.
                self.reorder = ReorderWindow(window=self.reorder.window,
                                             start=base)
                self._parked.clear()
            sacks = sorted(self._parked)[:MAX_SACKS]
            self.counters.inc("acks_sent")
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
        survives: the in-order delivery point and everything already
        delivered.  Returns the durable next-expected sequence number
        (what a restarted incarnation passes as ``resume_expected``).
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
        with self.endpoint.attribution.span(Feature.FLOW_CONTROL):
            if self.flow.update_due:
                self.counters.inc("flow.updates_coalesced")
            granted_bytes, granted_msgs = self.flow.advertise()
            self.counters.inc("flow.credits_granted",
                              max(granted_bytes - self._last_granted, 0))
            self._last_granted = granted_bytes
            return credit_words(granted_bytes, granted_msgs)

    def _post_credit_update(self, src: Address) -> None:
        """Send a standalone full-state advertisement to the sender."""
        granted_bytes, granted_msgs = self.flow.advertise()
        self.counters.inc("flow.credits_granted",
                          max(granted_bytes - self._last_granted, 0))
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
        self.counters.inc("acks_sent")
        sacks = sorted(self._parked)[:MAX_SACKS]
        self.endpoint.post_frame(
            src, cum_ack_frame(self.channel, self.reorder.expected, sacks,
                               epoch=self.epoch,
                               credit=self._credit_suffix()),
            Feature.FAULT_TOLERANCE,
        )

    def _schedule_ack(self, src: Address) -> None:
        if self._ack_handle is None:
            self._ack_handle = asyncio.get_running_loop().call_later(
                self.ack_delay, self._ack_timer, src
            )

    def _ack_timer(self, src: Address) -> None:
        self._ack_handle = None
        tracer = self.endpoint.tracer
        if tracer.enabled:
            tracer.emit(EventType.TIMER_FIRE, endpoint=self.endpoint.name,
                        channel=self.channel, seq=self.reorder.expected,
                        kind="DELAYED_ACK", feature=Feature.FAULT_TOLERANCE)
        if self._unacked:
            with self.endpoint.attribution.span(Feature.FAULT_TOLERANCE):
                self._send_ack(src)
                self.counters.inc("delayed_acks")

    def close(self) -> None:
        """Unbind the handler and cancel the pending delayed-ack timer."""
        self.endpoint.unbind(self.channel)
        if self._ack_handle is not None:
            self._ack_handle.cancel()
            self._ack_handle = None

    def _deliver(self, seq: int, payload: Tuple[int, ...]) -> None:
        if self.flow is not None:
            # The packet leaves the reorder buffer toward the user:
            # its bytes stop counting against the credit window.
            with self.endpoint.attribution.span(Feature.FLOW_CONTROL):
                self.flow.on_deliver(len(payload) * 4)
        with self.endpoint.attribution.span(Feature.BASE):
            self.delivered.append((seq, tuple(payload)))
        tracer = self.endpoint.tracer
        if tracer.enabled:
            tracer.emit(EventType.DELIVER, endpoint=self.endpoint.name,
                        channel=self.channel, seq=seq, aux=0,
                        feature=Feature.BASE)
        if self.user_deliver is not None:
            with self.endpoint.attribution.span(Feature.USER):
                self.user_deliver(seq, tuple(payload))

    # -- completion futures ---------------------------------------------------

    def expect(self, packets: int) -> "asyncio.Future":
        """Future resolving once ``packets`` packets have been delivered."""
        future = asyncio.get_running_loop().create_future()
        self._waiters.append((packets, future))
        self._notify()
        return future

    def _notify(self) -> None:
        done = len(self.delivered)
        for count, future in list(self._waiters):
            if done >= count and not future.done():
                future.set_result(done)
        self._waiters = [(c, f) for c, f in self._waiters if not f.done()]
