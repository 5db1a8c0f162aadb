"""Runtime endpoints: a transport plus frame dispatch.

The live counterpart of :class:`repro.api.endpoint.Endpoint`.  Where the
simulated endpoint wraps a node's NI with an active-message dispatcher,
the runtime endpoint wraps a :class:`~repro.runtime.transport.Transport`
with a frame codec and a per-logical-channel handler table.  Decoding a
datagram into frames is data movement, so it is charged to the base
bucket of the endpoint's :class:`TimeAttribution` — the runtime analogue
of the paper's NI-access instruction counts.

Outbound frames are *batched*: ``send_frame`` (alias ``post_frame``)
encodes and enqueues, and one flush seals every frame bound for the
same peer into datagrams of at most ``flush_mtu`` bytes, each its
frames back to back behind one CRC trailer (see
:func:`repro.runtime.frames.encode_batch`).  A flush requested while
the timer wheel fires runs on the wheel's ready queue, after every due
timer of that pass; any other runs as one loop callback on the next
turn, which also runs the ready queue (the deliveries it made).  The
flush pushes each destination's datagrams through one call of the
transport's synchronous ``send_now(dst, *datagrams)`` — a *burst* — so
the send path is plain calls from protocol to wire — no coroutine,
**no asyncio task** — and because each destination has exactly one
FIFO queue drained by one flush, two frames for the same channel can
never reach the wire out of order (the hazard the old task-per-frame
``post_frame`` had).  A retransmission takes the same path:
:meth:`RuntimeEndpoint.resend` queues the frame's wire bytes again, so
every frame a timer pass resends to a peer rides the flush with the
acks, credit and data queued in that pass, and costs no datagram of
its own.

The transport hands received datagrams over the same way, one call of
:meth:`RuntimeEndpoint._on_datagram` per burst from one source.  Each
datagram is checked once against its CRC, and the burst's frames are
dispatched in order, one run of same-channel, same-kind frames of one
datagram per handler call; protocol state machines only ever see
frames, and see the same runs however the datagrams were grouped.
"""

from __future__ import annotations

import asyncio
import time
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.attribution import Feature
from repro.runtime.frames import (
    _HEADER,
    _KIND_BY_VALUE,
    CRC_RESIDUE,
    MAX_BATCH_BYTES,
    MAX_PAYLOAD_WORDS,
    TRACE_CTX_KINDS,
    TRACE_CTX_WORDS,
    TRACE_FLAG,
    TRAILER_BYTES,
    Frame,
    FrameError,
    FrameKind,
    decode_frame,
    encode_batch,
    encode_frame,
    trace_context_words,
)
from repro.runtime.spans import TimeAttribution
from repro.runtime.timers import TimerWheel
from repro.runtime.tracing import Counters, EventType, NULL_TRACER, Tracer
from repro.runtime.transport import Address, Transport

#: A channel's handler takes a run of its frames: consecutive frames of
#: one kind from one datagram, in wire order.
FrameHandler = Callable[[List[Frame], Address], None]

#: Frame kinds that are acknowledgements (traced as ACK_TX / ACK_RX).
#: EPOCH_REPLY belongs here: it carries a definitive cumulative ack.
ACK_KINDS = frozenset({FrameKind.ACK, FrameKind.CUM_ACK, FrameKind.FINAL_ACK,
                       FrameKind.EPOCH_REPLY})

#: Default flush MTU: datagrams are sealed at Ethernet-payload scale,
#: so coalescing amortizes per-datagram overhead (16 DATA frames of 15
#: words fit in one) without collapsing a whole send window into one
#: all-or-nothing datagram — loss granularity stays packet-like.
FLUSH_MTU = 1200


class RuntimeEndpoint:
    """One side of a live conversation: transport + codec + dispatch."""

    def __init__(self, transport: Transport, name: str = "",
                 attribution: Optional[TimeAttribution] = None,
                 tracer: Optional[Tracer] = None,
                 flush_mtu: int = FLUSH_MTU,
                 timers: Optional[TimerWheel] = None) -> None:
        self.transport = transport
        #: True when the transport provides ordering *and* reliability.
        #: A transport's service flags are fixed once it is attached, so
        #: the per-packet readers get a plain attribute.
        self.cr_mode = (transport.provides_in_order
                        and transport.provides_reliability)
        self.flush_mtu = min(flush_mtu, MAX_BATCH_BYTES)
        self.name = name or repr(transport.local_address)
        self.attribution = attribution or TimeAttribution()
        # `is not None`, not `or`: an empty tracer is len()==0-falsy.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.counters = Counters()
        #: The wheel every protocol on this endpoint schedules its
        #: deadlines on: the fabric's, shared by all of its peers, or a
        #: wheel of this endpoint's own.
        self.timers = timers if timers is not None else TimerWheel()
        #: Sources heard from since the failure detector last looked — a
        #: set only while a detector is attached (it swaps the set out
        #: every probe round), None otherwise.
        self.heard: Optional[Set[Address]] = None
        self._handlers: Dict[int, FrameHandler] = {}
        self.sent_by_kind: Dict[FrameKind, int] = {}
        # Wire identity for the piggybacked trace context: a 32-bit id
        # journey reconstruction maps back to the endpoint name.
        self.trace_origin = zlib.crc32(self.name.encode("utf-8", "replace"))
        # Outbound batching state: per-destination FIFO queues of
        # encoded frames, first sends and retransmissions alike, drained
        # by one flush per batch of requests (a timer pass, or a loop
        # turn).
        self._out: Dict[Address, List[bytes]] = {}
        self._flush_scheduled = False
        transport.set_receiver(self._on_datagram)

    @property
    def local_address(self) -> Address:
        return self.transport.local_address

    # -- dispatch -------------------------------------------------------------

    def bind(self, channel: int, handler: FrameHandler) -> None:
        """Route frames for a logical channel to ``handler``, one run
        of frames per call."""
        if channel in self._handlers:
            raise ValueError(f"channel {channel} already bound")
        self._handlers[channel] = handler

    def unbind(self, channel: int) -> None:
        self._handlers.pop(channel, None)

    def _on_datagram(self, datagrams: Sequence[bytes], src: Address) -> None:
        """Check each datagram of a burst against its CRC, decode it,
        then dispatch the burst's frames run by run.

        A burst is what the transport hands over in one call: datagrams
        from one source, in wire order (a burst of one is the common
        case).  The whole burst is decoded under one ``BASE`` span and
        then dispatched, so per-datagram work that is not the frames'
        own is paid once per burst.

        The CRC check is :func:`~repro.runtime.frames.decode_datagram`
        inlined: it costs no Python call of its own, and each frame's
        decode is one call of ``decode_frame``.  Damage anywhere in a
        datagram loses that datagram whole — counted once, traced as one
        CORRUPT event in its place among the burst's RECVs — which
        degrades into ordinary packet loss that retransmission recovers;
        the datagrams around it are still delivered.  Every frame of the
        burst decodes before the first dispatches.

        A *run* is consecutive frames of one channel and one kind from
        one datagram: runs end at datagram boundaries, so a handler sees
        the same calls whether the datagrams came as one burst or one
        at a time.  The decode loop builds the runs as it goes (one
        ``append`` per frame, to the open run or as a new one), and each
        run costs one handler lookup and one ``handler(frames, src)``
        call: a protocol pays its per-packet work once per run, not per
        frame.

        When tracing is on, each datagram's *arrival* instant is stamped
        once and every frame's RECV carries its own datagram's arrival
        as its timestamp, with that frame's own decode slice in
        ``dur_ns`` — late frames do not inherit their siblings' decode
        time as phantom wire latency.
        """
        heard = self.heard
        if heard is not None:
            heard.add(src)
        traced = self.tracer.enabled
        counters = self.counters
        runs: List[Optional[List[Frame]]] = []
        received = 0
        # Traced only: (arrival, decode_ns) per frame, and the arrival of
        # each damaged datagram, whose place in `runs` holds None.
        stamps: List[Tuple[int, int]] = []
        with self.attribution.spans[Feature.BASE]:
            for data in datagrams:
                if traced:
                    arrival = prev = time.perf_counter_ns()
                if zlib.crc32(data) != CRC_RESIDUE:
                    counters["corrupt_datagrams"] += 1
                    if traced:
                        runs.append(None)
                        stamps.append((arrival, 0))
                    continue
                end = len(data) - TRAILER_BYTES
                offset = 0
                # This datagram's runs, frames and stamps join the
                # burst's only once all of it has decoded.
                found: List[List[Frame]] = []
                frames = 0
                if traced:
                    timed: List[Tuple[int, int]] = []
                channel = kind = None
                try:
                    while True:
                        frame, offset = decode_frame(data, offset, end)
                        frames += 1
                        if frame.kind is kind and frame.channel == channel:
                            run.append(frame)
                        else:
                            kind = frame.kind
                            channel = frame.channel
                            run = [frame]
                            found.append(run)
                        if traced:
                            now = time.perf_counter_ns()
                            timed.append((arrival, now - prev))
                            prev = now
                        if offset == end:
                            break
                except FrameError:
                    # Intact but unparseable: a sender bug, dropped whole.
                    counters["decode_errors"] += 1
                    continue
                runs += found
                received += frames
                if traced:
                    stamps += timed
        if received:
            counters["frames_received"] += received
        handlers = self._handlers
        if traced:
            emit = self.tracer.emit
            feature = self.attribution.current
            index = 0
        for run in runs:
            if traced:
                if run is None:
                    emit(EventType.CORRUPT, endpoint=self.name, channel=-1,
                         seq=-1, feature=Feature.FAULT_TOLERANCE,
                         ts_ns=stamps[index][0])
                    index += 1
                    continue
                kind = run[0].kind
                if kind in ACK_KINDS:
                    etype = EventType.ACK_RX
                elif kind is FrameKind.CREDIT_UPDATE:
                    etype = EventType.CREDIT_RX
                else:
                    etype = EventType.RECV
                name = kind.name
                for frame in run:
                    arrival, decode_ns = stamps[index]
                    emit(etype, endpoint=self.name, channel=frame.channel,
                         seq=frame.seq, aux=frame.aux, kind=name,
                         feature=feature, ts_ns=arrival, dur_ns=decode_ns,
                         origin=frame.origin,
                         origin_ts_ns=frame.origin_ts_ns)
                    index += 1
            handler = handlers.get(run[0].channel)
            if handler is None:
                counters["unrouted"] += len(run)
            else:
                handler(run, src)

    # -- sending --------------------------------------------------------------

    def send_frame(self, dst: Address, frame: Frame,
                   feature: Feature = Feature.BASE) -> bytes:
        """Encode and queue for ``dst``'s next flush; returns the frame's
        wire bytes (for retransmit tracking, see :meth:`resend`).  The
        encode work is charged to ``feature``; the coalesced wire push is
        charged to BASE when the flush runs."""
        with self.attribution.spans[feature]:
            tracer = self.tracer
            if tracer.enabled:
                # Stamp first, then put the very same timestamp both on
                # the wire (trace-context suffix) and on the SEND event:
                # the receiver's RECV then names this exact event, even
                # for retransmits (which replay these wire bytes).
                send_ns = time.perf_counter_ns()
                ctx = None
                if (frame.kind in TRACE_CTX_KINDS
                        and len(frame.payload) + TRACE_CTX_WORDS
                        <= MAX_PAYLOAD_WORDS):
                    ctx = trace_context_words(self.trace_origin, send_ns)
                data = encode_frame(frame, ctx)
                self.counters["frames_sent"] += 1
                self.sent_by_kind[frame.kind] = \
                    self.sent_by_kind.get(frame.kind, 0) + 1
                if frame.kind in ACK_KINDS:
                    etype = EventType.ACK_TX
                elif frame.kind is FrameKind.CREDIT_UPDATE:
                    etype = EventType.CREDIT_TX
                else:
                    etype = EventType.SEND
                tracer.emit(
                    etype,
                    endpoint=self.name, channel=frame.channel, seq=frame.seq,
                    aux=frame.aux, kind=frame.kind.name, feature=feature,
                    ts_ns=send_ns,
                )
            else:
                data = encode_frame(frame)
                self.counters["frames_sent"] += 1
                self.sent_by_kind[frame.kind] = \
                    self.sent_by_kind.get(frame.kind, 0) + 1
            queue = self._out.get(dst)
            if queue is None:
                queue = self._out[dst] = []
            queue.append(data)
            if not self._flush_scheduled:
                self._flush_scheduled = True
                timers = self.timers
                if timers.firing:
                    # Later timers of this pass may add to the batch
                    # (delayed acks to one peer share one datagram).
                    timers.call_soon(self._flush)
                else:
                    # The next turn, not the ready queue: tasks woken by
                    # the delivery that asked for this flush may still
                    # add their frames to it.
                    asyncio.get_running_loop().call_soon(
                        timers.call_and_drain, self._flush)
        return data

    #: Fire-and-forget callers (handlers, timers) use this name.
    post_frame = send_frame

    def send_frames(self, dst: Address, frames: Sequence[Frame],
                    feature: Feature = Feature.BASE) -> List[bytes]:
        """:meth:`send_frame` for a run of frames of one kind: encode
        each, queue them in order for ``dst``'s next flush, and return
        their wire bytes in the same order.  The run pays one span, one
        queue lookup and at most one flush request, however long it is,
        so a run of one costs what :meth:`send_frame` does.  Traced,
        each frame goes through :meth:`send_frame`: stamped, carrying a
        trace context of its own, with its own SEND event.  An empty run
        queues nothing, and a run with a frame that does not encode
        raises :class:`FrameError` with nothing queued."""
        if not frames:
            return []
        if self.tracer.enabled:
            # All or nothing, as below: the frames after the first are
            # encoded before the first is queued (the first encodes
            # before it queues), so a frame the wire cannot carry
            # raises with none of the run queued.
            for frame in frames[1:]:
                encode_frame(frame)
            return [self.send_frame(dst, frame, feature) for frame in frames]
        with self.attribution.spans[feature]:
            wire = list(map(encode_frame, frames))
            count = len(wire)
            self.counters["frames_sent"] += count
            kind = frames[0].kind
            self.sent_by_kind[kind] = self.sent_by_kind.get(kind, 0) + count
            queue = self._out.get(dst)
            if queue is None:
                queue = self._out[dst] = []
            queue += wire
            if not self._flush_scheduled:
                # Scheduled as in send_frame.
                self._flush_scheduled = True
                timers = self.timers
                if timers.firing:
                    timers.call_soon(self._flush)
                else:
                    asyncio.get_running_loop().call_soon(
                        timers.call_and_drain, self._flush)
        return wire

    def resend(self, dst: Address, data: bytes) -> None:
        """Queue one frame's wire bytes, as :meth:`send_frame` returned
        them, for ``dst``'s next flush again: a retransmission.  It
        joins the same FIFO queue as every other frame, so the frames
        one timer pass resends to a peer are sealed together, with the
        acks, credit and data queued in that pass.  It counts as no sent
        frame and traces no SEND (the retransmitter traces RETRANSMIT);
        the flush charges its seal to BASE, traces its FLUSH, and counts
        a failed push in ``send_errors``."""
        queue = self._out.get(dst)
        if queue is None:
            queue = self._out[dst] = []
        queue.append(data)
        if not self._flush_scheduled:
            # Scheduled as in send_frame, whose hot path keeps it inline.
            self._flush_scheduled = True
            timers = self.timers
            if timers.firing:
                timers.call_soon(self._flush)
            else:
                asyncio.get_running_loop().call_soon(
                    timers.call_and_drain, self._flush)

    def _flush(self) -> None:
        """Coalesce and transmit every queued frame: each destination's
        datagrams go out as one burst, one ``send_now(dst,
        *datagrams)`` call.  A burst whose push raises counts each of
        its datagrams in ``send_errors``.

        With tracing on, every frame on the wire, retransmissions
        included, gets one FLUSH event.  Its identity (kind, channel,
        seq, aux) is read back from its own header bytes, so a queue
        holds nothing but wire bytes, traced or not.  Each FLUSH is
        stamped when its burst hits the wire; ``dur_ns`` is the time
        since the flush tick started — the share of the SEND→wire gap
        spent *inside* the flush (coalescing, earlier bursts of the same
        tick) as opposed to waiting for the tick to run.  The untraced
        path makes no call for it.
        """
        self._flush_scheduled = False
        queues = self._out
        if not queues:
            return
        self._out = {}
        send_now = self.transport.send_now
        traced = self.tracer.enabled
        emit = self.tracer.emit
        unpack_header = _HEADER.unpack_from
        with self.attribution.spans[Feature.BASE]:
            tick_start = time.perf_counter_ns() if traced else 0
            for dst, frames in queues.items():
                # A lone frame (an open-loop message, a lone
                # retransmission) is sealed as it is, without the
                # bundling loop.
                if len(frames) == 1:
                    datagrams = (encode_batch(frames),)
                else:
                    datagrams = self._bundle(frames)
                try:
                    send_now(dst, *datagrams)
                except Exception:
                    self.counters["send_errors"] += len(datagrams)
                    continue
                if traced:
                    now = time.perf_counter_ns()
                    for data in frames:
                        _magic, kind, channel, seq, aux, _words = \
                            unpack_header(data)
                        emit(EventType.FLUSH, endpoint=self.name,
                             channel=channel, seq=seq, aux=aux,
                             kind=_KIND_BY_VALUE[kind & ~TRACE_FLAG].name,
                             feature=Feature.BASE,
                             ts_ns=now, dur_ns=now - tick_start)

    def _bundle(self, frames: List[bytes]) -> List[bytes]:
        """Seal queued frames into datagrams of at most ``flush_mtu``
        bytes (a frame larger than that goes alone), in order."""
        datagrams: List[bytes] = []
        group: List[bytes] = []
        size = TRAILER_BYTES
        mtu = self.flush_mtu
        for data in frames:
            needed = len(data)
            if group and size + needed > mtu:
                datagrams.append(self._seal(group))
                group = []
                size = TRAILER_BYTES
            group.append(data)
            size += needed
        datagrams.append(self._seal(group))
        return datagrams

    def _seal(self, group: List[bytes]) -> bytes:
        count = len(group)
        if count > 1:
            self.counters["batches_sent"] += 1
            self.counters["batched_frames"] += count
        return encode_batch(group)

    # -- wire accounting ------------------------------------------------------
    # The scalar tallies live in the endpoint's Counters registry; the
    # attribute names survive as read-only properties.

    @property
    def frames_received(self) -> int:
        return self.counters.get("frames_received")

    @property
    def frames_sent(self) -> int:
        return self.counters.get("frames_sent")

    @property
    def send_errors(self) -> int:
        """Posted/queued frames whose wire push raised."""
        return self.counters.get("send_errors")

    @property
    def batches_sent(self) -> int:
        """Datagrams of more than one frame put on the wire by the
        flush loop."""
        return self.counters.get("batches_sent")

    @property
    def batched_frames(self) -> int:
        """Frames that travelled in datagrams of more than one frame."""
        return self.counters.get("batched_frames")

    @property
    def pending_posts(self) -> int:
        """Frames accepted for transmission but not yet on the wire."""
        return sum(len(q) for q in self._out.values())

    @property
    def data_frames_sent(self) -> int:
        """First-transmission DATA frames (retransmits go through
        :meth:`resend`, which counts none)."""
        return self.sent_by_kind.get(FrameKind.DATA, 0)

    @property
    def credit_frames_sent(self) -> int:
        """Standalone flow-control datagrams (advertisements + probes)."""
        return self.sent_by_kind.get(FrameKind.CREDIT_UPDATE, 0)

    @property
    def membership_frames_sent(self) -> int:
        """SWIM membership control datagrams (probes, relays, acks)."""
        return (
            self.sent_by_kind.get(FrameKind.PING, 0)
            + self.sent_by_kind.get(FrameKind.PING_REQ, 0)
            + self.sent_by_kind.get(FrameKind.PING_ACK, 0)
        )

    @property
    def ack_frames_sent(self) -> int:
        """Acknowledgement datagrams of every flavour sent by this side."""
        return (
            self.sent_by_kind.get(FrameKind.ACK, 0)
            + self.sent_by_kind.get(FrameKind.CUM_ACK, 0)
            + self.sent_by_kind.get(FrameKind.FINAL_ACK, 0)
        )

    async def close(self) -> None:
        """Flush queued frames, then release the transport."""
        # Push anything still queued: losing it here would turn every
        # endpoint close into artificial packet loss.
        self._flush()
        await self.transport.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RuntimeEndpoint({self.name}, cr={self.cr_mode})"
