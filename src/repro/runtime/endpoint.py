"""Runtime endpoints: a transport plus frame dispatch.

The live counterpart of :class:`repro.api.endpoint.Endpoint`.  Where the
simulated endpoint wraps a node's NI with an active-message dispatcher,
the runtime endpoint wraps a :class:`~repro.runtime.transport.Transport`
with a frame codec and a per-logical-channel handler table.  Decoding a
datagram into a frame is data movement, so it is charged to the base
bucket of the endpoint's :class:`TimeAttribution` — the runtime analogue
of the paper's NI-access instruction counts.

Outbound frames are *batched*: ``send_frame``/``post_frame`` encode and
enqueue, and one flush callback per event-loop tick coalesces every
frame bound for the same peer into a single batch-container datagram
(see :func:`repro.runtime.frames.encode_batch`).  The flush pushes
datagrams through the transport's synchronous ``send_now`` fast path, so
the hot path creates **no asyncio tasks at all** — and because each
destination has exactly one FIFO queue drained by one flush, two frames
for the same channel can never reach the wire out of order (the hazard
the old task-per-frame ``post_frame`` had).  Receivers unbundle batches
transparently before dispatch; protocol state machines only ever see
bare frames.
"""

from __future__ import annotations

import asyncio
import time
import zlib
from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.arch.attribution import Feature
from repro.runtime.frames import (
    BATCH_BYTE,
    MAGIC,
    MAX_BATCH_BYTES,
    MAX_PAYLOAD_WORDS,
    TRACE_CTX_KINDS,
    TRACE_CTX_WORDS,
    Frame,
    FrameCorruption,
    FrameError,
    FrameKind,
    decode_frame,
    encode_batch,
    encode_frame,
    iter_batch,
    trace_context_words,
)
from repro.runtime.spans import TimeAttribution
from repro.runtime.tracing import Counters, EventType, NULL_TRACER, Tracer
from repro.runtime.transport import Address, Transport

FrameHandler = Callable[[Frame, Address], None]

#: Frame kinds that are acknowledgements (traced as ACK_TX / ACK_RX).
#: EPOCH_REPLY belongs here: it carries a definitive cumulative ack.
ACK_KINDS = frozenset({FrameKind.ACK, FrameKind.CUM_ACK, FrameKind.FINAL_ACK,
                       FrameKind.EPOCH_REPLY})

#: Container overhead: batch prefix + one length prefix per sub-frame.
_BATCH_HEADER = 4
_SUB_OVERHEAD = 2

#: Default flush MTU: containers are sealed at Ethernet-payload scale,
#: so coalescing amortizes per-datagram overhead (~14 small DATA frames
#: per container) without collapsing a whole send window into one
#: all-or-nothing datagram — loss granularity stays packet-like.
FLUSH_MTU = 1200


class RuntimeEndpoint:
    """One side of a live conversation: transport + codec + dispatch."""

    def __init__(self, transport: Transport, name: str = "",
                 attribution: Optional[TimeAttribution] = None,
                 tracer: Optional[Tracer] = None,
                 flush_mtu: int = FLUSH_MTU) -> None:
        self.transport = transport
        self.flush_mtu = min(flush_mtu, MAX_BATCH_BYTES)
        self.name = name or repr(transport.local_address)
        self.attribution = attribution or TimeAttribution()
        # `is not None`, not `or`: an empty tracer is len()==0-falsy.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.counters = Counters()
        self._handlers: Dict[int, FrameHandler] = {}
        self.sent_by_kind: Dict[FrameKind, int] = {}
        # Wire identity for the piggybacked trace context: a 32-bit id
        # journey reconstruction maps back to the endpoint name.
        self.trace_origin = zlib.crc32(self.name.encode("utf-8", "replace"))
        # Outbound batching state: per-destination FIFO queues of
        # encoded datagrams, drained by one flush callback per tick.
        self._out: Dict[Address, List[bytes]] = {}
        # Traced runs keep a parallel per-destination list of frame
        # identities so the flush can emit one FLUSH event per frame;
        # untraced runs never touch it.
        self._out_meta: Dict[Address, List[Tuple[int, int, int, str]]] = {}
        self._flush_scheduled = False
        # Fallback for transports without a synchronous fast path: a
        # single drainer task preserves global FIFO order (strongly
        # referenced here so asyncio cannot garbage-collect it).
        self._backlog: Deque[Tuple[Address, bytes]] = deque()
        self._drainer: Optional["asyncio.Task"] = None
        transport.set_receiver(self._on_datagram)

    # -- service flags (forwarded from the transport) -------------------------

    @property
    def provides_in_order(self) -> bool:
        return self.transport.provides_in_order

    @property
    def provides_reliability(self) -> bool:
        return self.transport.provides_reliability

    @property
    def cr_mode(self) -> bool:
        """True when the transport provides ordering *and* reliability."""
        return self.provides_in_order and self.provides_reliability

    @property
    def local_address(self) -> Address:
        return self.transport.local_address

    # -- dispatch -------------------------------------------------------------

    def bind(self, channel: int, handler: FrameHandler) -> None:
        """Route frames for a logical channel to ``handler``."""
        if channel in self._handlers:
            raise ValueError(f"channel {channel} already bound")
        self._handlers[channel] = handler

    def unbind(self, channel: int) -> None:
        self._handlers.pop(channel, None)

    def _on_datagram(self, data: bytes, src: Address) -> None:
        if len(data) >= 2 and data[0] == MAGIC and data[1] == BATCH_BYTE:
            self._on_batch(data, src)
        else:
            self._dispatch_one(data, src)

    def _on_batch(self, data: bytes, src: Address) -> None:
        """Unbundle a batch container and dispatch each sub-frame.

        Sub-frames decode under one BASE span (the whole unbundle is
        data movement); damage inside the container costs exactly the
        sub-frames it touches — earlier ones still dispatch.

        When tracing is on, the container's *arrival* instant is
        stamped once and every sub-frame's RECV carries it as its
        timestamp, with that sub-frame's own decode slice in
        ``dur_ns`` — late sub-frames no longer inherit their siblings'
        decode time as phantom wire latency.
        """
        self.counters.inc("batches_received")
        traced = self.tracer.enabled
        arrival = time.perf_counter_ns() if traced else 0
        frames: List[Frame] = []
        decode_ns: List[int] = []
        corrupt = errors = 0
        prev = arrival
        with self.attribution.span(Feature.BASE):
            try:
                for sub in iter_batch(data):
                    try:
                        frames.append(decode_frame(sub))
                        if traced:
                            now = time.perf_counter_ns()
                            decode_ns.append(now - prev)
                            prev = now
                    except FrameCorruption:
                        corrupt += 1
                    except FrameError:
                        errors += 1
            except FrameError:
                # Container-level damage: the tail of the batch is lost,
                # which degrades into ordinary packet loss.
                errors += 1
        if corrupt:
            self.counters.inc("corrupt_frames", corrupt)
            if traced:
                for _ in range(corrupt):
                    self.tracer.emit(EventType.CORRUPT, endpoint=self.name,
                                     channel=-1, seq=-1,
                                     feature=Feature.FAULT_TOLERANCE)
        if errors:
            self.counters.inc("decode_errors", errors)
        if traced:
            for frame, dur in zip(frames, decode_ns):
                self._dispatch_frame(frame, src, ts_ns=arrival, dur_ns=dur)
        else:
            for frame in frames:
                self._dispatch_frame(frame, src)

    def _dispatch_one(self, data: bytes, src: Address) -> None:
        traced = self.tracer.enabled
        arrival = time.perf_counter_ns() if traced else 0
        try:
            with self.attribution.span(Feature.BASE):
                frame = decode_frame(data)
        except FrameCorruption:
            # Checksum mismatch: bit damage on the wire.  Counted apart
            # from other decode failures (and traced) so corruption is
            # attributable; the frame degrades into a drop and the
            # retransmission path recovers.
            self.counters.inc("corrupt_frames")
            if traced:
                self.tracer.emit(EventType.CORRUPT, endpoint=self.name,
                                 channel=-1, seq=-1,
                                 feature=Feature.FAULT_TOLERANCE)
            return
        except FrameError:
            # A malformed datagram degrades into a drop; fault tolerance
            # (retransmission) recovers, exactly as for a lost packet.
            self.counters.inc("decode_errors")
            return
        if traced:
            self._dispatch_frame(frame, src, ts_ns=arrival,
                                 dur_ns=time.perf_counter_ns() - arrival)
        else:
            self._dispatch_frame(frame, src)

    def _dispatch_frame(self, frame: Frame, src: Address,
                        ts_ns: int = 0, dur_ns: int = 0) -> None:
        self.counters.inc("frames_received")
        tracer = self.tracer
        if tracer.enabled:
            if frame.kind in ACK_KINDS:
                etype = EventType.ACK_RX
            elif frame.kind is FrameKind.CREDIT_UPDATE:
                etype = EventType.CREDIT_RX
            else:
                etype = EventType.RECV
            tracer.emit(
                etype,
                endpoint=self.name, channel=frame.channel, seq=frame.seq,
                aux=frame.aux, kind=frame.kind.name,
                feature=self.attribution.current,
                ts_ns=ts_ns, dur_ns=dur_ns,
                origin=frame.origin, origin_ts_ns=frame.origin_ts_ns,
            )
        handler = self._handlers.get(frame.channel)
        if handler is None:
            self.counters.inc("unrouted")
            return
        handler(frame, src)

    # -- sending --------------------------------------------------------------

    def _encode_and_enqueue(self, dst: Address, frame: Frame,
                            feature: Feature) -> bytes:
        with self.attribution.span(feature):
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
                self.counters.inc("frames_sent")
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
                meta = self._out_meta.get(dst)
                if meta is None:
                    meta = self._out_meta[dst] = []
                meta.append((frame.channel, frame.seq, frame.aux,
                             frame.kind.name))
            else:
                data = encode_frame(frame)
                self.counters.inc("frames_sent")
                self.sent_by_kind[frame.kind] = \
                    self.sent_by_kind.get(frame.kind, 0) + 1
            queue = self._out.get(dst)
            if queue is None:
                queue = self._out[dst] = []
            queue.append(data)
            if not self._flush_scheduled:
                self._flush_scheduled = True
                asyncio.get_running_loop().call_soon(self._flush)
        return data

    async def send_frame(self, dst: Address, frame: Frame,
                         feature: Feature = Feature.BASE) -> bytes:
        """Encode and enqueue for the next flush tick; returns the wire
        bytes (for retransmit tracking).  The encode work is charged to
        ``feature``; the coalesced wire push is charged to BASE when the
        flush runs."""
        return self._encode_and_enqueue(dst, frame, feature)

    def post_frame(self, dst: Address, frame: Frame,
                   feature: Feature = Feature.BASE) -> None:
        """Fire-and-forget send from synchronous handler code.

        Identical to :meth:`send_frame` minus the coroutine wrapper: the
        frame joins its destination's FIFO queue and rides the next
        flush.  No per-frame task is created; frames for one destination
        reach the wire in exactly the order they were posted.
        """
        self._encode_and_enqueue(dst, frame, feature)

    def _flush(self) -> None:
        """Coalesce and transmit every queued frame (one tick's worth)."""
        self._flush_scheduled = False
        queues = self._out
        if not queues:
            return
        self._out = {}
        if self.tracer.enabled:
            metas = self._out_meta
            self._out_meta = {}
            self._flush_traced(queues, metas)
            return
        # getattr, not attribute access: tests duck-type transports with
        # only the async half of the interface.
        send_now = getattr(self.transport, "send_now", None)
        with self.attribution.span(Feature.BASE):
            for dst, datagrams in queues.items():
                for wire in self._bundle(datagrams):
                    try:
                        if send_now is None or not send_now(dst, wire):
                            self._defer(dst, wire)
                    except Exception:
                        self.counters.inc("send_errors")

    def _flush_traced(
        self, queues: Dict[Address, List[bytes]],
        metas: Dict[Address, List[Tuple[int, int, int, str]]],
    ) -> None:
        """The flush loop with per-frame FLUSH events.

        Each frame's FLUSH is stamped when its datagram hits the wire;
        ``dur_ns`` is the time since the flush tick started — the share
        of the SEND→wire gap spent *inside* the flush (coalescing,
        earlier datagrams of the same tick) as opposed to waiting for
        the tick to run.  Kept out of the untraced :meth:`_flush` so
        the disabled path stays byte-identical to PR 7's hot path.
        """
        send_now = getattr(self.transport, "send_now", None)
        emit = self.tracer.emit
        with self.attribution.span(Feature.BASE):
            tick_start = time.perf_counter_ns()
            for dst, datagrams in queues.items():
                meta = metas.get(dst, [])
                index = 0
                for wire, count in self._bundle_counted(datagrams):
                    deliver = True
                    try:
                        if send_now is None or not send_now(dst, wire):
                            self._defer(dst, wire)
                    except Exception:
                        self.counters.inc("send_errors")
                        deliver = False
                    now = time.perf_counter_ns()
                    if deliver:
                        for channel, seq, aux, kind in \
                                meta[index:index + count]:
                            emit(EventType.FLUSH, endpoint=self.name,
                                 channel=channel, seq=seq, aux=aux,
                                 kind=kind, feature=Feature.BASE,
                                 ts_ns=now, dur_ns=now - tick_start)
                    index += count

    def _bundle_counted(
        self, datagrams: List[bytes],
    ) -> Iterator[Tuple[bytes, int]]:
        """:meth:`_bundle`, but each wire datagram carries the number of
        logical frames it covers (for FLUSH event bookkeeping)."""
        if len(datagrams) == 1:
            yield datagrams[0], 1
            return
        group: List[bytes] = []
        size = _BATCH_HEADER
        mtu = self.flush_mtu
        for datagram in datagrams:
            needed = len(datagram) + _SUB_OVERHEAD
            if group and size + needed > mtu:
                yield self._seal(group), len(group)
                group = []
                size = _BATCH_HEADER
            group.append(datagram)
            size += needed
        if len(group) == 1:
            yield group[0], 1
        else:
            yield self._seal(group), len(group)

    def _bundle(self, datagrams: List[bytes]) -> Iterator[bytes]:
        """Yield wire datagrams: singletons as-is, runs as containers."""
        if len(datagrams) == 1:
            yield datagrams[0]
            return
        group: List[bytes] = []
        size = _BATCH_HEADER
        mtu = self.flush_mtu
        for datagram in datagrams:
            needed = len(datagram) + _SUB_OVERHEAD
            if group and size + needed > mtu:
                yield self._seal(group)
                group = []
                size = _BATCH_HEADER
            group.append(datagram)
            size += needed
        if len(group) == 1:
            yield group[0]
        else:
            yield self._seal(group)

    def _seal(self, group: List[bytes]) -> bytes:
        self.counters.inc("batches_sent")
        self.counters.inc("batched_frames", len(group))
        return encode_batch(group)

    def send_now(self, dst: Address, wire: bytes) -> None:
        """Put already-encoded bytes on the wire at once, outside flush
        batching (retransmissions).  Transports without a synchronous
        path get the bytes through the drainer task; a raising
        ``send_now`` propagates to the caller."""
        send_now = getattr(self.transport, "send_now", None)
        if send_now is None or not send_now(dst, wire):
            self._defer(dst, wire)

    def _defer(self, dst: Address, wire: bytes) -> None:
        """Queue for the single drainer task (async-only transports)."""
        self._backlog.append((dst, wire))
        if self._drainer is None or self._drainer.done():
            self._drainer = asyncio.get_running_loop().create_task(
                self._drain_backlog()
            )

    async def _drain_backlog(self) -> None:
        backlog = self._backlog
        while backlog:
            dst, wire = backlog[0]
            try:
                await self.transport.send(dst, wire)
            except Exception:
                self.counters.inc("send_errors")
            backlog.popleft()

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
    def decode_errors(self) -> int:
        return self.counters.get("decode_errors")

    @property
    def corrupt_frames(self) -> int:
        """Datagrams rejected by the frame checksum (bit damage)."""
        return self.counters.get("corrupt_frames")

    @property
    def unrouted(self) -> int:
        return self.counters.get("unrouted")

    @property
    def send_errors(self) -> int:
        """Posted/queued frames whose wire push raised."""
        return self.counters.get("send_errors")

    @property
    def batches_sent(self) -> int:
        """Container datagrams put on the wire by the flush loop."""
        return self.counters.get("batches_sent")

    @property
    def batched_frames(self) -> int:
        """Logical frames that travelled inside containers."""
        return self.counters.get("batched_frames")

    @property
    def pending_posts(self) -> int:
        """Frames accepted for transmission but not yet on the wire."""
        return sum(len(q) for q in self._out.values()) + len(self._backlog)

    @property
    def data_frames_sent(self) -> int:
        """First-transmission data datagrams (retransmits bypass the codec)."""
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
        """Flush queued frames, settle the drainer, release the transport."""
        # Push anything still queued: losing it here would turn every
        # endpoint close into artificial packet loss.
        self._flush()
        drainer = self._drainer
        if drainer is not None and not drainer.done():
            # Let the fallback drainer finish (its frames are already
            # encoded), but never hang on a stuck transport.
            _done, not_done = await asyncio.wait({drainer}, timeout=1.0)
            for task in not_done:
                task.cancel()
            if not_done:
                await asyncio.gather(*not_done, return_exceptions=True)
        self._backlog.clear()
        await self.transport.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RuntimeEndpoint({self.name}, cr={self.cr_mode})"
