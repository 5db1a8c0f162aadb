"""Fabric collectives with eager/rendezvous protocol switching.

The paper's overhead story is told per message; real fabric traffic
(pub/sub fan-out, parameter-server reductions) moves through
*collectives*.  This module builds broadcast, scatter/gather, and
all-reduce as first-class fabric operations on the live ordered
channels, with the canonical MPICH2-over-InfiniBand transfer switch
per message:

* **eager** — small payloads ship immediately on a small-packet lane
  whose credit window is the *pre-granted receive budget*: no
  handshake, one wire traversal, per-frame software overhead paid on
  every packet;
* **rendezvous** — large payloads announce themselves with a
  ``COLL_HDR``, wait for the receiver's ``COLL_GRANT`` (admission
  against a bounded bulk budget, see
  :class:`repro.runtime.flowcontrol.RendezvousAdmission`), then move
  on a large-packet bulk lane — one handshake round-trip buys a much
  lower per-word software overhead.

Every transfer closes with a ``COLL_DONE`` receipt back to the
initiator, so collective timing is measured end to end on one clock
and completion is symmetric across both protocols.  The control
frames are idempotent and retried by the initiator while its reply is
quiet, so a lossy (CM-5 mode) substrate — or a scripted partition —
delays a collective instead of wedging it; payload integrity and
ordering ride the ordered channels' own machinery.

Where the crossover comes from (and what ``python -m repro runtime
collect`` measures): eager's cost grows with payload as
``ceil(W / eager_packet)`` per-frame overheads plus credit top-ups;
rendezvous pays a fixed handshake round-trip plus
``ceil(W / bulk_packet)`` overheads.  Below the crossover the
handshake dominates; above it the per-frame overhead does.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.runtime.flowcontrol import (
    FlowControlConfig,
    RendezvousAdmission,
)
from repro.runtime.frames import (
    COLL_PROTO_EAGER,
    COLL_PROTO_RENDEZVOUS,
    Frame,
    FrameKind,
    coll_done_frame,
    coll_grant_frame,
    coll_hdr_frame,
)
from repro.runtime.loadgen import AuditLedger
from repro.runtime.protocols import ChannelBroken, RecoveryPolicy
from repro.runtime.reliability import BackoffPolicy
from repro.runtime.tracing import EventType

#: Well-known control channel for collective handshakes (after
#: CH_SINGLE/CH_BULK/CH_STREAM; channel 4 stays unused).
CH_COLLECTIVE = 5

#: Ledger lane id used by the broadcast-audit chaos driver.
AUDIT_CID = 0xC011

EAGER = "eager"
RENDEZVOUS = "rendezvous"

#: The collective operations this module implements.
COLLECTIVE_OPS = ("broadcast", "scatter", "gather", "all_reduce")

#: Reductions all_reduce understands, applied elementwise and masked
#: to the 32-bit word the wire carries.
_REDUCERS = {
    "sum": lambda acc, x: (acc + x) & 0xFFFFFFFF,
    "max": max,
    "min": min,
}


class CollectiveError(RuntimeError):
    """A collective operation could not run or did not complete."""


class CollectiveMembershipError(CollectiveError):
    """A group member left (or crashed off) the fabric — the operation
    fails loudly up front instead of hanging on an absent peer."""


@dataclass(frozen=True)
class CollectiveConfig:
    """Protocol-switch threshold and lane shapes for one group.

    The two lanes per directed pair embody the two transfer protocols:
    the *eager* lane uses small packets and an armed credit window
    (the bounded pre-granted receive budget eager data lands in); the
    *bulk* lane uses large packets and is metered per transfer by the
    rendezvous admission budget instead of per packet.
    """

    #: Payloads strictly larger than this go rendezvous; at or below,
    #: eager.  The CLI sweep locates the *measured* crossover.
    eager_threshold_words: int = 256
    #: ``auto`` switches by size; ``eager``/``rendezvous`` force one
    #: protocol regardless (how the sweep isolates each curve).
    protocol: str = "auto"
    eager_packet_words: int = 16
    bulk_packet_words: int = 1024
    window: int = 64                  #: send window (packets) per lane
    #: Credit window arming each eager lane; ``None`` derives one from
    #: the packet size and window.
    flow: Optional[FlowControlConfig] = None
    #: Per-receiver bulk budget: bytes of rendezvous payload that may
    #: hold a grant concurrently.
    max_bulk_bytes: int = 256 * 1024
    #: One collective operation's completion deadline (seconds).
    op_timeout: float = 20.0
    #: First control-frame retry delay; doubles up to the ceiling.
    retry_interval: float = 0.05
    retry_ceiling: float = 0.4

    def __post_init__(self) -> None:
        if self.protocol not in ("auto", EAGER, RENDEZVOUS):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.eager_threshold_words < 1:
            raise ValueError("eager threshold must be positive")
        if self.eager_packet_words < 1 or self.bulk_packet_words < 1:
            raise ValueError("packet sizes must be positive")
        if self.op_timeout <= 0 or self.retry_interval <= 0:
            raise ValueError("timeouts must be positive")

    def flow_config(self) -> FlowControlConfig:
        """The eager lane's credit window: a bounded pre-grant sized
        to a few send windows of eager packets."""
        if self.flow is not None:
            return self.flow
        packet_bytes = self.eager_packet_words * 4
        return FlowControlConfig(
            window_bytes=max(4096, 4 * self.window * packet_bytes),
            window_msgs=max(64, 8 * self.window),
        )

    def mode_for(self, payload_words: int) -> str:
        """The transfer protocol a payload of this size rides."""
        if self.protocol != "auto":
            return self.protocol
        if payload_words > self.eager_threshold_words:
            return RENDEZVOUS
        return EAGER


@dataclass
class TransferRecord:
    """One peer leg of a collective, timed on the initiator's clock."""

    op: str
    op_id: int
    root: str
    peer: str                 #: the non-root end of this leg
    mode: str
    payload_words: int
    handshake_ns: int = 0     #: HDR send → GRANT arrival (0 for eager)
    transfer_ns: int = 0      #: data phase start → DONE arrival
    total_ns: int = 0         #: HDR send → DONE arrival
    hdr_retries: int = 0
    complete: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "op_id": self.op_id,
            "root": self.root,
            "peer": self.peer,
            "mode": self.mode,
            "payload_words": self.payload_words,
            "handshake_ns": self.handshake_ns,
            "transfer_ns": self.transfer_ns,
            "total_ns": self.total_ns,
            "hdr_retries": self.hdr_retries,
            "complete": self.complete,
        }


@dataclass
class CollectiveResult:
    """The outcome of one collective operation."""

    op: str
    op_id: int
    root: str
    transfers: List[TransferRecord] = field(default_factory=list)
    #: Words as held by each member once the op completed (the root's
    #: local copy included, so every member "has" the data).
    received: Dict[str, List[int]] = field(default_factory=dict)
    #: The reduced vector (all-reduce only).
    result: Optional[List[int]] = None
    completed: bool = False

    @property
    def total_ns(self) -> int:
        """Collective completion time: the slowest peer leg."""
        return max((t.total_ns for t in self.transfers), default=0)

    @property
    def modes(self) -> Tuple[str, ...]:
        return tuple(sorted({t.mode for t in self.transfers}))


class _Transfer:
    """In-flight state for one directed leg of a collective.

    One object serves both ends (the fabric is in-process): the
    initiating side holds the grant/done futures and the timing marks;
    the receiving side tracks grant/done emission and the bulk budget
    it holds.
    """

    def __init__(self, op_id: int, src: str, dst: str,
                 words: List[int], mode: str) -> None:
        self.op_id = op_id
        self.src = src
        self.dst = dst
        self.words = words
        self.mode = mode
        self.expected = len(words)
        self.received: List[int] = []
        loop = asyncio.get_running_loop()
        self.grant: "asyncio.Future[int]" = loop.create_future()
        self.done: "asyncio.Future[int]" = loop.create_future()
        self.granted = False          # dst side: grant already issued
        self.finished = False         # dst side: DONE already issued
        self.admitted_bytes = 0       # dst side: bulk budget held
        self.start_ns = 0
        self.grant_ns = 0
        self.data_ns = 0
        self.done_ns = 0
        self.hdr_retries = 0


class _Lane:
    """The eager + bulk connection pair for one directed peer pair."""

    def __init__(self, eager, bulk) -> None:
        self.eager = eager
        self.bulk = bulk
        #: Transfers awaiting payload words on this lane, FIFO.  Group
        #: ops serialize, so at most one is active per lane at a time;
        #: the deque keeps the accounting honest regardless.
        self.rx_pending: Deque[_Transfer] = deque()


class CollectiveGroup:
    """A membership snapshot of the fabric that can run collectives.

    Obtained from :meth:`repro.runtime.fabric.Fabric.collective`.  The
    member list is fixed at creation; every operation re-validates it
    against the live fabric, so a peer that has left or crashed fails
    the collective with :class:`CollectiveMembershipError` instead of
    hanging.  Operations on one group are serialized (collectives are
    group-synchronous); independent groups are independent.
    """

    _op_ids = itertools.count(1)

    def __init__(self, fabric, members: Optional[Sequence[str]] = None,
                 config: Optional[CollectiveConfig] = None) -> None:
        self.fabric = fabric
        self.config = config or CollectiveConfig()
        names = (list(members) if members is not None
                 else list(fabric.peer_names))
        if len(names) < 2:
            raise CollectiveError("a collective group needs >= 2 members")
        if len(set(names)) != len(names):
            raise CollectiveError(f"duplicate members in {names}")
        missing = [n for n in names if n not in fabric.peer_names]
        if missing:
            raise CollectiveMembershipError(
                f"peers {missing} are not on the fabric")
        self.members: List[str] = names
        self._lanes: Dict[Tuple[str, str], _Lane] = {}
        self._admission: Dict[str, RendezvousAdmission] = {
            name: RendezvousAdmission(self.config.max_bulk_bytes)
            for name in names
        }
        #: Live transfers keyed by (op id, leg src, leg dst) — the
        #: control handler resolves both directions from the frame's
        #: op id plus the datagram's source address.
        self._transfers: Dict[Tuple[int, str, str], _Transfer] = {}
        self._addr_names: Dict[object, str] = {}
        self._tasks: set = set()
        self._op_lock = asyncio.Lock()
        self._closed = False
        self.ops_completed = 0
        self.grants_deferred = 0
        self.records: List[TransferRecord] = []
        for name in names:
            endpoint = fabric.peer(name)
            self._addr_names[endpoint.local_address] = name
            endpoint.bind(CH_COLLECTIVE, self._control_handler(name))

    # -- lifecycle -----------------------------------------------------------

    async def close(self) -> None:
        """Unbind control channels and close every lane (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        for name in self.members:
            if name in self.fabric.peer_names:
                self.fabric.peer(name).unbind(CH_COLLECTIVE)
        for lane in self._lanes.values():
            for conn in (lane.eager, lane.bulk):
                if not conn.closed:
                    await conn.close(drain=False)

    def admission_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-member rendezvous admission counters."""
        return {
            name: {
                "admitted": adm.admitted,
                "deferred": adm.deferred,
                "peak_granted_bytes": adm.peak_granted_bytes,
            }
            for name, adm in self._admission.items()
        }

    def _check_membership(self, *required: str) -> None:
        if self._closed:
            raise CollectiveError("collective group is closed")
        live = set(self.fabric.peer_names)
        gone = [n for n in self.members if n not in live]
        if gone:
            raise CollectiveMembershipError(
                f"members {gone} have left the fabric")
        for name in required:
            if name not in self.members:
                raise CollectiveError(
                    f"{name!r} is not a member of this group")

    async def _lane(self, src: str, dst: str) -> _Lane:
        lane = self._lanes.get((src, dst))
        if lane is not None:
            return lane
        cfg = self.config
        eager = await self.fabric.connect(
            src, dst, window=cfg.window,
            packet_words=cfg.eager_packet_words,
            reorder_window=max(256, 4 * cfg.window),
            ack_every=4, ack_delay=0.002, flow=cfg.flow_config(),
        )
        bulk = await self.fabric.connect(
            src, dst, window=cfg.window,
            packet_words=cfg.bulk_packet_words,
            reorder_window=max(256, 4 * cfg.window),
            ack_every=2, ack_delay=0.002,
        )
        lane = _Lane(eager, bulk)
        self._lanes[(src, dst)] = lane
        for conn in (eager, bulk):
            conn.channel.receive_buffer.on_record(self._rx_record(lane))
        return lane

    # -- receive side --------------------------------------------------------

    def _rx_record(self, lane: _Lane):
        def on_record(payload: Tuple[int, ...]) -> None:
            if not lane.rx_pending:
                return
            transfer = lane.rx_pending[0]
            transfer.received.extend(payload)
            if len(transfer.received) >= transfer.expected:
                lane.rx_pending.popleft()
                self._finish_receive(transfer)
        return on_record

    def _finish_receive(self, transfer: _Transfer) -> None:
        """Receiving side: payload complete — receipt to the initiator."""
        if transfer.finished:
            return
        transfer.finished = True
        if transfer.admitted_bytes:
            self._admission[transfer.dst].release(transfer.admitted_bytes)
            transfer.admitted_bytes = 0
        self._post_done(transfer)

    def _post_control(self, sender: str, receiver: str,
                      frame: Frame) -> None:
        try:
            endpoint = self.fabric.peer(sender)
            target = self.fabric.peer(receiver)
        except Exception:
            return      # a side crashed off the fabric mid-exchange
        endpoint.post_frame(target.local_address, frame)

    def _post_done(self, transfer: _Transfer) -> None:
        self._post_control(
            transfer.dst, transfer.src,
            coll_done_frame(CH_COLLECTIVE, transfer.op_id,
                            len(transfer.received)))

    def _post_grant(self, transfer: _Transfer) -> None:
        self._post_control(
            transfer.dst, transfer.src,
            coll_grant_frame(CH_COLLECTIVE, transfer.op_id,
                             transfer.expected))

    def _post_hdr(self, transfer: _Transfer) -> None:
        proto = (COLL_PROTO_RENDEZVOUS if transfer.mode == RENDEZVOUS
                 else COLL_PROTO_EAGER)
        self._post_control(
            transfer.src, transfer.dst,
            coll_hdr_frame(CH_COLLECTIVE, transfer.op_id,
                           transfer.expected, proto))

    def _control_handler(self, member: str):
        """Dispatch COLL control frames arriving at ``member``.

        The (op id, datagram source) pair names the leg exactly: an
        HDR arrives at the leg's *destination*, a GRANT or DONE at the
        leg's *initiator*.  Unknown or stale frames are ignored —
        every control frame is an idempotent re-assertable fact.
        """
        def handler(frame: Frame, src) -> None:
            peer = self._addr_names.get(src)
            if peer is None:
                return
            if frame.kind is FrameKind.COLL_HDR:
                transfer = self._transfers.get((frame.seq, peer, member))
                if transfer is not None:
                    self._on_hdr(transfer, frame)
            elif frame.kind is FrameKind.COLL_GRANT:
                transfer = self._transfers.get((frame.seq, member, peer))
                if transfer is not None and not transfer.grant.done():
                    transfer.grant_ns = time.perf_counter_ns()
                    transfer.grant.set_result(frame.aux)
            elif frame.kind is FrameKind.COLL_DONE:
                transfer = self._transfers.get((frame.seq, member, peer))
                if transfer is not None and not transfer.done.done():
                    transfer.done_ns = time.perf_counter_ns()
                    transfer.done.set_result(frame.aux)
        return handler

    def _on_hdr(self, transfer: _Transfer, frame: Frame) -> None:
        """Receiving side: a transfer announcement (possibly a retry)."""
        if transfer.finished:
            # Retried HDR after completion: the DONE was lost — resend.
            self._post_done(transfer)
            return
        rendezvous = bool(frame.payload) and \
            frame.payload[0] == COLL_PROTO_RENDEZVOUS
        if not rendezvous:
            return                      # eager data is already in flight
        if transfer.granted:
            self._post_grant(transfer)  # retried HDR: the GRANT was lost
            return
        nbytes = transfer.expected * 4
        admission = self._admission[transfer.dst]
        if admission.try_admit(nbytes):
            transfer.granted = True
            transfer.admitted_bytes = nbytes
            self._post_grant(transfer)
        else:
            self.grants_deferred += 1
            task = asyncio.get_running_loop().create_task(
                self._deferred_grant(transfer, admission, nbytes))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _deferred_grant(self, transfer: _Transfer,
                              admission: RendezvousAdmission,
                              nbytes: int) -> None:
        await admission.admit(nbytes)
        key = (transfer.op_id, transfer.src, transfer.dst)
        if (transfer.granted or transfer.finished
                or self._transfers.get(key) is not transfer):
            admission.release(nbytes)   # raced completion or op teardown
            return
        transfer.granted = True
        transfer.admitted_bytes = nbytes
        self._post_grant(transfer)

    # -- initiating side -----------------------------------------------------

    async def _await_with_retry(self, transfer: _Transfer,
                                future: "asyncio.Future[int]",
                                deadline: float) -> int:
        """Wait on a control reply, re-posting the idempotent HDR while
        it stays quiet — the recovery path for control frames lost on a
        faulty or partitioned substrate."""
        interval = self.config.retry_interval
        while True:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise CollectiveError(
                    f"op {transfer.op_id}: {transfer.src}->{transfer.dst}"
                    f" ({transfer.mode}) timed out awaiting control reply")
            try:
                return await asyncio.wait_for(
                    asyncio.shield(future), min(interval, remaining))
            except asyncio.TimeoutError:
                transfer.hdr_retries += 1
                self._post_hdr(transfer)
                interval = min(interval * 2, self.config.retry_ceiling)

    async def _run_transfer(self, transfer: _Transfer,
                            deadline: float) -> TransferRecord:
        lane = await self._lane(transfer.src, transfer.dst)
        lane.rx_pending.append(transfer)
        try:
            transfer.start_ns = time.perf_counter_ns()
            self._post_hdr(transfer)
            if transfer.mode == RENDEZVOUS:
                await self._await_with_retry(transfer, transfer.grant,
                                             deadline)
                conn = lane.bulk
            else:
                conn = lane.eager
            transfer.data_ns = time.perf_counter_ns()
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise CollectiveError(
                    f"op {transfer.op_id}: deadline before data phase")
            try:
                await asyncio.wait_for(conn.send(transfer.words),
                                       remaining)
            except asyncio.TimeoutError:
                raise CollectiveError(
                    f"op {transfer.op_id}: data phase "
                    f"{transfer.src}->{transfer.dst} timed out") from None
            await self._await_with_retry(transfer, transfer.done, deadline)
        except ChannelBroken as exc:
            raise CollectiveError(
                f"op {transfer.op_id}: lane {transfer.src}->"
                f"{transfer.dst} broke: {exc}") from exc
        finally:
            if transfer in lane.rx_pending:
                lane.rx_pending.remove(transfer)
        return TransferRecord(
            op="", op_id=transfer.op_id, root="",
            peer="", mode=transfer.mode,
            payload_words=transfer.expected,
            handshake_ns=(transfer.grant_ns - transfer.start_ns
                          if transfer.mode == RENDEZVOUS else 0),
            transfer_ns=transfer.done_ns - transfer.data_ns,
            total_ns=transfer.done_ns - transfer.start_ns,
            hdr_retries=transfer.hdr_retries,
            complete=True,
        )

    async def _run_phase(self, op: str, root: str,
                         legs: Sequence[Tuple[str, str, Sequence[int]]],
                         ) -> CollectiveResult:
        """Run one fan-out/fan-in phase: every ``(src, dst, words)``
        leg concurrently, each eager or rendezvous by its own size."""
        async with self._op_lock:
            self._check_membership(root)
            for src, dst, words in legs:
                self._check_membership(src, dst)
                if not words:
                    raise CollectiveError(
                        f"empty payload on leg {src}->{dst}")
            op_id = next(self._op_ids)
            tracer = self.fabric.peer(root).tracer
            begin_ns = time.perf_counter_ns()
            if tracer.enabled:
                tracer.emit(EventType.COLL_BEGIN, endpoint=root,
                            channel=CH_COLLECTIVE, seq=op_id,
                            aux=max((len(w) for _, _, w in legs),
                                    default=0),
                            kind=op)
            transfers: List[_Transfer] = []
            for src, dst, words in legs:
                words = list(words)
                transfer = _Transfer(op_id, src, dst, words,
                                     self.config.mode_for(len(words)))
                transfers.append(transfer)
                self._transfers[(op_id, src, dst)] = transfer
            deadline = (asyncio.get_running_loop().time()
                        + self.config.op_timeout)
            try:
                records = await asyncio.gather(
                    *(self._run_transfer(t, deadline) for t in transfers))
            finally:
                for transfer in transfers:
                    self._transfers.pop(
                        (op_id, transfer.src, transfer.dst), None)
            result = CollectiveResult(op=op, op_id=op_id, root=root)
            for transfer, record in zip(transfers, records):
                record.op = op
                record.root = root
                record.peer = (transfer.dst if transfer.src == root
                               else transfer.src)
                result.transfers.append(record)
                self.records.append(record)
                # Keyed by the non-root end: for fan-out that's where
                # the words landed; for fan-in (all legs land at the
                # root) it's who contributed them.
                result.received[record.peer] = list(transfer.received)
            result.completed = all(r.complete for r in result.transfers)
            self.ops_completed += 1
            if tracer.enabled:
                end_ns = time.perf_counter_ns()
                tracer.emit(EventType.COLL_END, endpoint=root,
                            channel=CH_COLLECTIVE, seq=op_id,
                            aux=len(result.transfers), kind=op,
                            dur_ns=end_ns - begin_ns)
            return result

    # -- the operations ------------------------------------------------------

    async def broadcast(self, root: str,
                        words: Sequence[int]) -> CollectiveResult:
        """Every member ends up holding ``words`` from ``root``."""
        self._check_membership(root)
        payload = list(words)
        legs = [(root, peer, payload)
                for peer in self.members if peer != root]
        result = await self._run_phase("broadcast", root, legs)
        result.received[root] = list(payload)
        return result

    async def scatter(self, root: str,
                      chunks: Mapping[str, Sequence[int]],
                      ) -> CollectiveResult:
        """Each member receives its own chunk from ``root``."""
        self._check_membership(root, *chunks.keys())
        legs = [(root, peer, list(chunk))
                for peer, chunk in chunks.items() if peer != root]
        result = await self._run_phase("scatter", root, legs)
        if root in chunks:
            result.received[root] = list(chunks[root])
        return result

    async def gather(self, root: str,
                     values: Mapping[str, Sequence[int]],
                     ) -> CollectiveResult:
        """``root`` collects each contributing member's vector.

        ``received`` is keyed by contributor: what the root actually
        received from each member (plus the root's own local vector).
        """
        self._check_membership(root, *values.keys())
        legs = [(peer, root, list(words))
                for peer, words in values.items() if peer != root]
        result = await self._run_phase("gather", root, legs)
        if root in values:
            result.received[root] = list(values[root])
        return result

    async def all_reduce(self, values: Mapping[str, Sequence[int]],
                         op: str = "sum", root: Optional[str] = None,
                         ) -> CollectiveResult:
        """Elementwise reduction of every member's vector, delivered
        to every member: reduce-to-root (gather phase), then broadcast
        of the reduced vector.  Both phases pick eager or rendezvous
        independently, by their own payload sizes."""
        reducer = _REDUCERS.get(op)
        if reducer is None:
            raise CollectiveError(
                f"unknown reduction {op!r} (have {sorted(_REDUCERS)})")
        if set(values) != set(self.members):
            raise CollectiveError(
                "all_reduce needs a vector from every member")
        lengths = {len(v) for v in values.values()}
        if len(lengths) != 1:
            raise CollectiveError(
                f"all_reduce vectors differ in length: {sorted(lengths)}")
        root = root or self.members[0]
        self._check_membership(root)
        legs = [(peer, root, list(words))
                for peer, words in values.items() if peer != root]
        reduce_phase = await self._run_phase("all_reduce", root, legs)
        reduced = [w & 0xFFFFFFFF for w in values[root]]
        for peer, words in values.items():
            if peer == root:
                continue
            reduced = [reducer(acc, w & 0xFFFFFFFF)
                       for acc, w in zip(reduced, words)]
        bcast_legs = [(root, peer, reduced)
                      for peer in self.members if peer != root]
        bcast_phase = await self._run_phase("all_reduce", root, bcast_legs)
        result = CollectiveResult(op="all_reduce",
                                  op_id=bcast_phase.op_id, root=root)
        result.transfers = reduce_phase.transfers + bcast_phase.transfers
        result.received = {peer: list(reduced) for peer in self.members}
        result.result = list(reduced)
        result.completed = reduce_phase.completed and bcast_phase.completed
        return result

    def to_records(self) -> List[Dict[str, object]]:
        """Every transfer this group ran, as JSONL-ready dicts."""
        return [record.to_dict() for record in self.records]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CollectiveGroup(members={self.members}, "
                f"ops={self.ops_completed})")


# ---------------------------------------------------------------------------
# measurement drivers (shared by the CLI sweep and the benchmark)
# ---------------------------------------------------------------------------

#: Default payload sweep for the crossover hunt: spans one eager
#: packet up to one max-size frame.
CROSSOVER_SIZES = (16, 64, 256, 1024, 4096)


async def measure_crossover(sizes: Sequence[int] = CROSSOVER_SIZES,
                            peers: int = 3, reps: int = 3,
                            wire_latency: float = 0.0005,
                            config: Optional[CollectiveConfig] = None,
                            ) -> Dict[str, object]:
    """Locate the eager/rendezvous crossover by measurement.

    Runs the same broadcast at each payload size under both protocols
    *forced* (isolating each cost curve from the auto switch), takes
    the best of ``reps`` runs per cell to shed scheduler noise, and
    reports the smallest size where rendezvous beats eager.

    The substrate is fault-free but carries a real per-datagram wire
    latency (the cm5 hub's ``latency`` knob with every fault rate
    zeroed): the rendezvous handshake costs round-trips only on a wire
    where a traversal costs time, and retransmission noise would swamp
    the per-frame vs handshake signal the sweep exists to expose.  On
    the CR hub delivery is instantaneous by construction, so the
    handshake is free there and rendezvous dominates everywhere —
    which is exactly why the crossover experiment needs a wire.
    """
    from repro.runtime.fabric import Fabric

    base = config or CollectiveConfig()
    fabric = Fabric(mode="cm5", reorder_rate=0.0, latency=wire_latency)
    names = [f"n{i}" for i in range(peers)]
    for name in names:
        await fabric.add_peer(name)
    root = names[0]
    curves: Dict[str, Dict[int, int]] = {EAGER: {}, RENDEZVOUS: {}}
    transfer_records: List[Dict[str, object]] = []
    try:
        for proto in (EAGER, RENDEZVOUS):
            cfg = CollectiveConfig(
                eager_threshold_words=base.eager_threshold_words,
                protocol=proto,
                eager_packet_words=base.eager_packet_words,
                bulk_packet_words=base.bulk_packet_words,
                window=base.window, flow=base.flow,
                max_bulk_bytes=base.max_bulk_bytes,
                op_timeout=base.op_timeout,
            )
            group = CollectiveGroup(fabric, names, cfg)
            try:
                for size in sizes:
                    words = [i & 0xFFFFFFFF for i in range(size)]
                    best = None
                    for _ in range(reps):
                        result = await group.broadcast(root, words)
                        if not result.completed:
                            raise CollectiveError(
                                f"{proto} broadcast of {size} words "
                                f"did not complete")
                        if (best is None
                                or result.total_ns < best):
                            best = result.total_ns
                    curves[proto][size] = best
                transfer_records.extend(group.to_records())
            finally:
                await group.close()
    finally:
        await fabric.close()
    crossover = None
    for size in sizes:
        if curves[RENDEZVOUS][size] < curves[EAGER][size]:
            crossover = size
            break
    return {
        "wire_latency_s": wire_latency,
        "peers": peers,
        "reps": reps,
        "sizes": list(sizes),
        "eager_ns": {str(s): curves[EAGER][s] for s in sizes},
        "rendezvous_ns": {str(s): curves[RENDEZVOUS][s] for s in sizes},
        "crossover_words": crossover,
        "eager_wins_smallest":
            curves[EAGER][sizes[0]] <= curves[RENDEZVOUS][sizes[0]],
        "rendezvous_wins_largest":
            curves[RENDEZVOUS][sizes[-1]] <= curves[EAGER][sizes[-1]],
        "records": transfer_records,
    }


async def measure_collective_ops(mode: str = "cr", peers: int = 4,
                                 payload_words: int = 96,
                                 config: Optional[CollectiveConfig] = None,
                                 ) -> Dict[str, object]:
    """Run every collective op once in auto mode; verify payloads and
    attribute each op's measured time to the paper's feature buckets.

    The broadcast row is audited with deterministic per-receiver
    ledgers (exactly-once); the other ops verify delivered contents
    against what was offered.  Each row carries the per-feature
    timeshare of the op, from the endpoints' span attribution deltas.
    Returns ``{"rows": [...], "records": [...]}`` — summary rows per
    op plus every raw transfer record (JSONL-exportable).
    """
    from repro.runtime.fabric import Fabric

    fabric = Fabric(mode=mode)
    names = [f"n{i}" for i in range(peers)]
    for name in names:
        await fabric.add_peer(name)
    root = names[0]
    receivers = names[1:]
    group = CollectiveGroup(fabric, names, config)
    rows: List[Dict[str, object]] = []

    def attribution_snapshot() -> Dict[object, int]:
        return dict(fabric.attribution_totals())

    def feature_share(before, after) -> Dict[str, float]:
        delta = {f: after[f] - before[f] for f in after}
        total = sum(delta.values())
        if total <= 0:
            return {}
        return {f.name.lower(): round(ns / total, 4)
                for f, ns in delta.items() if ns > 0}

    try:
        # broadcast — audited exactly-once per receiver
        ledgers = {p: AuditLedger() for p in receivers}
        filler = [i & 0xFFFFFFFF for i in range(max(1, payload_words - 3))]
        words: List[int] = []
        for peer in receivers:
            words = ledgers[peer].stamp(AUDIT_CID, 0, filler)
        before = attribution_snapshot()
        result = await group.broadcast(root, words)
        after = attribution_snapshot()
        for peer in receivers:
            ledgers[peer].record_delivery(AUDIT_CID,
                                          result.received[peer])
        reports = [lg.verdict() for lg in ledgers.values()]
        rows.append({
            "op": "broadcast", "mode": mode,
            "payload_words": len(words),
            "completed": result.completed,
            "audit_clean": all(r.clean for r in reports),
            "total_ns": result.total_ns,
            "transfer_modes": list(result.modes),
            "features": feature_share(before, after),
        })

        # scatter — distinct chunk per member, verified on arrival
        chunks = {name: [(i * 31 + j) & 0xFFFFFFFF
                         for j in range(payload_words)]
                  for i, name in enumerate(names)}
        before = attribution_snapshot()
        result = await group.scatter(root, chunks)
        after = attribution_snapshot()
        rows.append({
            "op": "scatter", "mode": mode,
            "payload_words": payload_words,
            "completed": result.completed,
            "audit_clean": result.received == chunks,
            "total_ns": result.total_ns,
            "transfer_modes": list(result.modes),
            "features": feature_share(before, after),
        })

        # gather — root collects and verifies every contribution
        values = {name: [(i * 97 + j) & 0xFFFFFFFF
                         for j in range(payload_words)]
                  for i, name in enumerate(names)}
        before = attribution_snapshot()
        result = await group.gather(root, values)
        after = attribution_snapshot()
        rows.append({
            "op": "gather", "mode": mode,
            "payload_words": payload_words,
            "completed": result.completed,
            "audit_clean": result.received == values,
            "total_ns": result.total_ns,
            "transfer_modes": list(result.modes),
            "features": feature_share(before, after),
        })

        # all_reduce — the reduction is verifiable arithmetic
        vectors = {name: [(i + 1)] * payload_words
                   for i, name in enumerate(names)}
        expected = [sum(range(1, peers + 1))] * payload_words
        before = attribution_snapshot()
        result = await group.all_reduce(vectors)
        after = attribution_snapshot()
        rows.append({
            "op": "all_reduce", "mode": mode,
            "payload_words": payload_words,
            "completed": result.completed,
            "audit_clean": (result.result == expected and
                            all(v == expected
                                for v in result.received.values())),
            "total_ns": result.total_ns,
            "transfer_modes": list(result.modes),
            "features": feature_share(before, after),
        })
        return {"rows": rows, "records": group.to_records()}
    finally:
        await group.close()
        await fabric.close()


# ---------------------------------------------------------------------------
# chaos scenario: broadcast through a partition-heal
# ---------------------------------------------------------------------------

#: Lane policies generous enough to span a scripted partition: the
#: retransmitter keeps probing past the outage, and epoch recovery
#: backstops retry exhaustion instead of breaking the channel.
PARTITION_BACKOFF = BackoffPolicy(initial=0.02, factor=1.5,
                                  ceiling=0.2, max_retries=12)
PARTITION_RECOVERY = RecoveryPolicy(max_epochs=2, probe_retries=8,
                                    probe_interval=0.05)


async def run_broadcast_partition(mode: str = "cm5", peers: int = 4,
                                  rounds: int = 3, payload_words: int = 96,
                                  partition_round: int = 1,
                                  heal_after: float = 0.25,
                                  seed: int = 0xC011EC7,
                                  tracer=None,
                                  config: Optional[CollectiveConfig] = None,
                                  ) -> Dict[str, object]:
    """Drive broadcasts through a scripted partition-heal.

    One round's broadcast starts while the root is cut off from half
    the receivers; the collective's idempotent control retries (and
    the ordered lanes' retransmission/recovery) carry it across the
    heal.  Every receiving peer keeps its own
    :class:`~repro.runtime.loadgen.AuditLedger`; stamping is
    deterministic, so all ledgers stamp the *identical* broadcast
    payload and each audits exactly-once delivery independently.
    """
    from repro.runtime.chaos import ChaosInjector
    from repro.runtime.fabric import Fabric

    if peers < 3:
        raise ValueError("the partition scenario needs >= 3 peers")
    if not 0 <= partition_round < rounds:
        raise ValueError("partition_round must land inside rounds")
    fabric = Fabric(mode=mode, tracer=tracer,
                    backoff=PARTITION_BACKOFF,
                    recovery=PARTITION_RECOVERY)
    names = [f"p{i}" for i in range(peers)]
    for name in names:
        await fabric.add_peer(name)
    chaos = ChaosInjector(fabric.hub, seed=seed)
    cfg = config or CollectiveConfig()
    group = CollectiveGroup(fabric, names, cfg)
    root = names[0]
    receivers = names[1:]
    ledgers = {peer: AuditLedger() for peer in receivers}
    cut = receivers[:max(1, len(receivers) // 2)]
    healed_in_flight = False
    try:
        for rnd in range(rounds):
            filler = [((seed + rnd * 0x9E37) + i) & 0xFFFFFFFF
                      for i in range(max(1, payload_words - 3))]
            words: List[int] = []
            for peer in receivers:
                words = ledgers[peer].stamp(AUDIT_CID, rnd, filler)
            if rnd == partition_round:
                chaos.partition_groups([root], cut)
                task = asyncio.ensure_future(group.broadcast(root, words))
                await asyncio.sleep(heal_after)
                chaos.heal_all()
                healed_in_flight = True
                result = await task
            else:
                result = await group.broadcast(root, words)
            if not result.completed:
                raise CollectiveError(f"round {rnd} did not complete")
            for peer in receivers:
                ledgers[peer].record_delivery(
                    AUDIT_CID, result.received[peer])
        reports = {peer: ledger.verdict() for peer, ledger in
                   ledgers.items()}
        return {
            "mode": mode,
            "peers": peers,
            "rounds": rounds,
            "payload_words": payload_words,
            "healed_in_flight": healed_in_flight,
            "audits": {peer: {
                "offered": rep.offered,
                "delivered": rep.delivered,
                "violations": rep.violations,
                "clean": rep.clean,
            } for peer, rep in reports.items()},
            "all_clean": all(rep.clean for rep in reports.values()),
            "grants_deferred": group.grants_deferred,
            "records": group.to_records(),
        }
    finally:
        await group.close()
        await fabric.close()
