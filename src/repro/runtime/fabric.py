"""An N-endpoint fabric over the live transports.

The paper's cost model generalizes over packet count ``p`` — and the
follow-on literature (Breaking Band; MPICH2 over InfiniBand) argues
that per-connection software overhead is what dominates once
communication fans out to many peers.  This module is the live
analogue of sweeping ``p``: an N-peer fabric over the existing
substrates, with

* **peers** — one :class:`~repro.runtime.endpoint.RuntimeEndpoint` per
  peer, attached to a shared :class:`~repro.runtime.transport.LoopbackHub`
  (CM-5 or CR mode) or bound to its own UDP socket; peers can join and
  leave while traffic is in flight;
* **multiplexed ordered channels** — every connection between a peer
  pair gets a *distinct* logical channel id (allocated on top of
  :meth:`RuntimeEndpoint.bind`), so any number of concurrent ordered
  streams can share one endpoint without their sequence spaces
  colliding;
* **a connection manager** — open/close lifecycle with idempotent
  close, drain-before-close on graceful teardown, and bookkeeping that
  lets a departing peer fail its connections loudly instead of leaving
  silent half-open state behind.

Every live harness runs on a fabric, and every one is a consumer: it
hands each receiver a callback and reads what it delivers from there,
never from the receiver.  The workload driver in
:mod:`repro.runtime.loadgen` drives M concurrent lanes × K messages of
any of the three protocols across P peers (one lane over two peers is
one of the paper's protocol cells), plus a fault script on a chaos run,
and reports throughput, delivery-latency percentiles, and the
per-feature timeshare as a function of peer count.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.arch.attribution import Feature
from repro.runtime.channels import LiveChannel, open_live_channel
from repro.runtime.endpoint import RuntimeEndpoint
from repro.runtime.flowcontrol import FlowControlConfig
from repro.runtime.protocols import RecoveryPolicy
from repro.runtime.reliability import BackoffPolicy
from repro.runtime.timers import TimerWheel
from repro.runtime.tracing import NULL_TRACER, Tracer
from repro.runtime.transport import (
    LoopbackHub,
    UDPTransport,
    make_hub,
)

#: Fabric connections allocate channel ids from here upward — clear of
#: the well-known per-protocol ids (CH_SINGLE/CH_BULK/CH_STREAM).
FIRST_FABRIC_CHANNEL = 16

#: The frame header carries the channel id as a 16-bit field.
MAX_CHANNEL_ID = 0xFFFF


class FabricError(RuntimeError):
    """Misuse of the fabric lifecycle (unknown peer, duplicate name...)."""


class FabricConnection:
    """One open unidirectional ordered channel between two fabric peers.

    Thin lifecycle wrapper around a :class:`LiveChannel`: the fabric's
    connection manager hands these out from :meth:`Fabric.connect` and
    reclaims their channel ids on close.  Close is idempotent; a
    *graceful* close drains the sender first so no acknowledged-but-
    unsent state is torn down mid-flight.
    """

    def __init__(self, fabric: "Fabric", cid: int, src: str, dst: str,
                 channel: LiveChannel) -> None:
        self.fabric = fabric
        self.cid = cid
        self.src = src
        self.dst = dst
        self.channel = channel
        self.closed = False

    async def send(self, words: Sequence[int]) -> int:
        """Send a word sequence down the channel; returns packets used."""
        return await self.channel.send(words)

    async def drain(self, timeout: float = 30.0) -> None:
        """Wait for every sent packet to be acknowledged."""
        await self.channel.drain(timeout)

    @property
    def outstanding(self) -> int:
        return self.channel.outstanding

    async def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Close the connection (idempotent).

        ``drain=True`` (graceful) waits for outstanding packets to be
        acknowledged first; ``drain=False`` (hard) tears down
        immediately — in-flight packets are abandoned and the receiver
        side is unbound at once.
        """
        if self.closed:
            return
        self.closed = True
        try:
            if drain:
                await self.channel.drain(timeout)
        finally:
            await self.channel.close()
            self.fabric._forget_connection(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        return (f"FabricConnection(#{self.cid} {self.src}->{self.dst}, "
                f"{state})")


class Fabric:
    """A many-peer messaging fabric over one live substrate.

    ::

        fabric = Fabric(mode="cm5", drop_rate=0.02)
        async with-less lifecycle:
            await fabric.add_peer("a"); await fabric.add_peer("b")
            conn = await fabric.connect("a", "b")
            await conn.send([1, 2, 3]); await conn.drain()
            await fabric.close()

    ``transport="loopback"`` shares one :class:`LoopbackHub` (CM-5 fault
    injection or CR lossless FIFO) between all peers; ``"udp"`` binds a
    real socket per peer (always cm5 mode — UDP advertises no services).
    """

    def __init__(self, mode: str = "cm5", transport: str = "loopback",
                 tracer: Optional[Tracer] = None,
                 backoff: Optional[BackoffPolicy] = None,
                 recovery: Optional[RecoveryPolicy] = None,
                 **fault_kwargs: float) -> None:
        self.mode = mode
        self.transport = transport
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.backoff = backoff
        self.recovery = recovery
        self.hub: Optional[LoopbackHub] = None
        if transport == "loopback":
            self.hub = make_hub(mode, **fault_kwargs)
        elif transport == "udp":
            if mode != "cm5":
                raise ValueError(
                    "UDP provides no services; only cm5 mode runs on it")
            if fault_kwargs:
                raise ValueError(
                    f"UDP transport takes no fault knobs: {fault_kwargs}")
        else:
            raise ValueError(f"unknown transport {transport!r}")
        #: One wheel carries every retransmit and delayed-ack deadline of
        #: every peer behind a single loop handle; its ready queue runs
        #: the hub's zero-delay deliveries and the flushes timers ask for.
        self.timers = TimerWheel()
        if self.hub is not None:
            self.hub.timers = self.timers
        self._peers: Dict[str, RuntimeEndpoint] = {}
        self._connections: Dict[int, FabricConnection] = {}
        self._next_cid = itertools.count(FIRST_FABRIC_CHANNEL)
        self._closed = False
        # Attribution from endpoints that no longer exist (crashed or
        # departed peers) — folded into attribution_totals() so a crash
        # never silently discards measured time.
        self._residual_ns: Dict[Feature, int] = {f: 0 for f in Feature}
        self._crashed: Set[str] = set()
        #: Optional observer called as ``hook(event, peer_name)`` with
        #: ``event`` in {"join", "leave", "crash", "restart"} (failure
        #: detectors, membership, tests).  "leave" fires *before* the
        #: departing peer's connections drain, so a detector can mark
        #: the peer LEFT immediately instead of aging it into SUSPECT.
        self.on_peer_event: Optional[Callable[[str, str], None]] = None

    # -- peer lifecycle -------------------------------------------------------

    @property
    def peer_names(self) -> List[str]:
        return list(self._peers)

    @property
    def peer_count(self) -> int:
        return len(self._peers)

    def peer(self, name: str) -> RuntimeEndpoint:
        try:
            return self._peers[name]
        except KeyError:
            raise FabricError(f"unknown peer {name!r}") from None

    async def add_peer(self, name: str) -> RuntimeEndpoint:
        """Attach a new endpoint to the fabric under ``name``."""
        if self._closed:
            raise FabricError("fabric is closed")
        if name in self._peers:
            raise FabricError(f"peer {name!r} already joined")
        if self.hub is not None:
            transport = self.hub.attach(name)
        else:
            transport = await UDPTransport.bind()
        endpoint = RuntimeEndpoint(transport, name=name, tracer=self.tracer,
                                   timers=self.timers)
        self._peers[name] = endpoint
        if self.on_peer_event is not None:
            self.on_peer_event("join", name)
        return endpoint

    async def remove_peer(self, name: str, drain: bool = True,
                          timeout: float = 30.0) -> None:
        """Detach ``name`` from the fabric.

        Every connection touching the peer is closed first —
        gracefully (drained) by default, immediately with
        ``drain=False``.  Datagrams still in flight toward the departed
        peer are counted by the hub as ``expired``, not delivered.
        """
        endpoint = self.peer(name)
        # Announce the departure before the drain: observers must stop
        # expecting liveness from a peer that is *gracefully* leaving,
        # or the drain window ages it into a false SUSPECT/DEAD.
        if self.on_peer_event is not None:
            self.on_peer_event("leave", name)
        for conn in self.connections_of(name):
            await conn.close(drain=drain, timeout=timeout)
        del self._peers[name]
        self._flush_remaining()
        await endpoint.close()

    async def crash_peer(self, name: str) -> None:
        """Kill ``name`` abruptly — the chaos-engine fault, not a leave.

        Protocol soft state dies with the process: the peer's endpoint
        and bindings disappear, its outbound connections hard-close, and
        datagrams in flight toward it expire at the hub.  What survives
        is application-durable state: receivers on connections *into*
        the peer keep their in-order delivery point (and delivered
        history), so a later :meth:`restart_peer` can resume them.  The
        crashed endpoint's measured time folds into the fabric's
        residual attribution — a crash never deletes observed cost.
        """
        if self.hub is None:
            raise FabricError("only loopback peers can crash and restart")
        endpoint = self.peer(name)
        for conn in list(self._connections.values()):
            if conn.closed:
                continue
            if conn.src == name:
                # The sender's window, timers, and byte mirror are gone.
                await conn.close(drain=False)
            elif conn.dst == name:
                # Durable delivery point survives; parked packets do not.
                conn.channel.receiver.crash()
        for feature, ns in endpoint.attribution.snapshot().items():
            self._residual_ns[feature] += ns
        del self._peers[name]
        self._flush_remaining()
        self._crashed.add(name)
        await endpoint.close()
        if self.on_peer_event is not None:
            self.on_peer_event("crash", name)

    async def restart_peer(self, name: str) -> RuntimeEndpoint:
        """Bring a crashed peer back under the same address.

        Receivers on still-open connections into the peer rebind to the
        fresh endpoint at their durable resume point; their senders'
        epoch renegotiation (when armed with a :class:`RecoveryPolicy`)
        discovers the restart and resupplies whatever the crash lost.
        """
        if self._closed:
            raise FabricError("fabric is closed")
        if name not in self._crashed:
            raise FabricError(f"peer {name!r} has not crashed")
        transport = self.hub.attach(name)
        endpoint = RuntimeEndpoint(transport, name=name, tracer=self.tracer,
                                   timers=self.timers)
        self._peers[name] = endpoint
        self._crashed.discard(name)
        for conn in self._connections.values():
            if conn.dst == name and not conn.closed:
                conn.channel.receiver.rebind(endpoint)
        if self.on_peer_event is not None:
            self.on_peer_event("restart", name)
        return endpoint

    def _flush_remaining(self) -> None:
        """Put every frame the remaining peers hold in their flush
        queues onto the substrate now.  Called before a departing peer
        detaches: traffic already sent toward it is then in flight and
        expires at the hub, instead of being blackholed by a flush that
        runs after the peer is gone."""
        for endpoint in self._peers.values():
            endpoint._flush()

    @property
    def crashed_peers(self) -> List[str]:
        return sorted(self._crashed)

    # -- connection management ------------------------------------------------

    def connections_of(self, name: str) -> List[FabricConnection]:
        """Open connections with ``name`` as source or destination."""
        return [conn for conn in self._connections.values()
                if name in (conn.src, conn.dst)]

    @property
    def open_connections(self) -> int:
        return len(self._connections)

    def allocate_channel(self) -> int:
        """A channel id no other user of this fabric holds: one per
        connection, or per sender/receiver pair a caller binds on two
        peers itself."""
        if self._closed:
            raise FabricError("fabric is closed")
        cid = next(self._next_cid)
        if cid > MAX_CHANNEL_ID:
            raise FabricError("fabric ran out of channel ids")
        return cid

    async def connect(self, src: str, dst: str, window: int = 32,
                      packet_words: int = 16, reorder_window: int = 256,
                      ack_every: int = 8, ack_delay: float = 0.005,
                      backoff: Optional[BackoffPolicy] = None,
                      recovery: Optional[RecoveryPolicy] = None,
                      flow: Optional[FlowControlConfig] = None,
                      ) -> FabricConnection:
        """Open an ordered channel ``src`` → ``dst`` on a fresh channel id.

        Multiple connections between the same pair (or sharing either
        endpoint) are fully independent: each gets its own sequence
        space, send window, retransmitter, reorder buffer, and (when
        ``flow`` is given) credit window.
        """
        if src == dst:
            raise FabricError("a connection needs two distinct peers")
        tx, rx = self.peer(src), self.peer(dst)
        cid = self.allocate_channel()
        channel = open_live_channel(
            tx, rx, dst=rx.local_address, channel=cid, window=window,
            packet_words=packet_words, reorder_window=reorder_window,
            backoff=backoff or self.backoff, ack_every=ack_every,
            ack_delay=ack_delay, recovery=recovery or self.recovery,
            flow=flow,
        )
        conn = FabricConnection(self, cid, src, dst, channel)
        self._connections[cid] = conn
        return conn

    def _forget_connection(self, conn: FabricConnection) -> None:
        self._connections.pop(conn.cid, None)

    def collective(self, members: Optional[Sequence[str]] = None,
                   config=None):
        """A :class:`~repro.runtime.collectives.CollectiveGroup` over
        ``members`` (every current peer when omitted): broadcast,
        scatter/gather, and all-reduce with per-message eager vs
        rendezvous protocol switching.  The group binds the collective
        control channel on each member, so at most one group may cover
        a given peer at a time."""
        from repro.runtime.collectives import CollectiveGroup
        return CollectiveGroup(self, members, config)

    # -- fabric-wide teardown & statistics ------------------------------------

    async def close(self, drain: bool = False, timeout: float = 30.0) -> None:
        """Close every connection and peer.  Idempotent.

        ``drain=True`` drains each connection before closing it (use
        after traffic you expect to complete); the default hard-closes,
        which is what error paths want.
        """
        if self._closed:
            return
        self._closed = True
        for conn in list(self._connections.values()):
            await conn.close(drain=drain, timeout=timeout)
        for endpoint in self._peers.values():
            await endpoint.close()
        self._peers.clear()
        self.timers.clear()

    def attribution_totals(self) -> Dict[Feature, int]:
        """Per-feature nanosecond totals summed across every peer,
        including residual time from crashed/departed endpoints."""
        totals: Dict[Feature, int] = dict(self._residual_ns)
        for endpoint in self._peers.values():
            for feature, ns in endpoint.attribution.snapshot().items():
                totals[feature] += ns
        return totals

    def endpoint_counters(self) -> Dict[str, Dict[str, int]]:
        """Every peer's counter registry, keyed by peer name."""
        return {name: endpoint.counters.to_dict()
                for name, endpoint in self._peers.items()}

    def wire_totals(self) -> Dict[str, int]:
        """Datagram-level accounting summed across every peer:
        data/ack/credit/membership frames sent, the per-channel
        ``flow.*`` and per-peer ``membership.*`` tallies re-aggregated
        fabric-wide, plus the hub's delivery-policy counters on
        loopback."""
        totals = {
            "data_datagrams": 0,
            "ack_datagrams": 0,
            "credit_datagrams": 0,
            "membership_datagrams": 0,
            "frames_sent": 0,
            "frames_received": 0,
            "retransmissions": 0,
            "send_errors": 0,
        }
        for endpoint in self._peers.values():
            totals["data_datagrams"] += endpoint.data_frames_sent
            totals["ack_datagrams"] += endpoint.ack_frames_sent
            totals["credit_datagrams"] += endpoint.credit_frames_sent
            totals["membership_datagrams"] += endpoint.membership_frames_sent
            totals["frames_sent"] += endpoint.frames_sent
            totals["frames_received"] += endpoint.frames_received
            totals["send_errors"] += endpoint.send_errors
            for name, value in endpoint.counters.to_dict().items():
                if name.endswith(".rtx.retransmissions"):
                    totals["retransmissions"] += value
                    continue
                # Per-channel flow-control tallies live under
                # "stream_tx.flow.*"/"stream_rx.flow.*"; fold them
                # into fabric-wide "flow.<leaf>" totals.  Per-peer
                # membership tallies ("membership.*") fold the same
                # way so gossip/probe load shows up in wire totals.
                idx = name.find(".flow.")
                if idx >= 0:
                    leaf = name[idx + len(".flow."):]
                    key = f"flow.{leaf}"
                    totals[key] = totals.get(key, 0) + value
                    continue
                if name.startswith("membership."):
                    key = name
                elif ".membership." in name:
                    key = "membership." + name.split(".membership.", 1)[1]
                else:
                    continue
                totals[key] = totals.get(key, 0) + value
        if self.hub is not None:
            totals.update(self.hub.wire_counters())
        return totals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Fabric(mode={self.mode}, transport={self.transport}, "
                f"peers={self.peer_count}, "
                f"connections={self.open_connections})")

