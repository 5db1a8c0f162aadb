"""Live transports: the runtime's pluggable network substrate.

Two implementations of one small :class:`Transport` contract:

* :class:`LoopbackTransport` — in-process datagram delivery through a
  shared :class:`LoopbackHub`.  In **CM-5 mode** the hub emulates the
  paper's weak delivery model: packets may be reordered (delayed past
  their successors), dropped, or duplicated, under a seeded RNG so runs
  are reproducible.  In **CR mode** (``LoopbackHub.cr()``) the hub
  guarantees lossless FIFO delivery — the transport-level analogue of
  the Compressionless Routing network of Section 4, advertised through
  the same ``provides_in_order`` / ``provides_reliability`` service
  flags the simulator's networks expose.
* :class:`UDPTransport` — real sockets via asyncio datagram endpoints,
  for multi-process runs.  UDP makes no ordering/reliability promises,
  so it advertises none and the full CM-5 protocol machinery runs on
  top of it.

Transports push received datagrams to a receiver callback; they never
parse frames — that is the endpoint's job (and its cost is charged to
the base-feature bucket, like the NI access instructions in the paper).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.runtime.tracing import Counters

Address = Any
Receiver = Callable[[bytes, Address], None]


@dataclass
class FaultProfile:
    """Delivery-weakness knobs for the loopback hub's CM-5 mode.

    Rates are independent per-datagram probabilities; ``reorder_delay``
    is how long a reordered datagram is held back, which must exceed
    ``latency`` for later packets to actually overtake it.
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    reorder_delay: float = 0.002
    latency: float = 0.0
    seed: int = 0x5CA1E

    def __post_init__(self) -> None:
        for name in ("drop_rate", "dup_rate", "reorder_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.latency < 0 or self.reorder_delay < 0:
            raise ValueError(
                f"latency/reorder_delay must be >= 0, got "
                f"{self.latency}/{self.reorder_delay}"
            )
        if self.reorder_rate and self.reorder_delay <= self.latency:
            raise ValueError(
                f"reorder_delay ({self.reorder_delay}) must exceed latency "
                f"({self.latency}) for reordering to occur"
            )

    @property
    def clean(self) -> bool:
        return not (self.drop_rate or self.dup_rate or self.reorder_rate
                    or self.corrupt_rate)


def flip_bit(data: bytes, rng: random.Random) -> bytes:
    """Return ``data`` with one RNG-chosen bit inverted (wire damage)."""
    if not data:
        return data
    index = rng.randrange(len(data))
    damaged = bytearray(data)
    damaged[index] ^= 1 << rng.randrange(8)
    return bytes(damaged)


class Transport:
    """Abstract datagram transport bound to one local address."""

    #: Service flags, mirroring the simulator networks' advertisement.
    provides_in_order = False
    provides_reliability = False

    def __init__(self) -> None:
        self._receiver: Optional[Receiver] = None
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.bytes_sent = 0

    @property
    def local_address(self) -> Address:
        raise NotImplementedError

    def set_receiver(self, receiver: Receiver) -> None:
        """Install the callback invoked for every received datagram."""
        self._receiver = receiver

    def _deliver(self, data: bytes, src: Address) -> None:
        self.datagrams_received += 1
        if self._receiver is not None:
            self._receiver(data, src)

    async def send(self, dst: Address, data: bytes) -> None:
        raise NotImplementedError

    def send_now(self, dst: Address, data: bytes) -> bool:
        """Synchronous send fast path, if the transport has one.

        Returns True when the datagram was put on the wire without
        awaiting.  The default (False) makes callers fall back to the
        coroutine :meth:`send`; both in-process transports override
        this, so the endpoint's batching flush loop never needs an
        asyncio task per datagram.
        """
        return False

    async def close(self) -> None:
        """Release resources; further sends are undefined."""


class LoopbackHub:
    """An in-process 'network' connecting loopback transports.

    One hub per experiment: ``hub.attach(addr)`` creates an endpoint
    transport; datagrams sent between attached transports pass through
    the hub's delivery policy.
    """

    def __init__(self, faults: Optional[FaultProfile] = None,
                 ordered: bool = False, reliable: bool = False) -> None:
        self.faults = faults or FaultProfile()
        self.ordered = ordered
        self.reliable = reliable
        if (ordered or reliable) and not self.faults.clean:
            raise ValueError("a CR-mode hub cannot also inject faults")
        self._rng = random.Random(self.faults.seed)
        self._transports: Dict[Address, "LoopbackTransport"] = {}
        self.counters = Counters()
        #: Scripted fault layer (a :class:`repro.runtime.chaos.ChaosInjector`),
        #: consulted per datagram *on top of* the static fault profile.
        #: Contract: ``chaos.filter(src, dst, data)`` returns
        #: ``(data, verdict, extra_delay)`` where verdict is one of
        #: ``None`` (pass), ``"partitioned"`` (suppress — the injector
        #: may have queued the bytes for replay on heal), ``"dropped"``
        #: (burst loss), or ``"corrupted"`` (data comes back bit-damaged
        #: and still gets delivered).
        self.chaos = None
        #: Per-directed-link monotonic delivery deadline for chaos
        #: latency on a *reliable* hub: a uniform delay applied to
        #: every datagram preserves FIFO, and clamping each delivery to
        #: be no earlier than the previous one keeps it preserved when
        #: the spike starts or clears mid-stream.
        self._fifo_due: Dict[Tuple[Address, Address], float] = {}

    @classmethod
    def cr(cls) -> "LoopbackHub":
        """A hub that guarantees in-order lossless delivery (CR mode)."""
        return cls(ordered=True, reliable=True)

    @classmethod
    def cm5(cls, drop_rate: float = 0.0, dup_rate: float = 0.0,
            reorder_rate: float = 0.25, corrupt_rate: float = 0.0,
            reorder_delay: float = 0.002, latency: float = 0.0,
            seed: int = 0x5CA1E) -> "LoopbackHub":
        """A hub with the CM-5's weak delivery model."""
        return cls(FaultProfile(
            drop_rate=drop_rate, dup_rate=dup_rate, reorder_rate=reorder_rate,
            corrupt_rate=corrupt_rate, reorder_delay=reorder_delay,
            latency=latency, seed=seed,
        ))

    @property
    def mode(self) -> str:
        return "cr" if (self.ordered and self.reliable) else "cm5"

    # -- delivery statistics --------------------------------------------------
    # One Counters registry backs them all; `wire_counters()` is the
    # one-stop dict, the old attribute names remain as properties.

    def wire_counters(self) -> Dict[str, int]:
        """Every delivery-policy tally in one dict: ``delivered``,
        ``dropped`` (fault-injected losses only), ``duplicated``,
        ``reordered``, ``corrupted`` (bit-flipped but still delivered),
        ``partitioned`` (suppressed by a chaos partition/flap — distinct
        from random drops so scripted faults are attributable in
        reports), ``blackholed`` (unknown destination — not a fault
        statistic), and ``expired`` (arrived after the destination
        detached — not a fault statistic either)."""
        return {
            "delivered": self.counters.get("delivered"),
            "dropped": self.counters.get("dropped"),
            "duplicated": self.counters.get("duplicated"),
            "reordered": self.counters.get("reordered"),
            "corrupted": self.counters.get("corrupted"),
            "partitioned": self.counters.get("partitioned"),
            "blackholed": self.counters.get("blackholed"),
            "expired": self.counters.get("expired"),
        }

    @property
    def delivered(self) -> int:
        return self.counters.get("delivered")

    @property
    def dropped(self) -> int:
        """Fault-injected losses only (blackholes counted apart)."""
        return self.counters.get("dropped")

    @property
    def duplicated(self) -> int:
        return self.counters.get("duplicated")

    @property
    def reordered(self) -> int:
        return self.counters.get("reordered")

    @property
    def blackholed(self) -> int:
        """Datagrams for unknown destinations — not a fault statistic."""
        return self.counters.get("blackholed")

    @property
    def expired(self) -> int:
        """Datagrams that arrived after their destination detached."""
        return self.counters.get("expired")

    @property
    def corrupted(self) -> int:
        """Datagrams delivered with injected bit damage."""
        return self.counters.get("corrupted")

    @property
    def partitioned(self) -> int:
        """Datagrams suppressed by a scripted partition or link flap."""
        return self.counters.get("partitioned")

    def attach(self, address: Address) -> "LoopbackTransport":
        if address in self._transports:
            raise ValueError(f"address {address!r} already attached")
        transport = LoopbackTransport(self, address)
        self._transports[address] = transport
        return transport

    def detach(self, address: Address) -> None:
        self._transports.pop(address, None)

    # -- delivery policy ------------------------------------------------------

    def _transmit(self, src: Address, dst: Address, data: bytes) -> None:
        chaos_delay = 0.0
        if self.chaos is not None:
            # Scripted faults layer on top of the static profile: the
            # injector sees every datagram first and may suppress it
            # (partition/flap — on a reliable hub it queues the bytes
            # for replay on heal), burst-drop it, damage it, or delay it.
            # The partition lives in the *network*, so it is consulted
            # before the destination lookup — bytes toward a crashed
            # peer behind a partition are held, not blackholed, and a
            # reliable hub can replay them once the peer restarts.
            data, verdict, chaos_delay = self.chaos.filter(src, dst, data)
            if verdict == "partitioned":
                self.counters["partitioned"] += 1
                return
            if verdict == "dropped":
                self.counters["dropped"] += 1
                return
            if verdict == "corrupted":
                self.counters["corrupted"] += 1
        target = self._transports.get(dst)
        if target is None:
            # Unknown destination: a real network would blackhole it too.
            # Counted apart from `dropped`, which must reflect only the
            # injected fault model (the demo/bench report it as such).
            self.counters["blackholed"] += 1
            return
        loop = asyncio.get_running_loop()
        if self.ordered and self.reliable:
            # CR mode: lossless FIFO.  A chaos latency spike *is*
            # honored — a reliable network can be slow — but delivery
            # times per directed link are clamped monotonic, so a spike
            # starting or clearing mid-stream never lets later sends
            # overtake earlier ones.  Once a link has a pending
            # deadline it stays on the timer path (timers fire in
            # schedule order; mixing call_soon back in could overtake).
            key = (src, dst)
            due = self._fifo_due.get(key)
            if chaos_delay > 0 or due is not None:
                # Strictly increasing: equal-deadline timers tie-break
                # arbitrarily in the heap, which would un-FIFO the link.
                at = max(loop.time() + chaos_delay, (due or 0.0) + 1e-9)
                self._fifo_due[key] = at
                loop.call_at(at, self._hand_over, target, data, src)
            else:
                loop.call_soon(self._hand_over, target, data, src)
            return
        faults = self.faults
        if faults.drop_rate and self._rng.random() < faults.drop_rate:
            self.counters["dropped"] += 1
            return
        if faults.corrupt_rate and self._rng.random() < faults.corrupt_rate:
            data = flip_bit(data, self._rng)
            self.counters["corrupted"] += 1
        copies = 1
        if faults.dup_rate and self._rng.random() < faults.dup_rate:
            copies = 2
            self.counters["duplicated"] += 1
        for _ in range(copies):
            delay = faults.latency + chaos_delay
            if faults.reorder_rate and self._rng.random() < faults.reorder_rate:
                delay += faults.reorder_delay
                self.counters["reordered"] += 1
            if delay > 0:
                loop.call_later(delay, self._hand_over, target, data, src)
            else:
                loop.call_soon(self._hand_over, target, data, src)

    def inject(self, dst: Address, data: bytes, src: Address) -> bool:
        """Deliver ``data`` to ``dst`` bypassing the fault policy.

        The chaos engine's replay path: datagrams a reliable hub held
        across a partition re-enter here in their original FIFO order.
        Returns False (and counts ``expired``) if the destination is
        gone.
        """
        target = self._transports.get(dst)
        if target is None:
            self.counters["expired"] += 1
            return False
        asyncio.get_running_loop().call_soon(self._hand_over, target, data, src)
        return True

    def _hand_over(self, target: "LoopbackTransport", data: bytes,
                   src: Address) -> None:
        # Re-check attachment at hand-over time: a datagram scheduled via
        # call_later may land after its destination detached (endpoint
        # close, peer leaving the fabric), and an `is` comparison also
        # rejects a *new* transport that re-attached the same address.
        if self._transports.get(target._address) is not target:
            self.counters["expired"] += 1
            return
        self.counters["delivered"] += 1
        target._deliver(data, src)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LoopbackHub(mode={self.mode}, delivered={self.delivered}, "
            f"dropped={self.dropped}, reordered={self.reordered}, "
            f"blackholed={self.blackholed})"
        )


def make_hub(
    mode: str = "cm5",
    drop_rate: float = 0.0,
    dup_rate: float = 0.0,
    reorder_rate: float = 0.25,
    corrupt_rate: float = 0.0,
    reorder_delay: float = 0.002,
    latency: float = 0.0,
    seed: int = 0x5CA1E,
) -> LoopbackHub:
    """Build a loopback hub for ``mode`` ('cm5' or 'cr').

    The substrate factory behind every loopback
    :class:`repro.runtime.fabric.Fabric`, the two-peer one that
    :func:`repro.runtime.runner.measure_live` builds included.  CR mode
    ignores every fault knob.
    """
    if mode == "cr":
        return LoopbackHub.cr()
    if mode == "cm5":
        return LoopbackHub.cm5(
            drop_rate=drop_rate, dup_rate=dup_rate, reorder_rate=reorder_rate,
            corrupt_rate=corrupt_rate, reorder_delay=reorder_delay,
            latency=latency, seed=seed,
        )
    raise ValueError(f"unknown mode {mode!r} (expected 'cm5' or 'cr')")


class LoopbackTransport(Transport):
    """One endpoint attached to a :class:`LoopbackHub`."""

    def __init__(self, hub: LoopbackHub, address: Address) -> None:
        super().__init__()
        self.hub = hub
        self._address = address
        self.provides_in_order = hub.ordered
        self.provides_reliability = hub.reliable

    @property
    def local_address(self) -> Address:
        return self._address

    async def send(self, dst: Address, data: bytes) -> None:
        self.send_now(dst, data)

    def send_now(self, dst: Address, data: bytes) -> bool:
        self.datagrams_sent += 1
        self.bytes_sent += len(data)
        self.hub._transmit(self._address, dst, data)
        return True

    async def close(self) -> None:
        self.hub.detach(self._address)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LoopbackTransport(addr={self._address!r}, mode={self.hub.mode})"


class _UDPProtocol(asyncio.DatagramProtocol):
    """Bridges asyncio's datagram callbacks onto a :class:`UDPTransport`."""

    def __init__(self, owner: "UDPTransport") -> None:
        self._owner = owner

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        self._owner._deliver(data, addr)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover - OS-dependent
        self._owner.errors += 1


class UDPTransport(Transport):
    """Real UDP sockets for multi-process runs.

    Create with :meth:`bind` (an async factory — the socket must be
    opened on a running event loop)::

        transport = await UDPTransport.bind()      # 127.0.0.1, ephemeral port
        peer_addr = transport.local_address        # hand to the other side
    """

    def __init__(self) -> None:
        super().__init__()
        self._transport: Optional[asyncio.DatagramTransport] = None
        self.errors = 0

    @classmethod
    async def bind(cls, host: str = "127.0.0.1", port: int = 0) -> "UDPTransport":
        self = cls()
        loop = asyncio.get_running_loop()
        transport, _protocol = await loop.create_datagram_endpoint(
            lambda: _UDPProtocol(self), local_addr=(host, port)
        )
        self._transport = transport
        return self

    @property
    def local_address(self) -> Tuple[str, int]:
        if self._transport is None:
            raise RuntimeError("transport is not bound")
        return self._transport.get_extra_info("sockname")[:2]

    async def send(self, dst: Address, data: bytes) -> None:
        self.send_now(dst, data)

    def send_now(self, dst: Address, data: bytes) -> bool:
        if self._transport is None:
            raise RuntimeError("transport is not bound")
        self.datagrams_sent += 1
        self.bytes_sent += len(data)
        self._transport.sendto(data, tuple(dst))
        return True

    async def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None
