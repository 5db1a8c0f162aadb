"""Credit-based flow control for the live runtime's ordered channels.

The paper charges a large share of per-message software overhead to
buffer management and flow control; until now the runtime had the
buffers but not the admission control — a fast sender could balloon a
receiver's reorder buffer and its own retransmitter tracked set without
bound.  This module adds the missing half, modeled on the classic
receiver-advertised *credit window* (the same shape MPICH2-over-
InfiniBand uses to gate its eager protocol):

* :class:`ReceiverWindow` (consumer side) accounts every admitted data
  packet against a per-channel credit budget (bytes dominant, message
  count secondary).  Delivery to the user releases buffer space; when
  the credit outstanding at the sender falls under a low watermark the
  receiver re-advertises a top-up — as a standalone ``CREDIT_UPDATE``
  frame, or piggybacked for free on the ``CUM_ACK`` it was about to
  send anyway.  The ledger work of a run of packets one datagram brings
  the channel — releasing the in-order data it let through, admitting
  the packets — is one :meth:`ReceiverWindow.on_data` call under one
  flow-control span, and the pending-advertisement flag is a plain
  attribute, so a run pays for credit once, not per packet or per
  ledger entry.

* :class:`SenderWindow` (producer side) estimates the peer's remaining
  credit from those advertisements and surfaces a
  :class:`BackpressureSignal` (``OK``/``SOFT``/``HARD``) so callers can
  delay or shed work *before* the channel wedges; a sender that must
  make progress simply awaits credit.

Loss tolerance is structural, not best-effort: grants are **absolute
cumulative totals**, never deltas, so applying one is idempotent
(``max``-merge) and any later advertisement — the next piggybacked ack,
a periodic full-state refresh, an ``EPOCH_REPLY`` during crash
recovery — heals an arbitrary number of lost ``CREDIT_UPDATE`` frames.
A sender blocked with nothing in flight (so nothing to elicit an ack)
probes the receiver on a timer, and the probe's answer is a fresh
full-state advertisement.
"""

from __future__ import annotations

import asyncio
import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

#: Payload words appended to a credit-bearing frame: the advertised
#: cumulative grant totals, 64-bit each, split into two 32-bit words.
CREDIT_WORDS = 4

_WORD = 0xFFFFFFFF


class BackpressureSignal(enum.Enum):
    """What the sender-side credit estimate advises the caller to do."""

    OK = "ok"        #: plenty of credit — send freely
    SOFT = "soft"    #: running low — delay or batch if you can
    HARD = "hard"    #: (nearly) exhausted — shed or block until a grant


@dataclass(frozen=True)
class FlowControlConfig:
    """Per-channel credit window shape and reaction thresholds.

    Byte-based accounting dominates; the message (packet) count is a
    secondary guard so a flood of tiny packets cannot slip under a
    byte-only budget.  Fractions mirror the usual credit-window tuning:
    top up when remaining credit crosses ``low_watermark_frac``, treat
    the estimate as SOFT/HARD under ``soft_fraction``/``hard_fraction``
    of capacity.
    """

    window_bytes: int = 64 * 1024   #: receiver buffer budget in payload bytes
    window_msgs: int = 512          #: secondary cap in packets
    low_watermark_frac: float = 0.25  #: re-advertise under this remaining frac
    soft_fraction: float = 0.15       #: estimate <= this frac => SOFT
    hard_fraction: float = 0.05       #: estimate <= this frac => HARD
    refresh_every: int = 64           #: full-state refresh cadence (arrivals)
    probe_interval: float = 0.05      #: blocked-sender credit probe timer

    def __post_init__(self) -> None:
        if self.window_bytes < 1 or self.window_msgs < 1:
            raise ValueError("credit windows must be positive")
        if not (0.0 < self.low_watermark_frac < 1.0):
            raise ValueError("low watermark must be a fraction in (0, 1)")
        if not (0.0 <= self.hard_fraction <= self.soft_fraction < 1.0):
            raise ValueError("need 0 <= hard <= soft < 1")
        if self.refresh_every < 1 or self.probe_interval <= 0:
            raise ValueError("refresh cadence and probe interval must be positive")


def credit_words(granted_bytes: int, granted_msgs: int) -> Tuple[int, ...]:
    """Encode cumulative grant totals as :data:`CREDIT_WORDS` payload words."""
    return (
        (granted_bytes >> 32) & _WORD, granted_bytes & _WORD,
        (granted_msgs >> 32) & _WORD, granted_msgs & _WORD,
    )


def parse_credit_words(words: Sequence[int]) -> Tuple[int, int]:
    """Decode :func:`credit_words` back into (granted_bytes, granted_msgs)."""
    if len(words) != CREDIT_WORDS:
        raise ValueError(f"credit suffix must be {CREDIT_WORDS} words")
    granted_bytes = (int(words[0]) << 32) | int(words[1])
    granted_msgs = (int(words[2]) << 32) | int(words[3])
    return granted_bytes, granted_msgs


class ReceiverWindow:
    """Receiver-side credit ledger for one ordered channel.

    All counters are monotone cumulative totals over the channel's
    lifetime — ``granted`` is what has ever been advertised to the peer,
    ``consumed`` what has ever been admitted into the buffer,
    ``released`` what has left it toward the user.  The derived
    quantities are::

        in_buffer   = consumed - released          (current occupancy)
        outstanding = granted  - consumed          (credit the peer holds)

    The initial grant equals one full window, matching the sender-side
    estimate's starting point, so a channel works before the first
    advertisement ever crosses the wire.
    """

    def __init__(self, config: FlowControlConfig) -> None:
        self.config = config
        self.granted_bytes = config.window_bytes
        self.granted_msgs = config.window_msgs
        self.consumed_bytes = 0
        self.consumed_msgs = 0
        self.released_bytes = 0
        self.released_msgs = 0
        self.peak_buffered_bytes = 0
        self.peak_buffered_msgs = 0
        self.overruns = 0
        self._arrivals = 0
        #: A watermark crossing or refresh made an advertisement due;
        #: :meth:`advertise` clears it.  A plain attribute: the receiver
        #: reads it on every packet.
        self.update_due = False

    # -- derived state --------------------------------------------------------

    @property
    def in_buffer_bytes(self) -> int:
        return self.consumed_bytes - self.released_bytes

    @property
    def in_buffer_msgs(self) -> int:
        return self.consumed_msgs - self.released_msgs

    @property
    def outstanding_bytes(self) -> int:
        return self.granted_bytes - self.consumed_bytes

    @property
    def outstanding_msgs(self) -> int:
        return self.granted_msgs - self.consumed_msgs

    def _target(self) -> Tuple[int, int]:
        """The fullest grant the buffer can honour: everything released
        plus one whole window — never a promise past physical capacity."""
        return (self.released_bytes + self.config.window_bytes,
                self.released_msgs + self.config.window_msgs)

    # -- admission / release --------------------------------------------------

    def on_data(self, nbytes: int, released_bytes: int = 0,
                released_msgs: int = 0, delivered: bool = False,
                packets: int = 1, rise_bytes: Optional[int] = None,
                rise_msgs: Optional[int] = None,
                overruns: Optional[int] = None) -> bool:
        """Account admitted data packets; returns True when a credit
        advertisement should be sent now (watermark crossed, or the
        periodic full-state refresh came due).

        One call covers the ledger work of one arrival, or of a whole
        run of ``packets`` arrivals from one datagram, in the order the
        receiver does it.  ``nbytes`` is what they bring into the
        buffer.  ``released_*`` is the in-order data they let through
        to the user, released *before* admission (a reorder buffer
        delivers, then counts the frame); ``delivered=True`` releases
        the packets themselves right *after* their admission (a CR
        channel has no reorder buffer: each packet goes straight to the
        user).  Either way the result equals :meth:`on_deliver` per
        released packet around a bare ``on_data(n)`` per packet.

        A run's peaks and overruns depend on the order inside it, which
        the totals do not keep, so the receiver tallies them as it walks
        the run: ``rise_*`` is the highest the buffered level got above
        its level at the run's start, after any one admission, and
        ``overruns`` counts the packets admitted past the grant.  Nothing
        is advertised before a run's end, so the grant holds still across
        it and the receiver measures against the room it had at the
        start.  Left out, they are what one packet gives.  The refresh
        cadence fires when the arrivals cross a multiple of
        ``refresh_every``; the watermark needs only the end state, since
        credit outstanding only falls inside a run.
        """
        # Per call: the derived quantities are computed from the fields
        # here, not through their properties.
        start_bytes = self.consumed_bytes - self.released_bytes
        start_msgs = self.consumed_msgs - self.released_msgs
        self.released_bytes += released_bytes
        self.released_msgs += released_msgs
        self.consumed_bytes += nbytes
        self.consumed_msgs += packets
        outstanding_bytes = self.granted_bytes - self.consumed_bytes
        outstanding_msgs = self.granted_msgs - self.consumed_msgs
        if overruns is None:
            # The peer sent past its grant.  We never punish it with a
            # drop (the retransmit machinery would just resend); we
            # count it so a misconfigured pairing is visible.
            overruns = 1 if outstanding_bytes < 0 or outstanding_msgs < 0 else 0
        self.overruns += overruns
        if delivered:
            if rise_bytes is None:
                rise_bytes, rise_msgs = nbytes, packets
            self.released_bytes += nbytes
            self.released_msgs += packets
        elif rise_bytes is None:
            rise_bytes = nbytes - released_bytes
            rise_msgs = packets - released_msgs
        if start_bytes + rise_bytes > self.peak_buffered_bytes:
            self.peak_buffered_bytes = start_bytes + rise_bytes
        if start_msgs + rise_msgs > self.peak_buffered_msgs:
            self.peak_buffered_msgs = start_msgs + rise_msgs
        cfg = self.config
        before = self._arrivals
        self._arrivals = before + packets
        if (self._arrivals // cfg.refresh_every > before // cfg.refresh_every
                or outstanding_bytes < cfg.low_watermark_frac * cfg.window_bytes
                or outstanding_msgs < cfg.low_watermark_frac * cfg.window_msgs):
            self.update_due = True
        return self.update_due

    def on_deliver(self, nbytes: int) -> None:
        """Account one packet leaving the buffer toward the user."""
        self.released_bytes += nbytes
        self.released_msgs += 1

    def on_crash(self) -> None:
        """Receiver-process death: buffered-but-undelivered packets are
        lost (retransmission re-admits them), so the occupancy they held
        is released and a fresh advertisement becomes due immediately."""
        self.released_bytes = self.consumed_bytes
        self.released_msgs = self.consumed_msgs
        self.update_due = True

    # -- advertisement --------------------------------------------------------

    def advertise(self) -> Tuple[int, int]:
        """Grant up to the buffer's current capacity and return the new
        cumulative totals to put on the wire.  Clears any pending
        watermark/refresh obligation (the caller is sending it)."""
        target_bytes, target_msgs = self._target()
        self.granted_bytes = max(self.granted_bytes, target_bytes)
        self.granted_msgs = max(self.granted_msgs, target_msgs)
        self.update_due = False
        return self.granted_bytes, self.granted_msgs


class RendezvousAdmission:
    """Receiver-side admission control for rendezvous bulk transfers.

    The eager path is metered packet-by-packet by the credit window;
    the rendezvous path moves whole payloads, so its unit of admission
    is the *transfer*: a ``COLL_HDR`` asks for the full payload up
    front, and the grant is withheld while the outstanding granted
    bytes would exceed the bulk budget.  That bounds how much bulk data
    can be in flight toward one receiver at a time — the rendezvous
    analogue of the credit window — without per-packet accounting on
    the (large-packet) bulk lane.

    Grants are all-or-nothing: a transfer bigger than the whole budget
    is still admitted (alone) rather than deadlocked, mirroring the
    credit window's treatment of oversized sends.
    """

    def __init__(self, max_bulk_bytes: int) -> None:
        if max_bulk_bytes < 1:
            raise ValueError("bulk admission budget must be positive")
        self.max_bulk_bytes = max_bulk_bytes
        self.granted_bytes = 0       #: admitted but not yet released
        self.admitted = 0            #: transfers granted immediately
        self.deferred = 0            #: transfers that had to wait
        self.peak_granted_bytes = 0
        self._freed = asyncio.Event()
        self._freed.set()

    def _fits(self, nbytes: int) -> bool:
        if self.granted_bytes == 0:
            return True              # never deadlock an oversized transfer
        return self.granted_bytes + nbytes <= self.max_bulk_bytes

    def try_admit(self, nbytes: int) -> bool:
        """Admit a transfer now if the budget allows; never waits."""
        if not self._fits(nbytes):
            return False
        self.granted_bytes += nbytes
        self.peak_granted_bytes = max(self.peak_granted_bytes,
                                      self.granted_bytes)
        self.admitted += 1
        return True

    async def admit(self, nbytes: int) -> None:
        """Admit a transfer, waiting for budget to free up if needed."""
        if self.try_admit(nbytes):
            return
        self.deferred += 1
        while True:
            self._freed.clear()
            if self.try_admit(nbytes):  # a release raced the clear
                return
            await self._freed.wait()
            if self.try_admit(nbytes):
                return

    def release(self, nbytes: int) -> None:
        """Return a completed (or abandoned) transfer's budget."""
        self.granted_bytes = max(0, self.granted_bytes - nbytes)
        self._freed.set()


class SenderWindow:
    """Sender-side estimate of the peer's remaining credit.

    ``limit`` mirrors the largest cumulative grant ever advertised by
    the peer (``max``-merged, so stale and duplicate updates are
    harmless); ``used`` is what this side has consumed against it.
    """

    def __init__(self, config: FlowControlConfig) -> None:
        self.config = config
        self.limit_bytes = config.window_bytes
        self.limit_msgs = config.window_msgs
        self.used_bytes = 0
        self.used_msgs = 0
        self.updates_applied = 0
        self._credit = asyncio.Event()
        self._credit.set()

    # -- derived state --------------------------------------------------------

    @property
    def available_bytes(self) -> int:
        return self.limit_bytes - self.used_bytes

    @property
    def available_msgs(self) -> int:
        return self.limit_msgs - self.used_msgs

    def can_send(self, nbytes: int) -> bool:
        return (self.limit_bytes - self.used_bytes >= nbytes
                and self.limit_msgs > self.used_msgs)

    def signal(self, next_bytes: int = 0) -> BackpressureSignal:
        """Advise the caller.

        With ``next_bytes > 0`` the question is concrete — *would this
        particular send block?* — so the answer is binary: HARD exactly
        when the send does not fit (bytes short of ``next_bytes`` or no
        message slot left), OK whenever it fits, **including an exact
        fit** that consumes the last byte of credit.  Fractional
        headroom never turns a send that fits into HARD.

        With ``next_bytes == 0`` (no send offered) the signal is the
        advisory headroom estimate: byte and message headroom as
        fractions of capacity, whichever is scarcer, against the
        configured soft/hard thresholds.
        """
        cfg = self.config
        if next_bytes > 0:
            if not self.can_send(next_bytes):
                return BackpressureSignal.HARD
            return BackpressureSignal.OK
        frac = min(self.available_bytes / cfg.window_bytes,
                   self.available_msgs / cfg.window_msgs)
        if frac <= cfg.hard_fraction or not self.can_send(0):
            return BackpressureSignal.HARD
        if frac <= cfg.soft_fraction:
            return BackpressureSignal.SOFT
        return BackpressureSignal.OK

    # -- consumption / grants -------------------------------------------------

    def consume(self, nbytes: int, packets: int = 1) -> None:
        """Charge ``packets`` sent packets of ``nbytes`` in all against
        the estimate: one call for a whole run of admitted packets."""
        self.used_bytes += nbytes
        self.used_msgs += packets
        if (self.used_bytes >= self.limit_bytes
                or self.used_msgs >= self.limit_msgs):
            self._credit.clear()   # can_send(1) no longer holds

    def apply(self, granted_bytes: int, granted_msgs: int) -> bool:
        """Merge one advertisement; returns True when it raised the
        limit.  Idempotent and order-insensitive — grants are cumulative
        totals, so a lost or reordered update is healed by any later one."""
        raised = (granted_bytes > self.limit_bytes
                  or granted_msgs > self.limit_msgs)
        self.limit_bytes = max(self.limit_bytes, granted_bytes)
        self.limit_msgs = max(self.limit_msgs, granted_msgs)
        if raised:
            self.updates_applied += 1
        if self.can_send(1):
            self._credit.set()
        return raised

    async def grant_wait(self, nbytes: int, timeout: float) -> bool:
        """One bounded wait for enough credit to send ``nbytes``.

        Returns True as soon as sending is possible, False when the
        timeout lapses first — the caller decides whether to probe the
        receiver, re-check channel health, and come back.  Bounded waits
        keep the blocked path responsive to channel failure.
        """
        if self.can_send(nbytes):
            return True
        self._credit.clear()
        if self.can_send(nbytes):  # a grant raced the clear
            return True
        try:
            await asyncio.wait_for(self._credit.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        return self.can_send(nbytes)

    def release_waiters(self) -> None:
        """Wake any blocked sender (channel teardown/failure path)."""
        self._credit.set()
