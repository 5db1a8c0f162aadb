"""Event-level tracing for the live runtime.

The aggregate ``TimeAttribution`` buckets answer the paper's question —
*where does the time go?* — but only in total.  This module records the
*events* behind those totals: every datagram send, receive, retransmit,
acknowledgement, reorder-buffer park/unpark, delivery, give-up, and
timer firing, each stamped with ``perf_counter_ns`` and the packet's
identity (logical channel, sequence/transfer id, offset, attempt
number) plus the attribution :class:`Feature` active at the instant the
event fired.  Downstream, :mod:`repro.analysis.journey` stitches the
events into per-message journeys — which message stalled in the
reorder buffer, which was retransmitted, where its time went stage by
stage.

Design constraints:

* **Low overhead when on** — events land in a preallocated ring buffer
  as ``__slots__`` records; no I/O, no allocation beyond the record.
* **Near-zero overhead when off** — every instrumentation site guards
  on ``tracer.enabled`` (a single attribute test); the module-level
  :data:`NULL_TRACER` is permanently disabled, so un-traced runs pay
  one boolean check per event site.  A tier-1 test holds the untraced
  path of one DATA frame to a fixed call budget.

The module also hosts the runtime's :class:`Counters` registry (the
named tallies of ``protocols.py``/``reliability.py``/``transport.py``,
bumped as ``counters[name] += n``) and the
fixed-bucket log-scale :class:`LatencyHistogram` used for the journey
stage and load-latency distributions.

Exporters: :func:`export_jsonl` (one event per line) and
:func:`export_chrome_trace` (Chrome/Perfetto ``trace_event`` JSON —
load the file in https://ui.perfetto.dev or ``chrome://tracing``; one
track per run×endpoint, instant events for every trace event, ``"X"``
duration spans for matched event pairs).
"""

from __future__ import annotations

import enum
import json
import time
from dataclasses import dataclass
from typing import (Dict, IO, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.arch.attribution import Feature


class EventType(enum.Enum):
    """What happened to a packet (or timer) at one instant."""

    SEND = "SEND"              #: first transmission of a data/control frame
    FLUSH = "FLUSH"            #: an enqueued frame's datagram hit the wire
    RECV = "RECV"              #: a data/control frame arrived and decoded
    RETRANSMIT = "RETRANSMIT"  #: the timer wheel resent a tracked frame
    ACK_TX = "ACK_TX"          #: an acknowledgement frame was sent
    ACK_RX = "ACK_RX"          #: an acknowledgement frame arrived
    PARK = "PARK"              #: out-of-order packet parked in the reorder buffer
    UNPARK = "UNPARK"          #: a parked packet's gap filled; it left the buffer
    DELIVER = "DELIVER"        #: payload handed to the delivery path
    GIVE_UP = "GIVE_UP"        #: retry budget exhausted for a tracked frame
    TIMER_FIRE = "TIMER_FIRE"  #: a retransmit/delayed-ack timer fired
    CORRUPT = "CORRUPT"        #: a datagram failed its frame checksum
    PEER_SUSPECT = "PEER_SUSPECT"  #: membership: peer stopped answering probes
    PEER_DEAD = "PEER_DEAD"        #: membership: peer declared dead
    PEER_ALIVE = "PEER_ALIVE"      #: membership: peer (re)confirmed alive
    PEER_LEFT = "PEER_LEFT"        #: membership: peer departed gracefully
    PEER_REFUTE = "PEER_REFUTE"    #: membership: accused peer refuted a suspicion
    EPOCH = "EPOCH"            #: ordered channel renegotiated its epoch
    CREDIT_TX = "CREDIT_TX"    #: a flow-control advertisement/probe was sent
    CREDIT_RX = "CREDIT_RX"    #: a flow-control advertisement/probe arrived
    FLOW_BLOCK = "FLOW_BLOCK"      #: a sender stalled waiting for credit
    FLOW_UNBLOCK = "FLOW_UNBLOCK"  #: a credit-starved sender resumed
    COLL_BEGIN = "COLL_BEGIN"  #: a collective operation started (label = op)
    COLL_END = "COLL_END"      #: a collective operation completed everywhere

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class TraceEvent:
    """One recorded instant.  ``aux`` is the frame's auxiliary word
    (data offset for bulk DATA, high-water mark for FINAL_ACK, -1 when
    the event carries none).

    The trailing fields serve cross-peer journey reconstruction:
    ``dur_ns`` is a work interval ending at (FLUSH: time since the
    flush tick started) or starting at (RECV: decode time) ``ts_ns``;
    ``origin`` / ``origin_ts_ns`` are the wire-propagated trace context
    on a RECV — the sending endpoint's id and the exact ``ts_ns`` of
    its SEND event (``-1`` when the frame carried none).
    """

    ts_ns: int
    etype: EventType
    label: str        # run label, e.g. "finite/cm5" (set by the harness)
    endpoint: str     # endpoint name, e.g. "src" / "dst"
    channel: int
    seq: int
    aux: int
    attempt: int
    kind: str         # frame kind name ("DATA", "CUM_ACK", ...) or ""
    feature: Optional[Feature]
    dur_ns: int = 0
    origin: int = -1
    origin_ts_ns: int = -1

    def to_dict(self) -> Dict[str, object]:
        return {
            "ts_ns": self.ts_ns,
            "event": self.etype.value,
            "label": self.label,
            "endpoint": self.endpoint,
            "channel": self.channel,
            "seq": self.seq,
            "aux": self.aux,
            "attempt": self.attempt,
            "kind": self.kind,
            "feature": self.feature.value if self.feature else None,
            "dur_ns": self.dur_ns,
            "origin": self.origin,
            "origin_ts_ns": self.origin_ts_ns,
        }


class Counters(dict):
    """A named-counter registry: a bump is ``counters[name] += n``.

    The registry is a ``dict`` whose missing names read as 0, so a bump
    makes no call once its name exists (the first bump of a name calls
    :meth:`__missing__`).  :meth:`scoped` gives each caller a registry
    of its own, so per-channel tallies stay per channel; the parent's
    reads (:meth:`get`, :meth:`to_dict`) sum every child in under
    ``prefix.name``, nested scopes included.  An endpoint-level registry
    thus dumps ``"stream_rx.acks_sent"`` next to
    ``"bulk_tx.rtx.retransmissions"`` with one :meth:`to_dict`.

    Reads are cold and walk the children.  A registry is never tested
    for truthiness: an empty one is falsy, as every ``dict`` is.
    """

    __slots__ = ("_children",)

    def __init__(self) -> None:
        super().__init__()
        self._children: List[Tuple[str, "Counters"]] = []

    def __missing__(self, name: str) -> int:
        return 0

    def get(self, name: str, default: int = 0) -> int:
        """``name``'s total over this registry and its scopes."""
        return self.to_dict().get(name, default)

    def scoped(self, prefix: str) -> "Counters":
        """A new registry whose names read here as ``prefix.name``."""
        child = Counters()
        self._children.append((prefix.rstrip(".") + ".", child))
        return child

    def to_dict(self) -> Dict[str, int]:
        """Every total, scopes folded in, sorted by name."""
        totals = dict(self)
        for prefix, child in self._children:
            for name, value in child.to_dict().items():
                key = prefix + name
                totals[key] = totals.get(key, 0) + value
        return dict(sorted(totals.items()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counters({self.to_dict()})"


#: Number of power-of-two histogram buckets: bucket ``i`` holds values
#: in ``[2**i, 2**(i+1))`` ns; the last bucket absorbs everything above
#: ~9 minutes.
HISTOGRAM_BUCKETS = 40


class LatencyHistogram:
    """Fixed-bucket log2-scale histogram of nanosecond durations.

    Buckets are preallocated, recording is O(1) (an ``int.bit_length``
    and a list increment), and the exact sum/min/max ride alongside.
    """

    __slots__ = ("_counts", "count", "total_ns", "min_ns", "max_ns")

    def __init__(self) -> None:
        self._counts = [0] * HISTOGRAM_BUCKETS
        self.count = 0
        self.total_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns = 0

    def record(self, ns: int) -> None:
        if ns < 0:
            raise ValueError("cannot record a negative duration")
        index = min(max(ns, 1).bit_length() - 1, HISTOGRAM_BUCKETS - 1)
        self._counts[index] += 1
        self.count += 1
        self.total_ns += ns
        if self.min_ns is None or ns < self.min_ns:
            self.min_ns = ns
        if ns > self.max_ns:
            self.max_ns = ns

    def percentile(self, q: float) -> int:
        """Approximate the ``q`` quantile (0..1) from the log buckets.

        Within the bucket that crosses the target rank, interpolates
        linearly; the result is clamped to the observed min/max so p100
        is exact and p0 never undershoots.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0
        target = q * self.count
        seen = 0.0
        for index, bucket in enumerate(self._counts):
            if not bucket:
                continue
            if seen + bucket >= target:
                lo = 1 << index
                hi = 1 << (index + 1)
                frac = (target - seen) / bucket
                value = int(lo + (hi - lo) * frac)
                return min(max(value, self.min_ns or 0), self.max_ns)
            seen += bucket
        return self.max_ns

    @property
    def p50(self) -> int:
        return self.percentile(0.50)

    @property
    def p90(self) -> int:
        return self.percentile(0.90)

    @property
    def p99(self) -> int:
        return self.percentile(0.99)

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "min_ns": self.min_ns or 0,
            "max_ns": self.max_ns,
            "p50_ns": self.p50,
            "p90_ns": self.p90,
            "p99_ns": self.p99,
            "buckets": {
                str(1 << i): c for i, c in enumerate(self._counts) if c
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LatencyHistogram(n={self.count}, p50={self.p50}ns, "
            f"p99={self.p99}ns, max={self.max_ns}ns)"
        )


#: Default ring capacity: comfortably holds the demo workloads (a
#: 64-packet transfer emits a few hundred events) with room for heavy
#: fault injection.
DEFAULT_CAPACITY = 65536


class Tracer:
    """A preallocated ring buffer of :class:`TraceEvent` records.

    When the ring wraps, the *oldest* events are overwritten and
    :attr:`overwritten` counts how many were lost — tracing never
    grows memory unboundedly and never throws away the recent past.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = True, label: str = "") -> None:
        if enabled and capacity < 1:
            raise ValueError("an enabled tracer needs a positive capacity")
        self.enabled = enabled
        self.label = label
        self._capacity = capacity
        self._ring: List[Optional[TraceEvent]] = [None] * capacity
        self._n = 0
        if not enabled:
            # Bound-method dispatch chosen once, at construction: a
            # disabled tracer's ``emit`` *is* the no-op, so a call that
            # slips past an ``enabled`` guard costs one empty call and
            # never builds an event or its keyword dict.
            self.emit = self._emit_disabled  # type: ignore[method-assign]

    # -- recording ------------------------------------------------------------

    def _emit_disabled(self, *args, **kwargs) -> None:
        return None

    def emit(self, etype: EventType, endpoint: str, channel: int = 0,
             seq: int = 0, aux: int = -1, attempt: int = 0, kind: str = "",
             feature: Optional[Feature] = None, ts_ns: int = 0,
             dur_ns: int = 0, origin: int = -1,
             origin_ts_ns: int = -1) -> None:
        """Record one event (no-op when disabled).

        Instrumentation sites should still guard with ``if
        tracer.enabled`` where building the arguments costs anything —
        but a disabled tracer's ``emit`` is rebound to a no-op at
        construction, so even unguarded calls stay near-free.

        ``ts_ns`` overrides the event timestamp (0 → stamp now): the
        endpoint uses it to make a SEND event's timestamp *identical*
        to the trace context it put on the wire, and to stamp every
        sub-frame of a batch with the container's arrival instant.
        """
        if not self.enabled:
            return
        event = TraceEvent(
            ts_ns=ts_ns or time.perf_counter_ns(), etype=etype,
            label=self.label, endpoint=endpoint, channel=channel, seq=seq,
            aux=aux, attempt=attempt, kind=kind, feature=feature,
            dur_ns=dur_ns, origin=origin, origin_ts_ns=origin_ts_ns,
        )
        self._ring[self._n % self._capacity] = event
        self._n += 1

    # -- reading --------------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Events recorded over the tracer's lifetime (incl. overwritten)."""
        return self._n

    @property
    def overwritten(self) -> int:
        """Events lost to ring wrap-around."""
        return max(0, self._n - self._capacity)

    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        if self._n <= self._capacity:
            return [e for e in self._ring[: self._n] if e is not None]
        pivot = self._n % self._capacity
        return [e for e in self._ring[pivot:] + self._ring[:pivot]
                if e is not None]

    def clear(self) -> None:
        self._ring = [None] * self._capacity
        self._n = 0

    def __len__(self) -> int:
        return min(self._n, self._capacity)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return f"Tracer({state}, recorded={self._n}, capacity={self._capacity})"


#: The permanently-disabled tracer installed wherever no tracer was
#: requested; its ``enabled`` flag is the entire fast path.
NULL_TRACER = Tracer(capacity=0, enabled=False)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


def export_jsonl(events: Iterable[TraceEvent], fh: IO[str]) -> int:
    """Write one JSON object per event line; returns the event count."""
    count = 0
    for event in events:
        fh.write(json.dumps(event.to_dict(), separators=(",", ":")) + "\n")
        count += 1
    return count


def _track_name(label: str, endpoint: str) -> str:
    return f"{label or 'run'}:{endpoint or '?'}"


def export_chrome_trace(events: Sequence[TraceEvent], fh: IO[str],
                        spans: Sequence[Mapping[str, object]] = (),
                        flows: Sequence[Mapping[str, object]] = (),
                        counters: Sequence[Mapping[str, object]] = ()) -> int:
    """Write Chrome/Perfetto ``trace_event`` JSON.

    * every :class:`TraceEvent` becomes an instant event (``"ph": "i"``)
      on the track (``tid``) of its run × endpoint;
    * each entry of ``spans`` — dicts with ``name``, ``track``,
      ``start_ns``, ``dur_ns`` and optional ``args`` (see
      :func:`repro.analysis.journey.journey_spans`) — becomes a
      complete duration event (``"ph": "X"``);
    * each entry of ``flows`` — dicts with ``name``, ``from_track``,
      ``from_ts_ns``, ``to_track``, ``to_ts_ns`` (see
      :func:`repro.analysis.journey.journey_flows`) — becomes a flow
      arrow (``"ph": "s"`` / ``"ph": "f"``) linking the sender's track
      to the receiver's, so Perfetto draws the cross-peer hop;
    * each entry of ``counters`` — dicts with ``name`` and ``points``
      (a sequence of ``(ts_ns, value)`` pairs, see
      :meth:`repro.runtime.telemetry.FlightRecorder.counter_tracks`) —
      becomes a Perfetto counter track (``"ph": "C"``);
    * tracks are named via ``thread_name`` metadata so Perfetto shows
      ``finite/cm5:src`` instead of bare thread ids.

    Timestamps are emitted in microseconds relative to the earliest
    event, as the format requires.  Returns the number of
    ``traceEvents`` written.
    """
    tids: Dict[str, int] = {}

    def tid_of(track: str) -> int:
        if track not in tids:
            tids[track] = len(tids) + 1
        return tids[track]

    starts = [e.ts_ns for e in events]
    starts += [int(s["start_ns"]) for s in spans]
    starts += [int(f["from_ts_ns"]) for f in flows]
    starts += [int(p[0]) for c in counters for p in c["points"]]  # type: ignore[index]
    base_ns = min(starts) if starts else 0

    records: List[Dict[str, object]] = []
    for event in events:
        track = _track_name(event.label, event.endpoint)
        args: Dict[str, object] = {
            "channel": event.channel, "seq": event.seq, "aux": event.aux,
        }
        if event.attempt:
            args["attempt"] = event.attempt
        if event.kind:
            args["kind"] = event.kind
        if event.feature is not None:
            args["feature"] = event.feature.value
        records.append({
            "name": event.etype.value,
            "cat": event.kind or "event",
            "ph": "i",
            "s": "t",
            "ts": (event.ts_ns - base_ns) / 1000.0,
            "pid": 1,
            "tid": tid_of(track),
            "args": args,
        })
    for span in spans:
        records.append({
            "name": str(span["name"]),
            "cat": "stage",
            "ph": "X",
            "ts": (int(span["start_ns"]) - base_ns) / 1000.0,
            "dur": int(span["dur_ns"]) / 1000.0,
            "pid": 1,
            "tid": tid_of(str(span["track"])),
            "args": dict(span.get("args", {})),  # type: ignore[arg-type]
        })
    for index, flow in enumerate(flows):
        name = str(flow["name"])
        flow_id = int(flow.get("id", index + 1))  # type: ignore[arg-type]
        records.append({
            "name": name, "cat": "journey", "ph": "s", "id": flow_id,
            "ts": (int(flow["from_ts_ns"]) - base_ns) / 1000.0,
            "pid": 1, "tid": tid_of(str(flow["from_track"])),
        })
        records.append({
            "name": name, "cat": "journey", "ph": "f", "bp": "e",
            "id": flow_id,
            "ts": (int(flow["to_ts_ns"]) - base_ns) / 1000.0,
            "pid": 1, "tid": tid_of(str(flow["to_track"])),
        })
    for counter in counters:
        name = str(counter["name"])
        for ts_ns, value in counter["points"]:  # type: ignore[union-attr]
            records.append({
                "name": name, "cat": "telemetry", "ph": "C",
                "ts": (int(ts_ns) - base_ns) / 1000.0,
                "pid": 1,
                "args": {"value": value},
            })
    metadata: List[Dict[str, object]] = [{
        "name": "process_name", "ph": "M", "pid": 1,
        "args": {"name": "repro live runtime"},
    }]
    for track, tid in sorted(tids.items(), key=lambda item: item[1]):
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": track},
        })
    payload = {
        "traceEvents": metadata + records,
        "displayTimeUnit": "ms",
    }
    json.dump(payload, fh, indent=1)
    fh.write("\n")
    return len(metadata) + len(records)
