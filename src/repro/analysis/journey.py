"""Cross-peer message journeys: end-to-end critical-path decomposition.

This module is the one reconstruction of trace events into per-message
stories.  It consumes a merged trace-event stream (the fabric shares one
tracer ring, so the merge is free; independently-traced endpoints can
simply concatenate their ``events()``), joins each receiver-side
``RECV`` to the exact sender-side ``SEND`` that produced it via the
wire-propagated trace context (``origin`` endpoint id +
``origin_ts_ns``, see :func:`repro.runtime.frames.trace_context_words`),
and decomposes the send→deliver interval into stages that telescope
exactly:

* **queue** — ``send_frame``/``post_frame`` accepted the frame until
  the flush tick began (sender-side queueing);
* **flush** — time inside the flush tick before this frame's datagram
  hit the wire (coalescing + earlier datagrams of the same tick);
* **wire**  — wire departure to datagram arrival at the receiver;
* **decode** — this frame's share of the receive-side decode;
* **park**  — reorder-buffer dwell (zero when delivered in order);
* **deliver** — post-decode receive-path work until the payload was
  handed to the delivery callback, excluding the park dwell.

Because every stage is a difference of event timestamps along one
chain, ``sum(stages) == deliver_ns - send_ns`` *by construction*; the
CLI still asserts the 10% agreement as an instrumentation self-check.
The ack return leg (deliver → covering-ack arrival back at the sender)
is reported separately when acks flow.

Every traced run reads one ``perf_counter_ns`` in one process (the
loopback fabric and the UDP pair alike), so stage arithmetic uses the
raw timestamps.

Matching rules: a journey is keyed by ``(label, channel, seq,
offset)``, where ``offset`` is the DATA frame's ``aux`` word (the bulk
data offset, zero otherwise).  ``RETRANSMIT``/``GIVE_UP`` events join a
journey only when their ``kind`` is ``""`` or ``"data"``; ``"alloc"``
and ``"dealloc"`` retransmissions are control-plane traffic.  Acks
cover by kind: ``ACK`` its exact ``seq``, ``CUM_ACK`` every ``seq``
below its own, and a bulk ``FINAL_ACK`` every offset below its ``aux``
high-water mark.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, IO, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.report import render_table
from repro.runtime.tracing import EventType, LatencyHistogram, TraceEvent

#: Stage names in path order; every journey's ``stages`` dict has
#: exactly these keys.
STAGE_ORDER = ("queue", "flush", "wire", "decode", "park", "deliver")

#: Ack kinds that can close a journey's return leg.
_ACK_KINDS = ("ACK", "CUM_ACK", "FINAL_ACK")

#: RETRANSMIT/GIVE_UP kinds that belong to a data message (the rest,
#: "alloc" and "dealloc", are control-plane).
_DATA_RTX_KINDS = ("", "data")


def origin_id(endpoint_name: str) -> int:
    """The 32-bit wire id an endpoint stamps into its trace context."""
    return zlib.crc32(endpoint_name.encode("utf-8", "replace"))


@dataclass
class Journey:
    """One message's reconstructed path from ``send()`` to ``deliver()``."""

    label: str
    channel: int
    seq: int
    offset: int                       # DATA aux word (bulk data offset)
    src: str = ""
    dst: str = ""
    send_ns: Optional[int] = None     # SEND event (== wire trace context)
    deliver_ns: Optional[int] = None  # DELIVER event
    stages: Dict[str, int] = field(default_factory=dict)
    ack_return_ns: Optional[int] = None  # deliver -> covering ack at src
    retransmits: int = 0
    gave_up: bool = False             # retry budget ran out (GIVE_UP)
    context_matched: bool = False     # RECV carried this SEND's context

    @property
    def key(self) -> Tuple[str, int, int, int]:
        return (self.label, self.channel, self.seq, self.offset)

    @property
    def complete(self) -> bool:
        """Every stage reconstructed: the acceptance bar for journeys."""
        return all(name in self.stages for name in STAGE_ORDER)

    @property
    def total_ns(self) -> Optional[int]:
        """Measured end-to-end latency (send to deliver, one clock)."""
        if self.send_ns is None or self.deliver_ns is None:
            return None
        return self.deliver_ns - self.send_ns

    @property
    def stage_sum_ns(self) -> int:
        return sum(self.stages.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "channel": self.channel,
            "seq": self.seq,
            "offset": self.offset,
            "src": self.src,
            "dst": self.dst,
            "send_ts_ns": self.send_ns,
            "total_ns": self.total_ns,
            "stages": dict(self.stages),
            "ack_return_ns": self.ack_return_ns,
            "retransmits": self.retransmits,
            "gave_up": self.gave_up,
            "complete": self.complete,
            "context_matched": self.context_matched,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "complete" if self.complete else "partial"
        return (
            f"Journey({self.label} ch{self.channel} seq={self.seq}"
            f"+{self.offset} {self.src}->{self.dst}, {state})"
        )


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def _ack_covers(event: TraceEvent, journey: Journey) -> bool:
    if event.kind == "ACK":
        return event.seq == journey.seq
    if event.kind == "CUM_ACK":
        return event.seq > journey.seq
    if event.kind == "FINAL_ACK":
        return event.seq == journey.seq and event.aux > journey.offset
    return False


def reconstruct_journeys(events: Sequence[TraceEvent]) -> List[Journey]:
    """Stitch a merged event stream into cross-peer journeys.

    Returns one :class:`Journey` per data message key (label, channel,
    seq, offset), ordered by send time, complete or not.  The
    receiver-side chain (RECV/PARK/UNPARK/DELIVER) is anchored to the
    sender-side chain (SEND/FLUSH) through the wire trace context; a
    key whose RECV carries no context (or a foreign one — e.g. the ring
    overwrote the SEND) still yields a journey, flagged
    ``context_matched=False``.
    """
    Key = Tuple[str, int, int, int]
    sends: Dict[Key, TraceEvent] = {}
    flushes: Dict[Key, TraceEvent] = {}
    recvs: Dict[Key, TraceEvent] = {}
    parks: Dict[Key, TraceEvent] = {}
    unparks: Dict[Key, TraceEvent] = {}
    delivers: Dict[Key, TraceEvent] = {}
    retransmits: Dict[Key, int] = {}
    gave_up: Set[Key] = set()

    ordered = sorted(events, key=lambda e: e.ts_ns)
    for event in ordered:
        etype = event.etype
        key = (event.label, event.channel, event.seq, max(event.aux, 0))
        if etype is EventType.SEND and event.kind == "DATA":
            sends.setdefault(key, event)
        elif etype is EventType.FLUSH and event.kind == "DATA":
            flushes.setdefault(key, event)
        elif etype is EventType.RECV and event.kind == "DATA":
            recvs.setdefault(key, event)
        elif etype is EventType.PARK:
            parks.setdefault(key, event)
        elif etype is EventType.UNPARK:
            unparks.setdefault(key, event)
        elif etype is EventType.DELIVER:
            delivers.setdefault(key, event)
        elif etype is EventType.RETRANSMIT and event.kind in _DATA_RTX_KINDS:
            retransmits[key] = retransmits.get(key, 0) + 1
        elif etype is EventType.GIVE_UP and event.kind in _DATA_RTX_KINDS:
            gave_up.add(key)

    journeys: List[Journey] = []
    for key in set(sends) | set(delivers):
        label, channel, seq, offset = key
        journey = Journey(label=label, channel=channel, seq=seq,
                          offset=offset, retransmits=retransmits.get(key, 0),
                          gave_up=key in gave_up)
        send = sends.get(key)
        flush = flushes.get(key)
        recv = recvs.get(key)
        park = parks.get(key)
        unpark = unparks.get(key)
        deliver = delivers.get(key)
        if send is not None:
            journey.src = send.endpoint
            journey.send_ns = send.ts_ns
        if recv is not None:
            journey.dst = recv.endpoint
        elif deliver is not None:
            journey.dst = deliver.endpoint
        if deliver is not None:
            journey.deliver_ns = deliver.ts_ns
        if (send is not None and recv is not None
                and recv.origin_ts_ns == send.ts_ns
                and recv.origin == origin_id(send.endpoint)):
            journey.context_matched = True
        stages = journey.stages
        if send is not None and flush is not None:
            stages["queue"] = (flush.ts_ns - flush.dur_ns) - send.ts_ns
            stages["flush"] = flush.dur_ns
        if flush is not None and recv is not None:
            stages["wire"] = recv.ts_ns - flush.ts_ns
            stages["decode"] = recv.dur_ns
        if recv is not None and deliver is not None:
            park_ns = 0
            if park is not None and unpark is not None \
                    and unpark.ts_ns >= park.ts_ns:
                park_ns = unpark.ts_ns - park.ts_ns
            stages["park"] = park_ns
            stages["deliver"] = (deliver.ts_ns - recv.ts_ns
                                 - recv.dur_ns - park_ns)
        journeys.append(journey)

    # Ack return leg: first covering ACK_RX at the source after deliver.
    ack_rx = [e for e in ordered
              if e.etype is EventType.ACK_RX and e.kind in _ACK_KINDS]
    for journey in journeys:
        if journey.deliver_ns is None or not journey.src:
            continue
        for event in ack_rx:
            if (event.label == journey.label
                    and event.channel == journey.channel
                    and event.endpoint == journey.src
                    and _ack_covers(event, journey)
                    and event.ts_ns >= journey.deliver_ns):
                journey.ack_return_ns = event.ts_ns - journey.deliver_ns
                break

    journeys.sort(key=lambda j: (j.send_ns if j.send_ns is not None
                                 else 1 << 62, j.key))
    return journeys


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


@dataclass
class JourneyStats:
    """Fabric-wide aggregate over one reconstruction."""

    journeys: int = 0
    complete: int = 0
    delivered: int = 0           # keys that saw a DELIVER event
    context_matched: int = 0
    retransmitted: int = 0
    stage_hists: Dict[str, LatencyHistogram] = field(
        default_factory=lambda: {name: LatencyHistogram()
                                 for name in STAGE_ORDER})
    total: LatencyHistogram = field(default_factory=LatencyHistogram)
    ack_return: LatencyHistogram = field(default_factory=LatencyHistogram)
    worst_stage_error: float = 0.0   # max |stage_sum - total| / total

    @property
    def coverage(self) -> float:
        """Complete journeys over delivered messages — the >=95% bar."""
        if not self.delivered:
            return 0.0
        return self.complete / self.delivered

    def to_dict(self) -> Dict[str, object]:
        return {
            "journeys": self.journeys,
            "complete": self.complete,
            "delivered": self.delivered,
            "coverage": round(self.coverage, 4),
            "context_matched": self.context_matched,
            "retransmitted": self.retransmitted,
            "worst_stage_error": round(self.worst_stage_error, 4),
            "total": self.total.to_dict(),
            "ack_return": self.ack_return.to_dict(),
            "stages": {name: hist.to_dict()
                       for name, hist in self.stage_hists.items()},
        }


def journey_stats(journeys: Sequence[Journey]) -> JourneyStats:
    """Aggregate journeys into per-stage distributions + coverage."""
    stats = JourneyStats()
    for journey in journeys:
        stats.journeys += 1
        if journey.deliver_ns is not None:
            stats.delivered += 1
        if journey.context_matched:
            stats.context_matched += 1
        if journey.retransmits:
            stats.retransmitted += 1
        if not journey.complete:
            continue
        stats.complete += 1
        for name in STAGE_ORDER:
            stats.stage_hists[name].record(max(journey.stages[name], 0))
        total = journey.total_ns or 0
        if total > 0:
            stats.total.record(total)
            error = abs(journey.stage_sum_ns - total) / total
            if error > stats.worst_stage_error:
                stats.worst_stage_error = error
        if journey.ack_return_ns is not None and journey.ack_return_ns >= 0:
            stats.ack_return.record(journey.ack_return_ns)
    return stats


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _us(ns: Optional[int]) -> str:
    if ns is None:
        return "-"
    return f"{ns / 1e3:.1f}"


def render_journey_table(journeys: Sequence[Journey],
                         limit: int = 20) -> str:
    """Per-message table: one row per journey, one column per stage."""
    headers = ["Message", "path", "queue us", "flush us", "wire us",
               "decode us", "park us", "deliver us", "total us",
               "ack us", "rtx"]
    rows: List[List[str]] = []
    for journey in journeys[:limit]:
        stage = journey.stages.get
        rows.append([
            f"ch{journey.channel} {journey.seq}+{journey.offset}",
            f"{journey.src or '?'}->{journey.dst or '?'}",
            _us(stage("queue")), _us(stage("flush")), _us(stage("wire")),
            _us(stage("decode")), _us(stage("park")), _us(stage("deliver")),
            _us(journey.total_ns),
            _us(journey.ack_return_ns),
            str(journey.retransmits),
        ])
    table = render_table(headers, rows)
    if len(journeys) > limit:
        table += f"\n({len(journeys) - limit} more journeys not shown)"
    return table


def render_stage_summary(stats: JourneyStats) -> str:
    """Where does the full-path time go?  One row per stage."""
    headers = ["Stage", "n", "share %", "p50 us", "p90 us", "p99 us",
               "max us"]
    grand_total = sum(h.total_ns for h in stats.stage_hists.values()) or 1
    rows: List[List[str]] = []
    for name in STAGE_ORDER:
        hist = stats.stage_hists[name]
        rows.append([
            name, str(hist.count),
            f"{100.0 * hist.total_ns / grand_total:.1f}",
            _us(hist.p50), _us(hist.p90), _us(hist.p99),
            _us(hist.max_ns if hist.count else None),
        ])
    rows.append([
        "end-to-end", str(stats.total.count), "100.0",
        _us(stats.total.p50), _us(stats.total.p90), _us(stats.total.p99),
        _us(stats.total.max_ns if stats.total.count else None),
    ])
    if stats.ack_return.count:
        rows.append([
            "ack return", str(stats.ack_return.count), "-",
            _us(stats.ack_return.p50), _us(stats.ack_return.p90),
            _us(stats.ack_return.p99), _us(stats.ack_return.max_ns),
        ])
    title = (
        f"cross-peer journeys: {stats.complete}/{stats.delivered} delivered "
        f"messages reconstructed complete "
        f"({100.0 * stats.coverage:.1f}% coverage), "
        f"{stats.retransmitted} retransmitted, worst stage-sum error "
        f"{100.0 * stats.worst_stage_error:.2f}%"
    )
    return title + "\n" + render_table(headers, rows)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def journey_spans(journeys: Sequence[Journey]) -> List[Dict[str, object]]:
    """Stage duration spans for
    :func:`repro.runtime.tracing.export_chrome_trace`.

    Queue and flush run forward from the SEND on the sender's track;
    decode, park and deliver run back from the DELIVER on the
    receiver's track, so each :func:`journey_flows` arrow finishes at
    the end of its message's deliver span.  Empty stages get no span.
    """
    spans: List[Dict[str, object]] = []

    def add(journey: Journey, stage: str, track: str, start: int) -> None:
        dur = journey.stages[stage]
        if dur > 0:
            spans.append({
                "name": f"{stage} ch{journey.channel} seq "
                        f"{journey.seq}+{journey.offset}",
                "track": f"{journey.label}:{track}",
                "start_ns": start, "dur_ns": dur,
                "args": {"channel": journey.channel, "seq": journey.seq,
                         "offset": journey.offset,
                         "retransmits": journey.retransmits},
            })

    for journey in journeys:
        stages = journey.stages
        if "queue" in stages:  # SEND and FLUSH both seen
            add(journey, "queue", journey.src, journey.send_ns)
            add(journey, "flush", journey.src,
                journey.send_ns + stages["queue"])
        if "deliver" in stages:  # RECV and DELIVER both seen
            end = journey.deliver_ns
            for stage in ("deliver", "park", "decode"):
                if stage not in stages:
                    break
                end -= stages[stage]
                add(journey, stage, journey.dst, end)
    return spans


def journey_flows(journeys: Sequence[Journey],
                  limit: int = 512) -> List[Dict[str, object]]:
    """Perfetto flow arrows (sender SEND -> receiver DELIVER) for
    :func:`repro.runtime.tracing.export_chrome_trace`.

    Timestamps are the *raw* event stamps (same timebase the instant
    events are exported in), so the arrows land on the right pixels.
    """
    flows: List[Dict[str, object]] = []
    for index, journey in enumerate(journeys):
        if journey.send_ns is None or journey.deliver_ns is None:
            continue
        if len(flows) >= limit:
            break
        flows.append({
            "id": index + 1,
            "name": f"ch{journey.channel} seq {journey.seq}+{journey.offset}",
            "from_track": f"{journey.label}:{journey.src}",
            "from_ts_ns": journey.send_ns,
            "to_track": f"{journey.label}:{journey.dst}",
            "to_ts_ns": journey.deliver_ns,
        })
    return flows


def export_journeys_jsonl(journeys: Iterable[Journey], fh: IO[str]) -> int:
    """One JSON object per journey line; returns the journey count."""
    count = 0
    for journey in journeys:
        fh.write(json.dumps(journey.to_dict(), separators=(",", ":")) + "\n")
        count += 1
    return count
