"""Timelines: what the fabric was doing over time, read off its trace.

Per endpoint and :data:`BIN_NS` bin: ``tx`` is ``SEND`` + ``ACK_TX`` +
``CREDIT_TX`` events per second (one per ``frames_sent`` bump), ``rx``
is ``RECV`` + ``ACK_RX`` + ``CREDIT_RX`` per second (one per
``frames_received`` bump), and ``pending`` is frames enqueued (the
``tx`` events plus ``RETRANSMIT``s, which queue a frame again) minus
frames ``FLUSH``ed, restarted at zero by each new run label (sweeps
reuse peer names).  Marks are ``MARK`` events (text in ``kind``) plus a
``"<label> start"`` wherever the run label changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, IO, List, Sequence, Tuple

from repro.analysis.asciiplot import plot_series
from repro.runtime.tracing import EventType, TraceEvent

#: Bin width: fine enough to see a 100 ms partition.
BIN_NS = 10_000_000

_TX = frozenset((EventType.SEND, EventType.ACK_TX, EventType.CREDIT_TX))
_RX = frozenset((EventType.RECV, EventType.ACK_RX, EventType.CREDIT_RX))


@dataclass(frozen=True)
class Timeline:
    """One ``(bin start ts_ns, {"<endpoint>/<metric>": value})`` sample
    per bin, empty bins included; marks as ``(ts_ns, text)``; the events
    the tracer's ring lost before they were read."""

    samples: List[Tuple[int, Dict[str, float]]]
    marks: List[Tuple[int, str]]
    overwritten: int = 0

    def aggregated_series(self) -> Dict[str, List[Tuple[float, float]]]:
        """``(seconds since start, value)`` points summed across
        endpoints by metric suffix (``p000/tx + p001/tx + ... -> tx``)."""
        out: Dict[str, List[Tuple[float, float]]] = {}
        for ts, values in self.samples:
            sums: Dict[str, float] = {}
            for name, value in values.items():
                suffix = name.rsplit("/", 1)[-1]
                sums[suffix] = sums.get(suffix, 0.0) + value
            t = (ts - self.samples[0][0]) / 1e9
            for suffix, value in sums.items():
                out.setdefault(suffix, []).append((t, value))
        return out

    def export_jsonl(self, fh: IO[str]) -> int:
        """One JSON object per line: samples (``series``) and marks
        (``mark``) in time order, a mark first on a tie.  Returns the
        line count."""
        records = [(ts, {"ts_ns": ts, "mark": text})
                   for ts, text in self.marks]
        records += [(ts, {"ts_ns": ts, "series": values})
                    for ts, values in self.samples]
        records.sort(key=lambda item: item[0])
        for _ts, record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        return len(records)

    def counter_tracks(self) -> List[Dict[str, object]]:
        """Perfetto counter tracks for ``export_chrome_trace``."""
        tracks: Dict[str, List[Tuple[int, float]]] = {}
        for ts, values in self.samples:
            for name, value in values.items():
                tracks.setdefault(name, []).append((ts, value))
        return [{"name": name, "points": points}
                for name, points in sorted(tracks.items())]

    def render(self) -> str:
        """ASCII timeline: fabric-wide curves plus the mark log."""
        wrap = (f" ({self.overwritten} events overwritten by ring wrap)"
                if self.overwritten else "")
        series = {name: points
                  for name, points in self.aggregated_series().items()
                  if any(value for _t, value in points)}
        if not series:
            return f"timeline: no samples{wrap}"
        lines = [
            f"timeline: {len(self.samples)} samples @ "
            f"{BIN_NS // 1_000_000}ms{wrap}",
            plot_series(series, width=64, height=12, x_label="s",
                        y_label="rate/occupancy", y_format="{:.0f}"),
        ]
        if self.marks:
            lines.append("marks:")
            lines += [f"  {(ts - self.samples[0][0]) / 1e9:8.3f}s  {text}"
                      for ts, text in self.marks]
        return "\n".join(lines)


def build_timeline(events: Sequence[TraceEvent],
                   overwritten: int = 0) -> Timeline:
    """Bin ``events`` (in any order) into a :class:`Timeline`."""
    ordered = sorted(events, key=lambda e: e.ts_ns)
    endpoints = sorted({e.endpoint for e in ordered if e.etype in _TX
                        or e.etype in _RX or e.etype is EventType.FLUSH})
    samples: List[Tuple[int, Dict[str, float]]] = []
    marks: List[Tuple[int, str]] = []
    base = ordered[0].ts_ns if ordered else 0
    pending = dict.fromkeys(endpoints, 0)
    tx: Dict[str, int] = {}
    rx: Dict[str, int] = {}
    label = None

    def close_bins(upto: int) -> None:
        # Emit every bin before ``upto``, empty ones too.
        while len(samples) < upto:
            values: Dict[str, float] = {}
            for name in endpoints:
                values[f"{name}/tx"] = tx.get(name, 0) * 1e9 / BIN_NS
                values[f"{name}/rx"] = rx.get(name, 0) * 1e9 / BIN_NS
                values[f"{name}/pending"] = float(pending[name])
            samples.append((base + len(samples) * BIN_NS, values))
            tx.clear()
            rx.clear()

    for event in ordered:
        close_bins((event.ts_ns - base) // BIN_NS)
        if event.label != label:
            label = event.label
            marks.append((event.ts_ns, f"{label or 'run'} start"))
            pending.update((name, 0) for name in endpoints)
        if event.etype in _TX:
            tx[event.endpoint] = tx.get(event.endpoint, 0) + 1
            pending[event.endpoint] += 1
        elif event.etype in _RX:
            rx[event.endpoint] = rx.get(event.endpoint, 0) + 1
        elif event.etype is EventType.RETRANSMIT:
            pending[event.endpoint] += 1
        elif event.etype is EventType.FLUSH:
            pending[event.endpoint] -= 1
        elif event.etype is EventType.MARK:
            marks.append((event.ts_ns, event.kind))
    if ordered:
        close_bins((ordered[-1].ts_ns - base) // BIN_NS + 1)
    return Timeline(samples, marks, overwritten)
