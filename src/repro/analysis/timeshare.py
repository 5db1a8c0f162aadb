"""Time-based feature breakdowns: Tables 2-3 and Figure 6 in nanoseconds.

The simulator's :class:`~repro.analysis.breakdown.FeatureBreakdown`
tabulates *instruction counts* per feature; the live runtime measures
*wall-clock nanoseconds* per feature.  :class:`TimeBreakdown` gives the
measured spans the same table shape — rows per feature, columns for
source/destination/total, shares of the total — so the runtime's output
reads side by side with the paper's tables, and
:func:`render_mode_comparison` lines a CM-5-mode run up against a
CR-mode run the way Figure 6 lines CMAM up against the high-level
network.

This module deliberately takes plain ``{Feature: ns}`` dicts rather than
runtime objects, so the analysis layer stays independent of asyncio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.analysis.report import render_table
from repro.arch.attribution import (
    FEATURE_LABELS,
    FEATURE_ORDER,
    OVERHEAD_FEATURES,
    RUNTIME_FEATURE_ORDER,
    Feature,
)


def _us(ns: int) -> str:
    """Render nanoseconds as microseconds with one decimal."""
    return f"{ns / 1000.0:.1f}"


@dataclass
class TimeShareRow:
    """One feature row of a wall-clock breakdown."""

    feature: Feature
    src_ns: int
    dst_ns: int

    @property
    def label(self) -> str:
        return FEATURE_LABELS[self.feature]

    @property
    def total_ns(self) -> int:
        return self.src_ns + self.dst_ns


@dataclass
class TimeBreakdown:
    """A full per-feature wall-clock table for one protocol run."""

    protocol: str
    mode: str
    message_words: int
    rows: List[TimeShareRow] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        protocol: str,
        mode: str,
        message_words: int,
        src_ns: Mapping[Feature, int],
        dst_ns: Mapping[Feature, int],
    ) -> "TimeBreakdown":
        breakdown = cls(protocol=protocol, mode=mode, message_words=message_words)
        for feature in FEATURE_ORDER:
            breakdown.rows.append(
                TimeShareRow(
                    feature=feature,
                    src_ns=int(src_ns.get(feature, 0)),
                    dst_ns=int(dst_ns.get(feature, 0)),
                )
            )
        return breakdown

    # -- aggregates -----------------------------------------------------------

    @property
    def src_total_ns(self) -> int:
        return sum(row.src_ns for row in self.rows)

    @property
    def dst_total_ns(self) -> int:
        return sum(row.dst_ns for row in self.rows)

    @property
    def total_ns(self) -> int:
        return self.src_total_ns + self.dst_total_ns

    @property
    def overhead_ns(self) -> int:
        return sum(
            row.total_ns for row in self.rows if row.feature is not Feature.BASE
        )

    @property
    def overhead_fraction(self) -> float:
        total = self.total_ns
        return self.overhead_ns / total if total else 0.0

    def share(self, feature: Feature) -> float:
        total = self.total_ns
        return self.row(feature).total_ns / total if total else 0.0

    def ordering_plus_fault_share(self) -> float:
        """The Figure 6 quantity: in-order + fault-tolerance share."""
        return self.share(Feature.IN_ORDER) + self.share(Feature.FAULT_TOLERANCE)

    def row(self, feature: Feature) -> TimeShareRow:
        for candidate in self.rows:
            if candidate.feature is feature:
                return candidate
        raise KeyError(feature)

    def shares(self) -> Dict[str, float]:
        """Feature shares keyed by feature value (JSON-friendly)."""
        return {
            row.feature.value: self.share(row.feature) for row in self.rows
        }

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form (for BENCH_runtime.json)."""
        return {
            "protocol": self.protocol,
            "mode": self.mode,
            "message_words": self.message_words,
            "total_ns": self.total_ns,
            "overhead_fraction": self.overhead_fraction,
            "features": {
                row.feature.value: {
                    "src_ns": row.src_ns,
                    "dst_ns": row.dst_ns,
                    "share": self.share(row.feature),
                }
                for row in self.rows
            },
        }


@dataclass
class WireStats:
    """Datagram-level accounting for one protocol run.

    The paper argues (and "Breaking Band" re-demonstrates) that
    critical-path *message counts* — not just instructions — determine
    messaging cost, so the runtime reports them next to the time shares:
    how many data datagrams rode the wire, how many acknowledgement
    datagrams answered them, and how many retransmitted bytes the
    fault-tolerance machinery cost.  ``goback_n_equivalent_bytes`` is
    what the pre-selective-repeat strategy (resend the whole remainder
    each round) would have retransmitted for the same loss pattern — the
    baseline the selective-repeat savings are quoted against.
    """

    data_datagrams: int
    ack_datagrams: int
    retransmissions: int = 0
    retransmitted_bytes: int = 0
    goback_n_equivalent_bytes: int = 0

    @property
    def acks_per_data(self) -> float:
        if not self.data_datagrams:
            return 0.0
        return self.ack_datagrams / self.data_datagrams

    @property
    def selective_repeat_savings(self) -> float:
        """Fraction of the go-back-N retransmit bytes avoided (0 when
        nothing was retransmitted by either strategy)."""
        if not self.goback_n_equivalent_bytes:
            return 0.0
        saved = self.goback_n_equivalent_bytes - self.retransmitted_bytes
        return saved / self.goback_n_equivalent_bytes

    def to_dict(self) -> Dict[str, object]:
        return {
            "data_datagrams": self.data_datagrams,
            "ack_datagrams": self.ack_datagrams,
            "acks_per_data": self.acks_per_data,
            "retransmissions": self.retransmissions,
            "retransmitted_bytes": self.retransmitted_bytes,
            "goback_n_equivalent_bytes": self.goback_n_equivalent_bytes,
            "selective_repeat_savings": self.selective_repeat_savings,
        }


def render_wire_stats(stats: WireStats) -> str:
    """One-run wire accounting table (companion to the time tables)."""
    headers = ["Wire metric", "Value"]
    rows = [
        ["Data datagrams", str(stats.data_datagrams)],
        ["Ack datagrams", str(stats.ack_datagrams)],
        ["Acks per data datagram", f"{stats.acks_per_data:.2f}"],
        ["Retransmissions", str(stats.retransmissions)],
        ["Retransmitted bytes", str(stats.retransmitted_bytes)],
    ]
    if stats.goback_n_equivalent_bytes:
        rows.append(
            ["Go-back-N equivalent bytes", str(stats.goback_n_equivalent_bytes)]
        )
        rows.append(
            ["Selective-repeat savings",
             f"{stats.selective_repeat_savings:.0%}"]
        )
    return render_table(headers, rows)


def render_time_table(breakdown: TimeBreakdown) -> str:
    """The wall-clock analogue of ``render_cost_table`` (values in µs)."""
    headers = ["Feature", "Src (us)", "Dst (us)", "Total (us)", "Share"]
    rows = []
    total = breakdown.total_ns
    for row in breakdown.rows:
        share = row.total_ns / total if total else 0.0
        rows.append(
            [row.label, _us(row.src_ns), _us(row.dst_ns),
             _us(row.total_ns), f"{share:.0%}"]
        )
    rows.append(
        ["Total", _us(breakdown.src_total_ns), _us(breakdown.dst_total_ns),
         _us(total), "100%"]
    )
    title = (
        f"{breakdown.protocol} / {breakdown.mode} mode, "
        f"{breakdown.message_words} words (measured wall-clock)"
    )
    return title + "\n" + render_table(headers, rows)


def render_mode_comparison(cm5: TimeBreakdown, cr: TimeBreakdown) -> str:
    """Figure 6's CM-5-vs-CR comparison, re-derived from measured time."""
    headers = ["Feature", "CM-5 (us)", "CM-5 share", "CR (us)", "CR share"]
    rows = []
    for feature in FEATURE_ORDER:
        rows.append(
            [
                FEATURE_LABELS[feature],
                _us(cm5.row(feature).total_ns),
                f"{cm5.share(feature):.0%}",
                _us(cr.row(feature).total_ns),
                f"{cr.share(feature):.0%}",
            ]
        )
    rows.append(
        ["Total", _us(cm5.total_ns), "100%", _us(cr.total_ns), "100%"]
    )
    title = (
        f"{cm5.protocol}, {cm5.message_words} words — "
        "measured time by feature, CM-5 vs CR transport"
    )
    return title + "\n" + render_table(headers, rows)


def render_fabric_sweep(records: List[Mapping]) -> str:
    """Tabulate fabric load records (``LoadResult.to_record()`` dicts).

    One row per (mode, peer-count) cell: wall time, throughput,
    delivery-latency percentiles, ack traffic, and the Figure 6
    ordering+fault-tolerance share — the live analogue of sweeping
    packet count ``p`` in the Figure 8 cost model.
    """
    headers = ["Mode", "Peers", "Chans", "Msgs", "Lost", "Wall (ms)",
               "Msg/s", "p50 (us)", "p99 (us)", "Acks/data", "Ord+FT"]
    rows = []
    for record in records:
        latency = record.get("latency", {})
        rows.append([
            str(record.get("mode", "?")),
            str(record.get("peers", 0)),
            str(record.get("channels", 0)),
            str(record.get("messages_sent", 0)),
            str(record.get("lost_messages", 0)),
            f"{record.get('wall_ns', 0) / 1e6:.1f}",
            f"{record.get('throughput_msgs_per_s', 0.0):.0f}",
            _us(latency.get("p50_ns", 0)),
            _us(latency.get("p99_ns", 0)),
            f"{record.get('acks_per_data', 0.0):.2f}",
            f"{record.get('ordering_fault_share', 0.0):.0%}",
        ])
    title = "fabric load sweep — throughput, delivery latency, overhead share"
    return title + "\n" + render_table(headers, rows)


def render_fabric_features(records: List[Mapping]) -> str:
    """Per-feature timeshare columns for every fabric sweep cell.

    Uses the runtime feature order — the paper's four buckets plus the
    runtime-only flow-control bucket, which the paper folds into buffer
    management but the live stack measures separately.
    """
    headers = (["Mode", "Peers"]
               + [FEATURE_LABELS[f] for f in RUNTIME_FEATURE_ORDER])
    rows = []
    for record in records:
        features = record.get("features", {})
        rows.append(
            [str(record.get("mode", "?")), str(record.get("peers", 0))]
            + [f"{features.get(f.value, {}).get('share', 0.0):.0%}"
               for f in RUNTIME_FEATURE_ORDER]
        )
    title = "fabric load sweep — per-feature wall-clock timeshare"
    return title + "\n" + render_table(headers, rows)


def render_overload_curve(records: List[Mapping]) -> str:
    """Throughput-degradation table for an overload sweep.

    One row per (mode, overload-factor) cell of
    :func:`repro.runtime.loadgen.sweep_overload`: offered vs delivered
    traffic, shed share (HARD backpressure), SOFT pauses, throughput and
    its retention against the same mode's 1x baseline, the flow-control
    timeshare, and the peak reorder-buffer occupancy against its bound —
    the overload-survival story in one table.
    """
    base_thr: Dict[str, float] = {}
    for record in records:
        if float(record.get("overload", 1.0)) == 1.0:
            base_thr[str(record.get("mode", "?"))] = float(
                record.get("throughput_msgs_per_s", 0.0))
    headers = ["Mode", "Load", "Offered", "Sent", "Shed", "Soft",
               "Msg/s", "Retained", "Flow share", "Peak buf"]
    rows = []
    for record in records:
        mode = str(record.get("mode", "?"))
        thr = float(record.get("throughput_msgs_per_s", 0.0))
        base = base_thr.get(mode, 0.0)
        peaks = record.get("peaks", {})
        rows.append([
            mode,
            f"{float(record.get('overload', 1.0)):g}x",
            str(record.get("messages_offered", 0)),
            str(record.get("messages_sent", 0)),
            f"{record.get('messages_shed', 0)} "
            f"({record.get('shed_share', 0.0):.0%})",
            str(record.get("soft_delays", 0)),
            f"{thr:.0f}",
            f"{thr / base:.0%}" if base else "-",
            f"{record.get('flow_control_share', 0.0):.0%}",
            f"{peaks.get('buffered_bytes', 0)}/"
            f"{peaks.get('window_bytes', 0)}B",
        ])
    title = ("overload sweep — shed share, throughput retention, "
             "flow-control timeshare")
    return title + "\n" + render_table(headers, rows)


def render_chaos_table(records: List[Mapping]) -> str:
    """Tabulate chaos scenario records (``ChaosResult.to_record()``
    from :func:`repro.runtime.loadgen.run_load` with a scenario).

    One row per (scenario, mode) run: the end-to-end audit verdict,
    broken-lane count, failure-detection latency, epoch renegotiations,
    and the fault-tolerance timeshare — what the messaging layer's
    fault machinery *costs* while actual faults exercise it.
    """
    headers = ["Scenario", "Mode", "Delivered", "Audit", "Broken",
               "Detect (ms)", "Recov", "FT share"]
    rows = []
    for record in records:
        audit = record.get("audit", {})
        violations = audit.get("violations", 0)
        detect = record.get("detection_latency_s")
        rows.append([
            str(record.get("scenario", "?")),
            str(record.get("mode", "?")),
            f"{audit.get('delivered', 0)}/{audit.get('offered', 0)}",
            "clean" if violations == 0 else f"{violations} VIOLATIONS",
            str(len(record.get("broken_lanes", []))),
            f"{detect * 1e3:.0f}" if detect is not None else "-",
            str(record.get("recoveries", 0)),
            f"{record.get('fault_tolerance_share', 0.0):.0%}",
        ])
    title = ("chaos scenarios — exactly-once audit, detection latency, "
             "fault-tolerance timeshare")
    return title + "\n" + render_table(headers, rows)


def render_chaos_features(records: List[Mapping]) -> str:
    """Per-feature timeshare columns for every chaos scenario run."""
    headers = (["Scenario", "Mode"]
               + [FEATURE_LABELS[f] for f in RUNTIME_FEATURE_ORDER])
    rows = []
    for record in records:
        features = record.get("features", {})
        rows.append(
            [str(record.get("scenario", "?")), str(record.get("mode", "?"))]
            + [f"{features.get(f.value, {}).get('share', 0.0):.0%}"
               for f in RUNTIME_FEATURE_ORDER]
        )
    title = "chaos scenarios — per-feature wall-clock timeshare"
    return title + "\n" + render_table(headers, rows)


def fabric_collapse(records: List[Mapping]) -> Dict[int, Dict[str, float]]:
    """The Figure 6 collapse, per peer count, from fabric load records.

    Groups the records by peer count and compares the CM-5-mode
    ordering+fault share against the CR-mode share.  Cells missing
    either mode are skipped.
    """
    by_peers: Dict[int, Dict[str, float]] = {}
    for record in records:
        peers = int(record.get("peers", 0))
        mode = record.get("mode")
        if mode not in ("cm5", "cr"):
            continue
        by_peers.setdefault(peers, {})[f"{mode}_ordering_fault_share"] = (
            float(record.get("ordering_fault_share", 0.0))
        )
    collapse: Dict[int, Dict[str, float]] = {}
    for peers, shares in sorted(by_peers.items()):
        if ("cm5_ordering_fault_share" not in shares
                or "cr_ordering_fault_share" not in shares):
            continue
        cm5_share = shares["cm5_ordering_fault_share"]
        cr_share = shares["cr_ordering_fault_share"]
        collapse[peers] = {
            "cm5_ordering_fault_share": cm5_share,
            "cr_ordering_fault_share": cr_share,
            "collapse_ratio": (cr_share / cm5_share) if cm5_share else 0.0,
        }
    return collapse


def overhead_collapse(cm5: TimeBreakdown, cr: TimeBreakdown) -> Dict[str, float]:
    """Quantify the Figure 6 direction between two runs of one protocol.

    Returns the ordering+fault-tolerance share under each mode and their
    ratio; the paper's finding is reproduced when the CR share collapses
    (ratio well under 1).
    """
    cm5_share = cm5.ordering_plus_fault_share()
    cr_share = cr.ordering_plus_fault_share()
    return {
        "cm5_ordering_fault_share": cm5_share,
        "cr_ordering_fault_share": cr_share,
        "collapse_ratio": (cr_share / cm5_share) if cm5_share else 0.0,
    }
