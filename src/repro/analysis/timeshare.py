"""Time-based feature breakdowns: Tables 2-3 and Figure 6 in nanoseconds.

The simulator's :class:`~repro.analysis.breakdown.FeatureBreakdown`
tabulates *instruction counts* per feature; the live runtime measures
*wall-clock nanoseconds* per feature.  :func:`render_time_table` gives a
measured run the same table shape — rows per feature, a column per peer
(source and destination for a protocol cell), the total and its share —
so the runtime's output reads side by side with the paper's tables, and
:func:`render_mode_comparison` lines a CM-5-mode run up against a
CR-mode run the way Figure 6 lines CMAM up against the high-level
network.

This module deliberately takes plain records (``LoadResult.to_record()``
dicts) rather than runtime objects, so the analysis layer stays
independent of asyncio.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.analysis.report import render_table
from repro.arch.attribution import (
    FEATURE_LABELS,
    RUNTIME_FEATURE_ORDER,
    Feature,
)


def _us(ns: int) -> str:
    """Render nanoseconds as microseconds with one decimal."""
    return f"{ns / 1000.0:.1f}"


def _feature_ns(features: Mapping, feature: Feature) -> int:
    return features.get(feature.value, {}).get("ns", 0)


def _feature_share(features: Mapping, feature: Feature) -> float:
    return features.get(feature.value, {}).get("share", 0.0)


def render_time_table(record: Mapping) -> str:
    """The wall-clock analogue of ``render_cost_table`` for one load
    record (``LoadResult.to_record()``), values in µs: a column per
    peer — a protocol cell's source and destination — then the total
    and its share."""
    peers = record.get("peer_features", {})
    features = record.get("features", {})
    headers = (["Feature"] + [f"{name} (us)" for name in peers]
               + ["Total (us)", "Share"])
    rows = [
        [FEATURE_LABELS[feature]]
        + [_us(by_feature.get(feature.value, 0)) for by_feature in peers.values()]
        + [_us(_feature_ns(features, feature)),
           f"{_feature_share(features, feature):.0%}"]
        for feature in Feature
    ]
    rows.append(
        ["Total"] + [_us(sum(by_feature.values())) for by_feature in peers.values()]
        + [_us(sum(_feature_ns(features, f) for f in Feature)), "100%"])
    title = (
        f"{record.get('protocol')} / {record.get('mode')} mode, "
        f"{record.get('messages_sent', 0)} x {record.get('message_words', 0)} "
        "words (measured wall-clock)"
    )
    return title + "\n" + render_table(headers, rows)


def render_mode_comparison(cm5: Mapping, cr: Mapping) -> str:
    """Figure 6's CM-5-vs-CR comparison, re-derived from measured time:
    two load records of one protocol, one per mode."""
    headers = ["Feature", "CM-5 (us)", "CM-5 share", "CR (us)", "CR share"]
    cm5_features = cm5.get("features", {})
    cr_features = cr.get("features", {})
    rows = [
        [FEATURE_LABELS[feature],
         _us(_feature_ns(cm5_features, feature)),
         f"{_feature_share(cm5_features, feature):.0%}",
         _us(_feature_ns(cr_features, feature)),
         f"{_feature_share(cr_features, feature):.0%}"]
        for feature in Feature
    ]
    rows.append(
        ["Total", _us(sum(_feature_ns(cm5_features, f) for f in Feature)),
         "100%", _us(sum(_feature_ns(cr_features, f) for f in Feature)),
         "100%"])
    title = (
        f"{cm5.get('protocol')}, {cm5.get('messages_sent', 0)} x "
        f"{cm5.get('message_words', 0)} words — "
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


def fabric_collapse(
        records: List[Mapping]) -> Dict[Tuple[str, int], Dict[str, float]]:
    """The Figure 6 collapse, per protocol and peer count, from load
    records.

    Groups the records by ``(protocol, peers)`` and compares the
    CM-5-mode ordering+fault share against the CR-mode share.  Cells
    missing either mode are skipped.
    """
    by_cell: Dict[Tuple[str, int], Dict[str, float]] = {}
    for record in records:
        mode = record.get("mode")
        if mode not in ("cm5", "cr"):
            continue
        cell = (str(record.get("protocol")), int(record.get("peers", 0)))
        by_cell.setdefault(cell, {})[f"{mode}_ordering_fault_share"] = (
            float(record.get("ordering_fault_share", 0.0))
        )
    collapse: Dict[Tuple[str, int], Dict[str, float]] = {}
    for cell, shares in sorted(by_cell.items()):
        if ("cm5_ordering_fault_share" not in shares
                or "cr_ordering_fault_share" not in shares):
            continue
        cm5_share = shares["cm5_ordering_fault_share"]
        cr_share = shares["cr_ordering_fault_share"]
        collapse[cell] = {
            "cm5_ordering_fault_share": cm5_share,
            "cr_ordering_fault_share": cr_share,
            "collapse_ratio": (cr_share / cm5_share) if cm5_share else 0.0,
        }
    return collapse
