"""Acceptance gates for the live runtime's bench rows, each defined once.

The CLI (``python -m repro runtime ...``), the bench test
(``benchmarks/test_bench_runtime.py``) and the regression checker
(``benchmarks/check_runtime_regression.py``) all judge their rows with
these functions, so every absolute pass/fail threshold lives here and
nowhere else.  Each family function takes that family's rows — cell key
to the record dict that lands in ``BENCH_runtime.json`` — and returns a
list of problem strings, empty when every row passes.  A cross-row check
(a collapse, a retention ratio, a flatness ratio) runs wherever the
given rows contain both of its ends; :func:`check_payload` also demands
every cell the bench writes.  Checks against a committed baseline stay
in the checker, the only caller that has one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.analysis.timeshare import fabric_collapse
from repro.runtime.collectives import COLLECTIVE_OPS

Record = Mapping[str, Any]
Rows = Mapping[str, Record]

#: Figure 6: the CR ordering+fault share must fall below this fraction
#: of the CM-5 share.  CR must in fact run none of that machinery.
COLLAPSE_RATIO = 0.5
#: Cumulative + delayed acks keep ack datagrams per data datagram below
#: this (the single-packet protocol acks every packet by design).
ACKS_PER_DATA_BOUND = 0.5
#: Selective repeat must avoid at least this share of the bytes a
#: go-back-N round would have resent.
MIN_SELECTIVE_REPEAT_SAVINGS = 0.5
#: Throughput at the highest offered load keeps this share of 1x.
MIN_OVERLOAD_RETAINED = 0.5
#: SWIM's per-peer control rate at the largest fabric may be at most
#: this multiple of the rate at the smallest (pairwise beacons grow O(N)).
MAX_MEMBER_RATE_GROWTH = 1.5
#: Sanity ceiling, in percent, for tracing-on and journey-on overhead.
TRACE_ON_CEILING_PCT = 150.0
#: Share of delivered messages that must rebuild into complete journeys.
MIN_JOURNEY_COVERAGE = 0.95
#: Worst allowed |journey stage sum - end-to-end latency| fraction.
STAGE_TOLERANCE = 0.10
#: ``cost/*`` structural orderings, (cheaper term, dearer term): each
#: disabled fast path undercuts its enabled twin, and the batched send
#: path undercuts the task-per-frame design.
COST_ORDERINGS = (
    ("span_disabled", "span_enter_exit"),
    ("tracer_emit_disabled", "tracer_emit_enabled"),
    ("send_path_batched", "send_path_task_per_frame"),
    ("batch_encode_per_frame", "frame_encode"),
)

MODES = ("cm5", "cr")


def ordering_fault_share(record: Record) -> float:
    """The Figure 6 quantity of a ``protocols`` row."""
    features = record["breakdown"]["features"]
    return features["in_order"]["share"] + features["fault_tolerance"]["share"]


def _ceiling(label: str, pct: Any) -> List[str]:
    if pct is None or pct >= TRACE_ON_CEILING_PCT:
        return [f"{label} {pct!r}% crossed the {TRACE_ON_CEILING_PCT:.0f}% "
                "sanity ceiling"]
    return []


def _audit(label: str, record: Record) -> List[str]:
    violations = (record.get("audit") or {}).get("violations")
    if violations is None:
        return [f"{label} carries no audit verdict"]
    if violations:
        return [f"{label} audit found {violations} exactly-once "
                f"violation(s): {record['audit']}"]
    return []


def _mode_rules(label: str, mode: str, share: float, acks_per_data: float,
                coalesces: bool = True) -> List[str]:
    """CR runs no ordering or fault machinery; CM-5 coalesces acks."""
    if mode == "cr" and share != 0.0:
        return [f"{label}: CR ran the ordering/fault machinery "
                f"({share:.1%} share)"]
    if mode == "cm5" and coalesces and acks_per_data >= ACKS_PER_DATA_BOUND:
        return [f"{label}: {acks_per_data:.2f} acks per data datagram "
                f"(bound: < {ACKS_PER_DATA_BOUND})"]
    return []


def _detection(label: str, record: Record, expected: bool) -> List[str]:
    latency = record.get("detection_latency_s")
    bound = record.get("detection_bound_s")
    if latency is None:
        return ([f"{label}: the failure detector missed the crash"]
                if expected else [])
    if bound is None or latency > bound:
        return [f"{label}: detection took {latency:.3f}s (bound: {bound}s)"]
    return []


def collapse(rows: Rows) -> List[str]:
    """Figure 6 per cell: ``{cm5,cr}_ordering_fault_share`` collapse."""
    problems = []
    for cell, row in rows.items():
        cm5_share = row["cm5_ordering_fault_share"]
        cr_share = row["cr_ordering_fault_share"]
        if cm5_share <= 0.0:
            problems.append(
                f"{cell}: CM-5 measured no ordering+fault overhead")
        elif cr_share >= cm5_share * COLLAPSE_RATIO:
            problems.append(
                f"{cell}: ordering+fault share did not collapse: CR "
                f"{cr_share:.1%} vs CM-5 {cm5_share:.1%} (bound: < "
                f"{COLLAPSE_RATIO:.0%} of CM-5)")
    return problems


def protocols(rows: Rows) -> List[str]:
    """``protocols/{protocol}/{mode}`` rows: CR runs no ordering or
    fault machinery; CM-5 protocols other than single coalesce acks."""
    problems = []
    for cell, record in rows.items():
        protocol, mode = cell.split("/")
        problems += _mode_rules(cell, mode, ordering_fault_share(record),
                                record["wire"]["acks_per_data"],
                                coalesces=protocol != "single")
    return problems


def reliability(rows: Rows) -> List[str]:
    problems = []
    bulk = rows.get("bulk_selective_repeat")
    if (bulk is not None and bulk["selective_repeat_savings"]
            < MIN_SELECTIVE_REPEAT_SAVINGS):
        problems.append(
            f"selective-repeat savings {bulk['selective_repeat_savings']:.1%}"
            f" fell below the {MIN_SELECTIVE_REPEAT_SAVINGS:.0%} bound")
    ordered = rows.get("ordered_ack_coalescing")
    if ordered is not None and ordered["acks_per_data"] >= ACKS_PER_DATA_BOUND:
        problems.append(
            f"ordered channel sent {ordered['acks_per_data']:.2f} acks per "
            f"data datagram (bound: < {ACKS_PER_DATA_BOUND})")
    return problems


def trace(row: Record) -> List[str]:
    return _ceiling("tracing-on overhead", row.get("trace_overhead_pct"))


def journeys(rows: Rows) -> List[str]:
    """Journey reconstruction: coverage and worst stage-sum error."""
    problems = []
    for cell, row in rows.items():
        coverage = row.get("journey_coverage")
        if coverage is None or coverage < MIN_JOURNEY_COVERAGE:
            problems.append(
                f"{cell}: journey coverage {coverage!r} fell below the "
                f"{MIN_JOURNEY_COVERAGE:.0%} bound")
        error = row.get("worst_stage_error")
        if error is None or error > STAGE_TOLERANCE:
            problems.append(
                f"{cell}: worst journey stage-sum error {error!r} crossed "
                f"the {STAGE_TOLERANCE:.0%} bound")
    return problems


def obs(rows: Rows) -> List[str]:
    """``obs/{mode}`` rows: journey gates plus the journey-on ceiling."""
    problems = journeys(rows)
    for cell, row in rows.items():
        problems += _ceiling(f"{cell}: journey-on overhead",
                             row.get("journey_overhead_pct"))
    return problems


def cost(rows: Rows) -> List[str]:
    """``cost/{mode}`` rows: every structural ordering holds."""
    problems = []
    for cell, report in rows.items():
        terms = report.get("rows") or {}
        for cheap, dear in COST_ORDERINGS:
            if cheap not in terms or dear not in terms:
                problems.append(f"{cell} is missing the {cheap} or {dear} term")
                continue
            cheap_ns = terms[cheap]["ns_per_op"]
            dear_ns = terms[dear]["ns_per_op"]
            if cheap_ns >= dear_ns:
                problems.append(
                    f"{cell}: {cheap} ({cheap_ns:.0f} ns) no longer "
                    f"undercuts {dear} ({dear_ns:.0f} ns)")
    return problems


def fabric(rows: Rows) -> List[str]:
    """``fabric/{mode}/p{N}`` load rows: lossless, CR free of ordering
    and fault work, CM-5 acks coalesced, Figure 6 at every peer count."""
    problems = []
    for cell, record in rows.items():
        if not record.get("completed"):
            problems.append(f"fabric {cell} did not complete")
        for key in ("lost_messages", "corrupt_messages"):
            if record.get(key) != 0:
                problems.append(f"fabric {cell}: {key} = {record.get(key)}")
        problems += _mode_rules(f"fabric {cell}", record["mode"],
                                record["ordering_fault_share"],
                                record["acks_per_data"])
    problems += collapse({
        f"fabric P={peers}": cell
        for peers, cell in fabric_collapse(list(rows.values())).items()})
    return problems


def retained_throughput(rows: Rows) -> Dict[str, Tuple[float, float]]:
    """Mode -> (highest offered-load factor, throughput there over the
    1x throughput), for each mode with a 1x row and a higher factor."""
    out = {}
    for mode in MODES:
        cells = [r for r in rows.values() if r["mode"] == mode]
        base = [r for r in cells if r["overload"] == 1.0]
        peak = max(cells, key=lambda r: r["overload"], default=None)
        if base and peak["overload"] > 1.0:
            base_thr = base[0]["throughput_msgs_per_s"]
            out[mode] = (peak["overload"],
                         peak["throughput_msgs_per_s"] / base_thr
                         if base_thr else 0.0)
    return out


def overload(rows: Rows) -> List[str]:
    """``overload/{mode}/{factor}x`` rows: finished, clean audit, peak
    occupancies inside their windows, graceful degradation."""
    problems = []
    for cell, record in rows.items():
        if not record.get("completed"):
            problems.append(f"overload {cell} did not complete")
        problems += _audit(f"overload {cell}", record)
        peaks = record.get("peaks") or {}
        for used, bound in (("reorder_parked", "reorder_window"),
                            ("buffered_bytes", "window_bytes"),
                            ("tracked", "send_window")):
            if peaks.get(used, 0) > peaks.get(bound, 0):
                problems.append(
                    f"overload {cell}: peak {used} {peaks.get(used)} "
                    f"exceeded its {bound} {peaks.get(bound)}")
    for mode, (factor, retained) in retained_throughput(rows).items():
        if retained < MIN_OVERLOAD_RETAINED:
            problems.append(
                f"overload {mode}: throughput at {factor:g}x retained only "
                f"{retained:.0%} of the 1x baseline (bound: >= "
                f"{MIN_OVERLOAD_RETAINED:.0%})")
    return problems


def chaos(rows: Rows) -> List[str]:
    """``chaos/{scenario}/{mode}`` rows: clean audit, no errors, crash
    detection within the SWIM bound, refutation instead of false DEAD.

    There is deliberately no Figure 6 collapse gate: peer death is not a
    service the lossless transport provides, so CR still runs the SWIM
    detector and recovery machinery and its fault-tolerance share is
    expected to be nonzero."""
    problems = []
    for cell, record in rows.items():
        problems += _audit(f"chaos {cell}", record)
        if record.get("errors"):
            problems.append(f"chaos {cell} errored: {record['errors']}")
        problems += _detection(f"chaos {cell}", record,
                               bool(record.get("detection_expected")))
        if record.get("refutation_expected"):
            if record.get("false_dead"):
                problems.append(
                    f"chaos {cell}: latency spike produced false DEAD "
                    f"verdicts for {record['false_dead']}")
            if not record.get("refutations"):
                problems.append(f"chaos {cell}: suspicion was never "
                                "refuted during the latency spike")
    return problems


def member(rows: Rows) -> List[str]:
    """``member/{mode}/p{N}`` scaling rows: crash detected within bound,
    no false DEAD, control load under its k/j bound and flat in N."""
    problems = []
    rates: Dict[str, Dict[int, float]] = {}
    for cell, record in rows.items():
        problems += _detection(f"member {cell}", record, expected=True)
        if record.get("false_dead"):
            problems.append(f"member {cell}: false DEAD verdicts for "
                            f"{record['false_dead']}")
        rate = record.get("control_frames_per_peer_per_period")
        rate_bound = record.get("control_bound_per_period")
        if rate is None or rate_bound is None:
            problems.append(f"member {cell} carries no control-load figures")
            continue
        if rate > rate_bound:
            problems.append(
                f"member {cell}: {rate:.1f} control frames/peer/period "
                f"crossed the {rate_bound:.1f} bound")
        rates.setdefault(record["mode"], {})[record["peers"]] = rate
    for mode, by_size in sorted(rates.items()):
        if len(by_size) < 2:
            continue
        small, large = min(by_size), max(by_size)
        if by_size[small] <= 0:
            problems.append(f"member {mode}/p{small}: no control traffic")
        elif by_size[large] > by_size[small] * MAX_MEMBER_RATE_GROWTH:
            problems.append(
                f"member {mode}: per-peer control rate grew from "
                f"{by_size[small]:.1f} (p{small}) to {by_size[large]:.1f} "
                f"(p{large}) frames/period (bound: "
                f"{MAX_MEMBER_RATE_GROWTH}x)")
    return problems


def coll(rows: Rows) -> List[str]:
    """``coll/*`` rows: ops complete with clean audits, the crossover
    exists with each protocol winning its home turf, and partition-heal
    broadcasts keep every receiver's audit clean."""
    problems = []
    for cell, row in rows.items():
        if cell == "coll/crossover":
            if row.get("crossover_words") is None:
                problems.append("collective sweep found no eager/"
                                "rendezvous crossover")
            if not row.get("eager_wins_smallest"):
                problems.append("eager no longer wins the smallest "
                                "collective payload")
            if not row.get("rendezvous_wins_largest"):
                problems.append("rendezvous no longer wins the largest "
                                "collective payload")
        elif cell.startswith("coll/partition/"):
            if not row.get("healed_in_flight"):
                problems.append(f"{cell}: the partition never cut a "
                                "broadcast mid-flight")
            if not row.get("all_clean"):
                problems.append(f"{cell}: audit is dirty: "
                                f"{row.get('audits')}")
        else:
            if not row.get("completed"):
                problems.append(f"{cell} did not complete")
            if not row.get("audit_clean"):
                problems.append(f"{cell} payload audit is dirty")
    return problems


#: Family -> gate, for the payload-wide check.
FAMILIES = {
    "protocols": protocols, "collapse": collapse,
    "reliability": reliability, "trace": trace, "obs": obs, "cost": cost,
    "fabric": fabric, "overload": overload, "chaos": chaos,
    "member": member, "coll": coll,
}


def _required_cells(payload: Record) -> Dict[str, List[str]]:
    peer_counts = sorted({row["peers"]
                          for row in (payload.get("fabric") or {}).values()})
    return {
        "reliability": ["bulk_selective_repeat", "ordered_ack_coalescing"],
        "obs": [f"obs/{mode}" for mode in MODES],
        "cost": [f"cost/{mode}" for mode in MODES],
        "fabric": [f"{mode}/p{n}" for n in peer_counts for mode in MODES],
        "overload": [f"overload/{mode}/{factor}x"
                     for mode in MODES for factor in ("1", "10")],
        "coll": ([f"coll/{op}/{mode}"
                  for op in COLLECTIVE_OPS for mode in MODES]
                 + ["coll/crossover"]
                 + [f"coll/partition/{mode}" for mode in MODES]),
    }


def check_payload(payload: Record) -> List[str]:
    """Every family gate over a whole ``BENCH_runtime.json`` payload,
    plus presence of every family and of every cell the bench writes."""
    problems = []
    required = _required_cells(payload)
    for family, gate in FAMILIES.items():
        rows = payload.get(family)
        if not rows:
            problems.append(f"payload is missing the {family} rows")
            continue
        problems += [f"{family} row {cell} is missing"
                     for cell in required.get(family, ()) if cell not in rows]
        problems += gate(rows)
    return problems
