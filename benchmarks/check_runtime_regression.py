"""CI gate: compare a fresh BENCH_runtime.json against the committed one.

Usage::

    PYTHONPATH=src python benchmarks/check_runtime_regression.py \
        BASELINE.json FRESH.json

Two kinds of checks:

* **Absolute gates** — every row family of the fresh payload must pass
  :func:`repro.runtime.gates.check_payload`, the one definition of the
  runtime's acceptance gates that the CLI and the bench test also use.
  These hold regardless of the baseline.
* **Relative drift** — retransmitted bytes and acks-per-data must not
  blow past the committed baseline by more than a generous slack factor.
  Fault injection is seeded, so the counts are near-deterministic; the
  slack absorbs scheduler-timing noise (a loaded CI runner can let a
  retransmit timer fire just before the ack lands).  The frame codec
  costs and the fabric throughput are held against the baseline the
  same way.  (The untraced path's cost is gated by a deterministic
  call budget in the tier-1 tests, not by a time here.)

Exits non-zero listing every violated check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.runtime import gates

#: Fresh value may exceed baseline by this factor before we call it a
#: regression (timer-vs-ack races under CI load add real jitter).
RELATIVE_SLACK = 3.0

#: Ignore relative drift below these per-metric baselines: going from
#: 1 ack to 3 (or from one lucky retransmit round to three) is noise,
#: not a regression.  The byte floor is ~one bulk data round — the
#: quantum by which an RTO-vs-ack race moves the counter, so a baseline
#: captured on a lucky run doesn't turn ordinary jitter into a failure.
MIN_ACK_FLOOR = 4
MIN_RETX_BYTES_FLOOR = 2048


def _load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"cannot read bench payload {path!r}: {exc}")


def _dig(payload: dict, *keys, default=None):
    node = payload
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


def check(baseline: dict, fresh: dict) -> list:
    problems = gates.check_payload(fresh)

    # --- relative drift vs the committed baseline ---------------------
    drift_metrics = [
        ("bulk retransmitted data bytes",
         ("reliability", "bulk_selective_repeat", "retransmitted_data_bytes"),
         MIN_RETX_BYTES_FLOOR),
        ("ordered ack datagrams",
         ("reliability", "ordered_ack_coalescing", "ack_datagrams"),
         MIN_ACK_FLOOR),
    ]
    for label, keys, floor in drift_metrics:
        base = _dig(baseline, *keys)
        now = _dig(fresh, *keys)
        if base is None or now is None:
            continue  # baseline predates the metric; absolute bounds still apply
        if (_dig(baseline, *keys[:-1], "message_words")
                != _dig(fresh, *keys[:-1], "message_words")):
            continue  # workload changed; raw counts are incomparable
        limit = max(base, floor) * RELATIVE_SLACK
        if now > limit:
            problems.append(
                f"{label} regressed: {now} vs baseline {base} "
                f"(limit {limit:.0f} at {RELATIVE_SLACK}x slack)"
            )

    # --- frame codec cost per op --------------------------------------
    for mode in gates.MODES:
        for term in ("frame_encode", "frame_decode"):
            base_ns = _dig(baseline, "cost", f"cost/{mode}", "rows",
                           term, "ns_per_op")
            now_ns = _dig(fresh, "cost", f"cost/{mode}", "rows",
                          term, "ns_per_op")
            if base_ns is None or now_ns is None:
                continue  # baseline predates the row
            if now_ns > base_ns * RELATIVE_SLACK:
                problems.append(
                    f"cost/{mode}: {term} regressed to {now_ns:.0f} ns/op "
                    f"vs baseline {base_ns:.0f} "
                    f"(limit {base_ns * RELATIVE_SLACK:.0f} at "
                    f"{RELATIVE_SLACK}x slack)"
                )

    # --- fabric throughput --------------------------------------------
    for cell, record in sorted((_dig(fresh, "fabric", default={}) or {}).items()):
        base_thr = _dig(baseline, "fabric", cell, "throughput_msgs_per_s")
        now_thr = record.get("throughput_msgs_per_s")
        if base_thr is None or now_thr is None:
            continue
        if now_thr < base_thr / RELATIVE_SLACK:
            problems.append(
                f"fabric {cell} throughput regressed: {now_thr:.0f} msgs/s "
                f"vs baseline {base_thr:.0f} "
                f"(floor {base_thr / RELATIVE_SLACK:.0f} at "
                f"{RELATIVE_SLACK}x slack)"
            )
    return problems


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    baseline, fresh = _load(argv[1]), _load(argv[2])
    problems = check(baseline, fresh)
    if problems:
        print("runtime bench regression check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("runtime bench regression check passed:")
    print(f"  selective-repeat savings: "
          f"{_dig(fresh, 'reliability', 'bulk_selective_repeat', 'selective_repeat_savings'):.1%}")
    print(f"  ordered acks per data datagram: "
          f"{_dig(fresh, 'reliability', 'ordered_ack_coalescing', 'acks_per_data'):.3f}")
    trace_pct = _dig(fresh, "trace", "trace_overhead_pct")
    if trace_pct is not None:
        print(f"  tracing-on overhead: {trace_pct:.1f}%")
    for cell, record in sorted((_dig(fresh, "obs", default={}) or {}).items()):
        print(
            f"  {cell}: journey coverage="
            f"{record.get('journey_coverage', 0.0):.1%} "
            f"stage-err={record.get('worst_stage_error', 0.0):.2%} "
            f"journey-on={record.get('journey_overhead_pct', 0.0):.1f}%"
        )
    for cell, record in sorted((_dig(fresh, "cost", default={}) or {}).items()):
        rows = record.get("rows") or {}
        terms = []
        for term, label in (("frame_encode", "encode"),
                            ("frame_decode", "decode"),
                            ("send_path_batched", "batched-send")):
            ns = _dig(rows, term, "ns_per_op")
            if ns is not None:
                terms.append(f"{label}={ns:.0f}ns")
        print(f"  {cell}: " + " ".join(terms))
    for cell, record in sorted((_dig(fresh, "fabric", default={}) or {}).items()):
        print(
            f"  fabric {cell}: lost={record.get('lost_messages')} "
            f"ord+ft={record.get('ordering_fault_share', 0.0):.1%} "
            f"acks/data={record.get('acks_per_data', 0.0):.3f}"
        )
    for cell, record in sorted((_dig(fresh, "overload", default={}) or {}).items()):
        retained = record.get("throughput_retained_vs_1x")
        kept = f" retained={retained:.0%}" if retained is not None else ""
        peaks = record.get("peaks") or {}
        print(
            f"  {cell}: shed={record.get('messages_shed', 0)} "
            f"({record.get('shed_share', 0.0):.0%}) "
            f"buf={peaks.get('buffered_bytes', 0)}/"
            f"{peaks.get('window_bytes', 0)}B "
            f"flow={record.get('flow_control_share', 0.0):.1%}{kept}"
        )
    for cell, record in sorted((_dig(fresh, "chaos", default={}) or {}).items()):
        latency = record.get("detection_latency_s")
        detect = f" detect={latency * 1e3:.0f}ms" if latency is not None else ""
        print(
            f"  chaos {cell}: violations="
            f"{_dig(record, 'audit', 'violations')} "
            f"broken={len(record.get('broken_lanes', []))}"
            f"{detect} "
            f"ft={record.get('fault_tolerance_share', 0.0):.1%}"
        )
    for cell, record in sorted((_dig(fresh, "member", default={}) or {}).items()):
        latency = record.get("detection_latency_s")
        detect = f"{latency * 1e3:.0f}ms" if latency is not None else "missed"
        print(
            f"  member {cell}: detect={detect}"
            f"/{record.get('detection_bound_s', 0.0) * 1e3:.0f}ms "
            f"ctrl={record.get('control_frames_per_peer_per_period', 0.0):.1f}"
            f"/{record.get('control_bound_per_period', 0.0):.0f} "
            f"frames/peer/period refutes={record.get('refutations', 0)}"
        )
    coll = _dig(fresh, "coll", default={}) or {}
    sweep = coll.get("coll/crossover")
    if sweep is not None:
        print(
            f"  coll crossover: {sweep.get('crossover_words')} words "
            f"(wire latency {sweep.get('wire_latency_s', 0.0) * 1e3:.2f}ms, "
            f"sizes {sweep.get('sizes')})"
        )
    for cell, record in sorted(coll.items()):
        if cell == "coll/crossover" or "/partition/" in cell:
            continue
        print(
            f"  {cell}: {record.get('payload_words')}w "
            f"modes={record.get('transfer_modes')} "
            f"{record.get('total_ns', 0) / 1e6:.2f}ms audit-clean"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
