"""Gate a ``bench/run.py`` result file: every workload correct, both
ledgers adding up, and (with ``--baseline``) no counted metric worse
than the committed smoke baseline by more than its bound.

    python3 bench/run.py --smoke --out /tmp/bench-smoke.json
    python benchmarks/check_bench_smoke.py /tmp/bench-smoke.json \\
        --baseline benchmarks/bench_smoke_baseline.json

A workload is correct when no repetition failed a check (lost, duplicated
or corrupted messages, false DEAD verdicts, a metric its mode should have
measured).  The call ledger adds up when every counting run's layers sum
to its ``calls_per_msg``; the time ledger adds up when the traced run's
unattributed remainder is not negative and no layer boundary went
missing.

The baseline comparison covers the counted end-to-end metrics
(:data:`BASELINE_METRICS`): the workers run on a virtual clock, so for
one seed and scale they are a function of the code alone.  Each bound
is the metric's ``bound`` in ``BENCHMARK.json``.  Refresh the baseline
after a change that moves them on purpose::

    python benchmarks/check_bench_smoke.py /tmp/bench-smoke.json \\
        --write-baseline benchmarks/bench_smoke_baseline.json

Exits 1 listing every problem, 0 when there is none.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Declares each end-to-end metric's regression bound.
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: End-to-end metrics compared against the baseline; ``setup_s`` and
#: ``peak_rss_mib`` depend on the machine and are left out.
BASELINE_METRICS = ("calls_per_msg", "datagrams_per_msg", "wire_bytes_per_msg")


def problems(report: Dict[str, Any]) -> List[str]:
    """Everything wrong with ``report`` (empty when it passes)."""
    workloads = report.get("workloads") or {}
    if not workloads:
        return ["no workloads in the result file"]
    found = []
    for name, entry in workloads.items():
        for run, why in entry["checks"]["failures"].items():
            found.append(f"{name}: correct: false ({run}: {'; '.join(why)})")
        ledger = entry["ledger"]
        if not ledger["calls_add_up"]:
            found.append(f"{name}: call ledger does not add up")
        if not ledger["adds_up"]:
            found.append(f"{name}: time ledger does not add up "
                         "(negative unattributed remainder)")
        if ledger["missing_boundaries"]:
            found.append(f"{name}: missing boundaries "
                         f"{ledger['missing_boundaries']}")
    return found


def baseline_of(report: Dict[str, Any]) -> Dict[str, Any]:
    """The baseline record of a smoke result: its config and the median
    of each :data:`BASELINE_METRICS` per workload."""
    return {
        "source": "python3 bench/run.py --smoke",
        "python": report["provenance"]["python"],
        "config": report["config"],
        "workloads": {
            name: {metric: entry["end_to_end"][metric]["median"]
                   for metric in BASELINE_METRICS}
            for name, entry in sorted(report["workloads"].items())
        },
    }


def regressions(report: Dict[str, Any], baseline: Dict[str, Any],
                benchmark: Dict[str, Any]) -> List[str]:
    """Every baseline metric that ``report`` misses or makes worse by
    more than its ``BENCHMARK.json`` bound (empty when none)."""
    limits = {m["name"]: m for m in benchmark["end_to_end"]}
    if report.get("config") != baseline["config"]:
        return [f"result config {report.get('config')} differs from the "
                f"baseline's {baseline['config']}: counts are not comparable"]
    found = []
    for name, metrics in baseline["workloads"].items():
        entry = report["workloads"].get(name)
        if entry is None:
            found.append(f"{name}: in the baseline but not in the result")
            continue
        for metric, before in metrics.items():
            now = entry["end_to_end"].get(metric, {}).get("median")
            if now is None:
                found.append(f"{name}: no {metric} in the result")
                continue
            limit = limits[metric]
            change = (now - before) / before if before else 0.0
            worse = change if limit["better"] == "lower" else -change
            verdict = "FAIL" if worse > limit["bound"] else "ok"
            print(f"  [{verdict}] {name:10s} {metric:20s} {before:12.6g} -> "
                  f"{now:12.6g} ({change:+.2%}, bound {limit['bound']:.0%})")
            if worse > limit["bound"]:
                found.append(f"{name}: {metric} {now:.6g} is {change:+.2%} "
                             f"against the baseline {before:.6g}, bound "
                             f"{limit['bound']:.0%}")
    return found


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", type=Path, help="bench/run.py --out file")
    parser.add_argument("--baseline", type=Path,
                        help="committed smoke baseline to compare against")
    parser.add_argument("--write-baseline", type=Path, metavar="PATH",
                        help="write the result's baseline record to PATH")
    args = parser.parse_args(argv)
    report = json.loads(args.result.read_text())
    found = problems(report)
    if args.baseline is not None and not found:
        found += regressions(report, json.loads(args.baseline.read_text()),
                             json.loads(BENCHMARK.read_text()))
    for problem in found:
        print(f"[FAIL] {problem}")
    if found:
        return 1
    if args.write_baseline is not None:
        args.write_baseline.write_text(
            json.dumps(baseline_of(report), indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.write_baseline}")
    against = f" and within bounds of {args.baseline}" if args.baseline else ""
    print(f"ok: every workload in {args.result} is correct, both ledgers "
          f"add up{against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
