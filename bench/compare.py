"""Compare the parent commit's runs with a change's runs.

    python bench/compare.py PARENT CHANGE

PARENT and CHANGE are result files written by ``run.py`` or directories
of them (every ``*.json`` inside is merged), so ten alternating one-round
runs per side can be compared as one set.  Counting repetitions pair up
by workload and seed; on the virtual clock a pair differs only where the
code does.  For each workload and end-to-end metric the verdict follows
the choosing-metrics rule:

* ``improved`` -- at least 10 pairs, the change wins at least 9 in 10
  of them (ties count for neither) and the medians differ by more than
  the parent's IQR;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the metric's ``BENCHMARK.json`` bound;
* ``unresolved`` -- the parent's own spread (IQR over median) is wider
  than the bound, unless every change run beats every parent run;
* ``unchanged`` -- otherwise; ``too-few-pairs`` when fewer than 10
  pairs exist and nothing regressed.

Any rise in failed messages is flagged.  Exit status 1 on a regression
or a rise in failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import summary  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> Dict[str, Dict[int, Dict[str, Any]]]:
    """workload -> seed -> counting repetition, from a file or directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: Dict[str, Dict[int, Dict[str, Any]]] = {}
    for file in files:
        report = json.loads(file.read_text())
        for workload, entry in report.get("workloads", {}).items():
            for rep in entry.get("runs", []):
                runs.setdefault(workload, {})[rep["seed"]] = rep
    return runs


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, Dict[str, float]]:
    """Verdict for one metric on one workload from paired values."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = summary(parent), summary(change)
    detail = {"parent_median": p["median"], "change_median": c["median"],
              "parent_iqr": p["iqr"], "pairs": len(parent)}
    if not p["median"]:
        return "unresolved", detail
    worse_by = sign * (p["median"] - c["median"]) / abs(p["median"])
    detail["worse_by"] = worse_by
    if worse_by > bound:
        return "regressed", detail
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    detail["wins"] = wins
    if len(parent) < MIN_PAIRS:
        return "too-few-pairs", detail
    separated = all(sign * (b - a) > 0 for a in parent for b in change)
    if (wins >= WIN_SHARE * len(parent)
            and sign * (c["median"] - p["median"]) > p["iqr"]):
        return "improved", detail
    if p["iqr"] / abs(p["median"]) > bound and not separated:
        return "unresolved", detail
    return "unchanged", detail


def compare(parent_runs, change_runs, bench: Dict[str, Any]) -> Tuple[List[Dict], bool]:
    rows, bad = [], False
    for workload in sorted(set(parent_runs) & set(change_runs)):
        seeds = sorted(set(parent_runs[workload]) & set(change_runs[workload]))
        pairs = [(parent_runs[workload][s], change_runs[workload][s]) for s in seeds]
        row: Dict[str, Any] = {"workload": workload, "pairs": len(pairs),
                               "metrics": {}}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            both = [(a[name], b[name]) for a, b in pairs if name in a and name in b]
            if not both:
                continue
            result, detail = verdict([a for a, _ in both], [b for _, b in both],
                                     metric["better"], metric["bound"])
            row["metrics"][name] = {"verdict": result, **detail}
            bad |= result == "regressed"
        failed = [sum(rep["failed"] for rep in side) for side in zip(*pairs)] \
            if pairs else [0, 0]
        row["failed"] = {"parent": failed[0], "change": failed[1]}
        row["failures_rose"] = failed[1] > failed[0]
        bad |= row["failures_rose"]
        rows.append(row)
    return rows, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--json", action="store_true", help="print rows as JSON")
    args = parser.parse_args(argv)
    bench_file = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    bench = json.loads(bench_file.read_text())
    rows, bad = compare(load_runs(args.parent), load_runs(args.change), bench)
    if args.json:
        print(json.dumps(rows, indent=1))
    else:
        for row in rows:
            cells = [f"{name}={m['verdict']}" for name, m in row["metrics"].items()]
            flag = " FAILURES ROSE" if row["failures_rose"] else ""
            print(f"{row['workload']:10s} pairs={row['pairs']:<3d} "
                  f"{' '.join(cells)}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
