"""Gate a ``bench/run.py`` result file: every workload correct, both
ledgers adding up.

    python3 bench/run.py --smoke --out /tmp/bench-smoke.json
    python benchmarks/check_bench_smoke.py /tmp/bench-smoke.json

A workload is correct when no repetition failed a check (lost, duplicated
or corrupted messages, false DEAD verdicts, a metric its mode should have
measured).  The call ledger adds up when every counting run's layers sum
to its ``calls_per_msg``; the time ledger adds up when the traced run's
unattributed remainder is not negative and no layer boundary went
missing.  Exits 1 listing every problem, 0 when there is none.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", type=Path, help="bench/run.py --out file")
    args = parser.parse_args(argv)
    found = problems(json.loads(args.result.read_text()))
    for problem in found:
        print(f"[FAIL] {problem}")
    if not found:
        print(f"ok: every workload in {args.result} is correct and both "
              "ledgers add up")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
