"""The benchmark of record for ``repro.runtime``.

Full run (every workload, ``--reps`` rounds round-robin, each a counting
and a timing repetition, then one traced run per workload; prints every
metric and writes a result file stamped with provenance)::

    python bench/run.py [--seed S] [--reps N] [--workload NAME] [--out PATH]
    python bench/run.py --smoke          # a fifth of the work, one round

One measurement of one workload (the form ``BENCHMARK.json`` names; the
last line of output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``)::

    python bench/run.py --workload small-cr --seed 3 --seconds 25 --trace 0

Every repetition runs in a fresh single-threaded worker process, one at
a time, with its bytecode cache in a temporary directory under
``bench/__pycache__/`` (removed afterwards) so nothing is written into
``src/``.  An untimed import warms that cache first, so set-up time
excludes compilation.  The workers run the program on a virtual clock
(see ``worker.py``), so every end-to-end metric but ``setup_s`` is a
count that the machine's speed cannot move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import EXTRA_METRICS, MEASURED_METRICS, measured_by  # noqa: E402
from stats import summary  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Wall-clock cap on one worker; a hung run fails instead of stalling.
WORKER_TIMEOUT_S = 150
#: Fewest repetitions in a measurement.
MIN_REPS = 3
SMOKE_SCALE = 0.2


class WorkerError(RuntimeError):
    """A worker exited non-zero, timed out or printed no result."""


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def provenance() -> Dict[str, Any]:
    """Which code and which machine produced a result."""

    def git(*args: str) -> Optional[str]:
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


class Workers:
    """Runs worker processes one at a time against this checkout."""

    def __init__(self) -> None:
        if not (ROOT / "src" / "repro" / "runtime").is_dir():
            raise WorkerError(f"no repro.runtime sources under {ROOT / 'src'}")
        caches = BENCH / "__pycache__"
        caches.mkdir(exist_ok=True)
        self.cache = tempfile.mkdtemp(prefix="workers-", dir=caches)
        path = os.environ.get("PYTHONPATH")
        # A fixed hash seed keeps set iteration, and so the run, the same
        # for the same seed.
        self.env = dict(os.environ,
                        PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""),
                        PYTHONPYCACHEPREFIX=self.cache, PYTHONHASHSEED="0")
        # The warm-up import must leave its bytecode in the cache.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._call([sys.executable, "-c", "import repro.runtime"])

    def close(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, argv: List[str]) -> str:
        try:
            out = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                 text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{' '.join(argv[1:])}: timed out") from None
        if out.returncode != 0:
            raise WorkerError(f"{' '.join(argv[1:])}: exit {out.returncode}\n"
                              f"{out.stderr.strip()[-2000:]}")
        return out.stdout

    def run(self, workload: str, seed: int, mode: str = "count",
            scale: float = 1.0) -> Dict[str, Any]:
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--mode", mode, "--scale", repr(scale)]
        lines = self._call(argv).strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            raise WorkerError(f"{workload}: worker printed no result") from None


def problems(rep: Dict[str, Any], names: Sequence[str]) -> List[str]:
    """Why a repetition cannot count (empty when it is sound): a failed
    check, or a metric in ``names`` its mode should have measured."""
    found = list(rep.get("errors", []))
    if rep.get("failed"):
        found.append(f"{rep['failed']} of {rep['attempted']} messages failed")
    if rep.get("membership.false_dead"):
        found.append(f"{rep['membership.false_dead']} false DEAD verdicts")
    found += [f"no {name}" for name in names
              if measured_by(name, rep["mode"]) and name not in rep]
    return found


def values(reps: List[Dict[str, Any]], name: str) -> List[float]:
    """``name`` from every repetition whose mode measures it."""
    return [rep[name] for rep in reps
            if measured_by(name, rep["mode"]) and name in rep]


def trace_overhead(reps: List[Dict[str, Any]]) -> Optional[float]:
    """Traced CPU per message over the untraced median, minus one."""
    traced_cpu = [rep["cpu_us_per_msg"] for rep in reps if rep["mode"] == "trace"]
    base = values(reps, "cpu_us_per_msg")
    if not base or not traced_cpu:
        return None
    return summary(traced_cpu)["median"] / summary(base)["median"] - 1.0


# -- one measurement (the BENCHMARK.json command) ------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Repeat ``workload`` in fresh workers for ``seconds`` and print the
    median of each metric over the repetitions that measure it.  Without
    ``trace`` the repetitions alternate counting and timing and the
    end-to-end metrics are printed; with it they cycle through all three
    worker modes and the per-layer metrics are printed.  A repetition
    that would not end by the deadline, judged by the last one in its
    mode, is not started, once there are :data:`MIN_REPS`."""
    bench = load_benchmark()
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    cycle = ("count", "trace", "time") if trace else ("count", "time")
    reps: List[Dict[str, Any]] = []
    took: Dict[str, float] = {}
    deadline = time.monotonic() + seconds
    with Workers() as workers:
        while True:
            mode = cycle[len(reps) % len(cycle)]
            started = time.monotonic()
            if (len(reps) >= max(MIN_REPS, len(cycle))
                    and started + took.get(mode, 0.0) > deadline):
                break
            reps.append(workers.run(workload, seed + len(reps), mode))
            took[mode] = time.monotonic() - started
    bad = {rep["seed"]: problems(rep, [m["name"] for m in wanted])
           for rep in reps}
    for seed_, found in bad.items():
        for problem in found:
            print(f"[FAIL] {workload} seed {seed_}: {problem}")
    metrics = {}
    for metric in wanted:
        samples = values(reps, metric["name"])
        if samples:
            value = summary(samples)["median"]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"{metric['name']:40s} {value:14.6g} {metric['unit']}")
    if trace:
        overhead = trace_overhead(reps)
        print(f"bench.trace_overhead_share {overhead:.3f}"
              if overhead is not None else "bench.trace_overhead_share n/a")
        for rep in reps:
            if rep.get("missing_boundaries"):
                print(f"[warn] missing boundaries: {rep['missing_boundaries']}")
    correct = (not any(bad.values())
               and all(m["name"] in metrics for m in wanted))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": metrics,
    }))
    return 0


# -- the full run ---------------------------------------------------------------

def ledger_rows(rep: Dict[str, Any]) -> Dict[str, float]:
    """The traced run's per-layer self times and the unattributed
    remainder, in ledger order."""
    return {name: value for name, value in rep.items()
            if name.endswith("_us_per_msg") and name not in
            ("cpu_us_per_msg", "traced_busy_us_per_msg",
             "protocols.send_wait_us_per_msg")}


def call_rows(rep: Dict[str, Any]) -> Dict[str, float]:
    """A counting run's calls per message, layer by layer."""
    return {name: value for name, value in rep.items()
            if name.endswith(".calls_per_msg")}


def full_run(names: List[str], base_seed: int, reps: int, scale: float,
             out: Optional[Path]) -> int:
    bench = load_benchmark()
    e2e = bench["end_to_end"]
    e2e_names = [m["name"] for m in e2e]
    layer_names = [m["name"] for m in bench["per_layer"]]
    report: Dict[str, Any] = {"provenance": provenance(),
                              "config": {"seed": base_seed, "reps": reps,
                                         "scale": scale},
                              "workloads": {}}
    runs: Dict[str, List[Dict]] = {name: [] for name in names}
    started = time.monotonic()
    with Workers() as workers:
        # Round-robin, so slow drift of the machine spreads over every
        # workload instead of landing on one.
        for rep in range(reps):
            for name in names:
                for mode in ("count", "time"):
                    result = workers.run(name, base_seed + rep, mode, scale)
                    runs[name].append(result)
                print(f"  rep {rep} {name:10s} {result['cpu_us_per_msg']:8.2f} "
                      f"us/msg setup {result['setup_s']:.3f}s", flush=True)
        for name in names:
            runs[name].append(workers.run(name, base_seed, "trace", scale))
    ok = True
    for name in names:
        all_reps = runs[name]
        counted = [rep for rep in all_reps if rep["mode"] == "count"]
        traced_rep = next(rep for rep in all_reps if rep["mode"] == "trace")
        failures = {f"{rep['mode']} {rep['seed']}": problems(rep, e2e_names)
                    for rep in all_reps}
        rows = ledger_rows(traced_rep)
        calls = [call_rows(rep) for rep in counted]
        entry = {
            "params": WORKLOADS[name],
            "end_to_end": {}, "measured": {}, "per_layer": {}, "extra": {},
            "ledger": {
                "calls": {layer: summary([row[layer] for row in calls])["median"]
                          for layer in calls[0]},
                # Each counting run's layers add up to its total exactly.
                "calls_add_up": all(
                    abs(sum(row.values()) - rep["calls_per_msg"])
                    <= 1e-9 * rep["calls_per_msg"] for row, rep in zip(calls, counted)),
                "rows": rows,
                "traced_busy_us_per_msg": traced_rep["traced_busy_us_per_msg"],
                "sum_us_per_msg": sum(rows.values()),
                # Layers and total are timed on one clock and never
                # overlap, so a negative remainder means double-counting.
                "adds_up": traced_rep["loop.unattributed_us_per_msg"] >= 0,
                "missing_boundaries": traced_rep["missing_boundaries"],
                "trace_overhead_share": trace_overhead(all_reps),
            },
            "checks": {"failures": {k: v for k, v in failures.items() if v}},
            "runs": counted,
            "timed": [rep for rep in all_reps if rep["mode"] == "time"],
            "traced": traced_rep,
        }
        for metric in e2e:
            samples = values(all_reps, metric["name"])
            if samples:
                entry["end_to_end"][metric["name"]] = {
                    **summary(samples), "unit": metric["unit"]}
        attempted = sum(rep["attempted"] for rep in counted)
        entry["end_to_end"]["failed_share"] = {
            "value": sum(rep["failed"] for rep in counted) / max(1, attempted),
            "unit": "ratio", "attempted": attempted}
        for group, metric_names in (("measured", MEASURED_METRICS),
                                    ("per_layer", layer_names),
                                    ("extra", EXTRA_METRICS)):
            for metric in metric_names:
                samples = values(all_reps, metric)
                if samples:
                    entry[group][metric] = summary(samples)
        report["workloads"][name] = entry
        ok &= (not entry["checks"]["failures"] and entry["ledger"]["adds_up"]
               and entry["ledger"]["calls_add_up"])
    report["elapsed_s"] = time.monotonic() - started
    print_report(report, bench)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0 if ok else 1


def print_report(report: Dict[str, Any], bench: Dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(EXTRA_METRICS)
    units.update(MEASURED_METRICS)
    prov = report["provenance"]
    print(f"\ncommit {prov['git_sha'][:12]}{' (dirty)' if prov['git_dirty'] else ''}"
          f"  python {prov['python']}  nproc {prov['nproc']}  {prov['cpu_model']}")
    for name, entry in report["workloads"].items():
        print(f"\n== {name} ==  (median, then [q1, q3] of the n repetitions)")
        for group in ("end_to_end", "measured", "per_layer", "extra"):
            for metric, stats in entry[group].items():
                if "median" in stats:
                    print(f"  {metric:40s} {stats['median']:12.5g} "
                          f"[{stats['q1']:.5g}, {stats['q3']:.5g}] n={stats['n']} "
                          f"{units.get(metric, '')}")
                else:
                    print(f"  {metric:40s} {stats['value']:12.5g} "
                          f"({stats['attempted']} offered)")
        ledger = entry["ledger"]
        verdict = ("adds up" if ledger["adds_up"]
                   else "DOES NOT ADD UP: negative remainder")
        print(f"  call ledger: layers sum to calls_per_msg: "
              f"{'yes' if ledger['calls_add_up'] else 'NO'}")
        print(f"  time ledger: {ledger['sum_us_per_msg']:.2f} us/msg over layers + "
              f"unattributed = traced busy time "
              f"{ledger['traced_busy_us_per_msg']:.2f} us/msg ({verdict}); trace overhead "
              f"{ledger['trace_overhead_share']:.2f}; missing boundaries "
              f"{ledger['missing_boundaries'] or 'none'}")
        for run, found in entry["checks"]["failures"].items():
            print(f"  [FAIL] {run}: {'; '.join(found)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of record for repro.runtime.")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="restrict to this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1,
                        help="base seed; repetition r uses seed + r")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", type=Path,
                        help="result file (full runs default to "
                             "bench/results/<sha>.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="one short round per workload")
    parser.add_argument("--seconds", type=float,
                        help="measure one workload for this long and print "
                             "one JSON result line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --seconds: report per-layer metrics")
    args = parser.parse_args(argv)
    try:
        if args.seconds is not None:
            if not args.workload or len(args.workload) != 1:
                parser.error("--seconds measures exactly one --workload")
            return measure(args.workload[0], args.seed, args.seconds,
                           bool(args.trace))
        names = args.workload or list(WORKLOADS)
        if args.smoke:
            return full_run(names, args.seed, 1, SMOKE_SCALE, args.out)
        out = args.out
        if out is None:
            sha = provenance()["git_sha"]
            out = BENCH / "results" / f"{sha}.json"
        return full_run(names, args.seed, args.reps, 1.0, out)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
