"""Tests for the benchmark result gate (benchmarks/check_bench_smoke.py)."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_bench_smoke.py"
_SPEC = importlib.util.spec_from_file_location("check_bench_smoke", _PATH)
check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check)

SOUND = {"workloads": {"small-cr": {
    "checks": {"failures": {}},
    "ledger": {"calls_add_up": True, "adds_up": True,
               "missing_boundaries": []},
}}}


def broken(**ledger):
    report = copy.deepcopy(SOUND)
    report["workloads"]["small-cr"]["ledger"].update(ledger)
    return report


def test_sound_report_passes(tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(SOUND))
    assert check.problems(SOUND) == []
    assert check.main([str(path)]) == 0


@pytest.mark.parametrize("report, needle", [
    (broken(calls_add_up=False), "call ledger"),
    (broken(adds_up=False), "time ledger"),
    (broken(missing_boundaries=["m:f"]), "missing boundaries"),
    ({"workloads": {}}, "no workloads"),
])
def test_each_ledger_fault_fails(report, needle, tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(report))
    assert any(needle in problem for problem in check.problems(report))
    assert check.main([str(path)]) == 1


def test_failed_check_reads_as_not_correct():
    report = copy.deepcopy(SOUND)
    report["workloads"]["small-cr"]["checks"]["failures"] = {
        "count 1": ["3 of 100 messages failed"]}
    assert check.problems(report) == [
        "small-cr: correct: false (count 1: 3 of 100 messages failed)"]


ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CONFIG = {"seed": 1, "reps": 1, "scale": 0.2}


def counted(calls=100.0, datagrams=2.0, wire_bytes=80.0, config=CONFIG):
    """A sound smoke result carrying the three counted metrics."""
    report = copy.deepcopy(SOUND)
    report["config"] = dict(config)
    report["provenance"] = {"python": "3.11.7"}
    report["workloads"]["small-cr"]["end_to_end"] = {
        "calls_per_msg": {"median": calls},
        "datagrams_per_msg": {"median": datagrams},
        "wire_bytes_per_msg": {"median": wire_bytes},
    }
    return report


BASELINE = check.baseline_of(counted())


def test_baseline_records_config_and_medians():
    assert BASELINE["config"] == CONFIG
    assert BASELINE["workloads"] == {"small-cr": {
        "calls_per_msg": 100.0, "datagrams_per_msg": 2.0,
        "wire_bytes_per_msg": 80.0}}


def test_within_bound_and_improvements_pass():
    bound = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    near = counted(calls=100.0 * (1 + bound["calls_per_msg"] / 2))
    assert check.regressions(near, BASELINE, BENCHMARK) == []
    better = counted(calls=50.0, datagrams=1.0, wire_bytes=40.0)
    assert check.regressions(better, BASELINE, BENCHMARK) == []


@pytest.mark.parametrize("metric, report", [
    ("calls_per_msg", counted(calls=120.0)),
    ("datagrams_per_msg", counted(datagrams=2.5)),
    ("wire_bytes_per_msg", counted(wire_bytes=100.0)),
])
def test_each_counted_metric_is_gated(metric, report):
    found = check.regressions(report, BASELINE, BENCHMARK)
    assert len(found) == 1 and metric in found[0]


def test_bounds_come_from_the_benchmark_file():
    tight = copy.deepcopy(BENCHMARK)
    for metric in tight["end_to_end"]:
        metric["bound"] = 0.01
    report = counted(calls=105.0)
    assert check.regressions(report, BASELINE, BENCHMARK) == []
    assert check.regressions(report, BASELINE, tight) != []


def test_missing_workload_and_other_config_fail():
    lacking = copy.deepcopy(counted())
    lacking["workloads"] = {"small-cm5": lacking["workloads"]["small-cr"]}
    assert "not in the result" in check.regressions(
        lacking, BASELINE, BENCHMARK)[0]
    other = counted(config={**CONFIG, "seed": 2})
    assert "not comparable" in check.regressions(
        other, BASELINE, BENCHMARK)[0]


def test_cli_writes_then_checks_a_baseline(tmp_path):
    result = tmp_path / "smoke.json"
    baseline = tmp_path / "baseline.json"
    result.write_text(json.dumps(counted()))
    assert check.main([str(result), "--write-baseline", str(baseline)]) == 0
    assert check.main([str(result), "--baseline", str(baseline)]) == 0
    result.write_text(json.dumps(counted(calls=150.0)))
    assert check.main([str(result), "--baseline", str(baseline)]) == 1


def test_committed_baseline_covers_every_workload():
    committed = json.loads(
        (ROOT / "benchmarks" / "bench_smoke_baseline.json").read_text())
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(committed["workloads"]) == names
    for metrics in committed["workloads"].values():
        assert set(metrics) == set(check.BASELINE_METRICS)
        assert all(value > 0 for value in metrics.values())
