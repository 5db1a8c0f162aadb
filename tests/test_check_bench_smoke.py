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
