"""Tests for the benchmark itself: ``python -m pytest bench/``."""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.append(str(ROOT / "src"))

from compare import verdict  # noqa: E402
from ledger import BOUNDARIES, Ledger, call_ledger, code_layer  # noqa: E402
from metrics import (EXTRA_METRICS, LAYER_TARGETS, MEASURED_METRICS,  # noqa: E402
                     measured_by, source)
from run import Workers  # noqa: E402
from stats import summary  # noqa: E402
from worker import VirtualClockLoop, traced_metrics  # noqa: E402
from workloads import WORKLOADS, Integrity, arrival_offsets  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- BENCHMARK.json ------------------------------------------------------------

def test_schema_keys_and_limits(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
    assert 1 <= len(bench["command"]) <= 32
    assert all(isinstance(arg, str) and len(arg) <= 200 for arg in bench["command"])
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_and_whys(bench):
    names = []
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        # No bound wider than 10%, except set-up time, which the format
        # asks to carry the largest bound.
        limit = 0.25 if metric["name"] == "setup_s" else 0.10
        assert 0 < metric["bound"] <= limit, metric["name"]
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_setup_metric_has_the_largest_bound(bench):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    setup = bounds["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_workloads_are_defined_once(bench):
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_every_layer_metric_names_a_target(bench):
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = [m["name"] for m in bench["per_layer"]]
    assert layers == list(LAYER_TARGETS)
    for name, (target, workload) in LAYER_TARGETS.items():
        assert target in e2e, name
        assert workload in WORKLOADS, name
    assert not set(EXTRA_METRICS) & set(layers)
    assert not set(MEASURED_METRICS) & (e2e | set(layers))


def test_no_end_to_end_metric_comes_from_the_traced_run(bench):
    for metric in bench["end_to_end"]:
        assert not measured_by(metric["name"], "trace"), metric["name"]
    assert source("calls_per_msg") == "count"
    assert source("peak_rss_mib") == "time"          # without the profiler's memory
    assert measured_by("datagrams_per_msg", "count")
    assert measured_by("datagrams_per_msg", "time")
    assert source("transport.self_us_per_msg") == "trace"
    assert source("cpu_us_per_msg") == "time"


def test_run_budget_fits(bench):
    # 4 + 22 runs per workload.  A run starts no repetition it expects to
    # end past run_seconds; allow the warm-up import and a repetition
    # that ran slower than the last one of its mode.
    runs = 4 + 22 * len(bench["workloads"])
    assert runs * (bench["run_seconds"] + 5) <= 3420


# -- ledger accounting -----------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def spend(self, ns):
        self.now += ns


def test_nested_calls_charge_self_time_only():
    clock = FakeClock()
    ledger = Ledger(clock)

    def inner():
        clock.spend(5)

    inner = ledger.wrap("inner", "t:inner", inner)

    def outer():
        clock.spend(10)
        inner()
        clock.spend(3)
        inner()

    ledger.wrap("outer", "t:outer", outer)()
    assert ledger.self_ns == {"inner": 10, "outer": 13}
    assert ledger.calls == {"t:inner": 2, "t:outer": 1}


def test_interleaved_coroutines_split_busy_and_suspended_time():
    clock = FakeClock()
    ledger = Ledger(clock)

    async def child():
        clock.spend(4)
        await asyncio.sleep(0)
        clock.spend(1)

    child = ledger.wrap("child", "t:child", child)

    async def worker(busy, gate, release):
        clock.spend(busy)
        await child()
        if release is not None:
            release.set()
        await gate.wait()
        clock.spend(busy)

    worker = ledger.wrap("worker", "t:worker", worker)

    async def main():
        a_gate, b_gate = asyncio.Event(), asyncio.Event()
        b_gate.set()
        await asyncio.gather(worker(7, a_gate, None), worker(2, b_gate, a_gate))

    asyncio.run(main())
    # Busy time only: 7+7 and 2+2 of worker, 5 per child call; time spent
    # suspended while the other task ran never counts as busy.
    assert ledger.self_ns == {"worker": 18, "child": 10}
    assert ledger.wait_ns["worker"] > 0 and ledger.wait_ns["child"] > 0
    assert not ledger._stack


def test_missing_boundaries_are_listed_not_fatal(monkeypatch):
    module = types.ModuleType("bench_fake_module")

    class Thing:
        def present(self):
            return 42

    module.Thing = Thing
    monkeypatch.setitem(sys.modules, "bench_fake_module", module)
    ledger = Ledger()
    ledger.install({"fake": (("bench_fake_module", "Thing.present"),
                             ("bench_fake_module", "Thing.gone"),
                             ("no_such_module_anywhere", "f"))})
    try:
        assert Thing().present() == 42
        assert ledger.calls["bench_fake_module:Thing.present"] == 1
        assert ledger.missing == ["bench_fake_module:Thing.gone",
                                  "no_such_module_anywhere:f"]
    finally:
        ledger.uninstall()
    assert Thing.__dict__["present"].__name__ == "present"
    assert "bench_fake_module:Thing.present" in ledger.calls


def test_boundaries_exist_at_this_commit():
    pytest.importorskip("repro.runtime")
    ledger = Ledger()
    ledger.install(BOUNDARIES)
    ledger.uninstall()
    assert ledger.missing == []


def test_call_ledger_charges_library_code_to_its_callers():
    runtime = "/x/src/repro/runtime"
    send = (f"{runtime}/transport.py", 10, "send_now")
    span = (f"{runtime}/spans.py", 20, "__enter__")
    hash_ = ("/usr/lib/python3.11/enum.py", 30, "__hash__")
    builtin = ("~", 0, "<built-in function hash>")
    step = ("/usr/lib/python3.11/asyncio/events.py", 40, "_run")
    stats = {
        # (cc, nc, tt, ct, callers); a caller's edge counts calls first.
        step: (5, 5, 0, 0, {}),
        send: (4, 4, 0, 0, {step: (4, 4, 0, 0)}),
        span: (6, 6, 0, 0, {step: (6, 6, 0, 0)}),
        hash_: (9, 9, 0, 0, {span: (6, 6, 0, 0), send: (3, 3, 0, 0)}),
        # One call of the built-in came from a caller the profiler never saw.
        builtin: (13, 13, 0, 0, {hash_: (9, 9, 0, 0), send: (3, 3, 0, 0)}),
    }
    ledger = call_ledger(stats)
    # enum's __hash__ splits 6:3 between spans and transport, and so
    # do the built-in calls it makes; the unseen caller is the loop's.
    assert ledger == pytest.approx({"loop": 5 + 1, "transport": 4 + 3 + 3 + 3,
                                    "spans": 6 + 6 + 6})
    assert sum(ledger.values()) == pytest.approx(sum(e[1] for e in stats.values()))


def test_code_layers_follow_the_source_tree():
    assert code_layer("/a/src/repro/runtime/frames.py") == "frames"
    assert code_layer("/a/src/repro/api/framing.py") == "channels"
    assert code_layer("/a/src/repro/protocols/sequencing.py") == "protocols"
    assert code_layer(str(BENCH / "workloads.py")) == "bench"
    assert code_layer("/usr/lib/python3.11/asyncio/base_events.py") == "loop"
    assert code_layer("/usr/lib/python3.11/enum.py") is None
    assert code_layer("<string>") is None


# -- the virtual clock -------------------------------------------------------------

def test_virtual_clock_jumps_to_the_next_timer():
    loop = VirtualClockLoop()
    try:
        start = time.monotonic()
        loop.run_until_complete(asyncio.sleep(30))
        assert time.monotonic() - start < 5
        assert loop.time() >= 30
    finally:
        loop.close()


def test_virtual_clock_moves_for_a_poller_that_just_missed_its_deadline():
    # Like the retransmitter's wheel: wait out a deadline shorter than
    # the loop's clock resolution.  A clock frozen while the loop is busy
    # would spin here for ever.
    loop = VirtualClockLoop()

    async def poll():
        deadline = loop.time() + 1e-10
        for passes in range(1000):
            if loop.time() >= deadline:
                return passes
            try:
                await asyncio.wait_for(asyncio.Event().wait(),
                                       deadline - loop.time())
            except asyncio.TimeoutError:
                pass
        return None

    try:
        assert loop.run_until_complete(poll()) is not None
    finally:
        loop.close()


def test_virtual_clock_refuses_to_wait_for_nothing():
    loop = VirtualClockLoop()
    try:
        with pytest.raises(RuntimeError, match="nothing scheduled"):
            loop.run_until_complete(loop.create_future())
    finally:
        loop.close()


def test_same_seed_same_counts_in_every_mode():
    # The run is a function of the seed: profiling it, or not, changes
    # nothing the program counts, and a repeat gives the same calls.
    pytest.importorskip("repro.runtime")
    with Workers() as workers:
        first = workers.run("small-cm5", 5, "count", 0.05)
        again = workers.run("small-cm5", 5, "count", 0.05)
        timed = workers.run("small-cm5", 5, "time", 0.05)
    assert first["calls_per_msg"] == again["calls_per_msg"]
    for name in ("datagrams_per_msg", "wire_bytes_per_msg", "virtual_s",
                 "reliability.retransmissions", "loop.callbacks_per_msg"):
        assert first[name] == again[name] == timed[name], name


def test_ledger_fits_inside_the_loops_busy_time():
    # Two tasks alternate 1 ms of wrapped work with 5 ms asleep.  On the
    # virtual clock the sleep costs no real time, so the traffic's wall
    # time is all busy: the work is self time, and the rest of the loop
    # is a non-negative remainder.
    ledger = Ledger()
    loop = VirtualClockLoop()

    def spin(ns):
        end = time.perf_counter_ns() + ns
        while time.perf_counter_ns() < end:
            pass

    async def task():
        for _ in range(5):
            spin(1_000_000)
            await asyncio.sleep(0.005)

    task = ledger.wrap("work", "t:work", task)

    async def main():
        await asyncio.gather(task(), task())

    try:
        start = time.perf_counter_ns()
        loop.run_until_complete(main())
        wall = time.perf_counter_ns() - start
    finally:
        loop.close()
    values = traced_metrics(ledger.snapshot(), 1, wall)
    assert values["work.self_us_per_msg"] >= 10_000
    assert wall < 1_000_000_000          # 50 ms of sleep took no real time
    assert values["loop.unattributed_us_per_msg"] >= 0
    assert values["work.self_us_per_msg"] + values["loop.unattributed_us_per_msg"] \
        == pytest.approx(values["traced_busy_us_per_msg"])
    assert loop.counts["tasks"] == 3      # main and the two gathered


# -- workloads and statistics ------------------------------------------------------

def test_open_loop_offers_a_fixed_count_in_its_window():
    import random
    offsets = arrival_offsets(random.Random(3), 1500.0, 2.0)
    assert len(offsets) == 3000
    assert offsets == sorted(offsets) and 0 <= offsets[0] and offsets[-1] < 2.0
    assert offsets != arrival_offsets(random.Random(4), 1500.0, 2.0)


def test_summary_quartiles_match_statistics():
    stats = summary([1.0, 2.0, 3.0, 4.0, 100.0])
    assert stats["median"] == 3.0 and stats["n"] == 5
    assert stats["iqr"] == stats["q3"] - stats["q1"] > 0


# -- integrity checking ------------------------------------------------------------

def test_integrity_accepts_exactly_once_in_order():
    integrity = Integrity(lanes=2, message_words=15, seed=9)
    for k in range(5):
        for lane in (0, 1):
            assert integrity.check(lane, integrity.stamp(lane, k))
    assert integrity.ok == 10 and integrity.failed == 0


def test_integrity_catches_duplicates_misorders_and_corruption():
    integrity = Integrity(lanes=3, message_words=15, seed=9)
    first = integrity.stamp(0, 0)
    assert integrity.check(0, first)
    assert not integrity.check(0, first)                     # duplicate
    assert integrity.duplicates == 1
    integrity.stamp(1, 0)
    skipped = integrity.stamp(1, 1)
    assert not integrity.check(1, skipped)                   # index 0 never came
    assert integrity.misordered == 1
    body = integrity.stamp(2, 0)
    body[7] ^= 1
    assert not integrity.check(2, body)                      # damaged word
    assert not integrity.check(1, integrity.stamp(2, 1))     # wrong lane
    assert not integrity.check(2, body[:-1])                 # truncated
    assert integrity.corrupt == 3
    assert integrity.failed == integrity.offered - integrity.ok + 1


def test_payloads_come_from_the_seed():
    a, b = Integrity(1, 15, seed=4), Integrity(1, 15, seed=4)
    assert a.stamp(0, 3) == b.stamp(0, 3)
    assert Integrity(1, 15, seed=5).stamp(0, 3) != a.stamp(0, 3)


# -- comparison rule -----------------------------------------------------------------

def test_compare_needs_nine_wins_in_ten_and_a_gap_beyond_the_iqr():
    parent = [100.0 + i for i in range(10)]
    assert verdict(parent, [x + 20 for x in parent], "higher", 0.1)[0] == "improved"
    assert verdict(parent, [x + 0.5 for x in parent], "higher", 0.1)[0] == "unchanged"
    assert verdict(parent[:5], [x + 20 for x in parent[:5]], "higher", 0.1)[0] \
        == "too-few-pairs"


def test_compare_regression_and_unresolved():
    parent = [100.0 + i for i in range(10)]
    assert verdict(parent, [x * 1.2 for x in parent], "lower", 0.1)[0] == "regressed"
    noisy = [60.0, 140.0] * 5
    assert verdict(noisy, [x * 1.01 for x in reversed(noisy)], "higher", 0.1)[0] \
        == "unresolved"


# -- end to end ------------------------------------------------------------------------

def test_smoke_run_delivers_everything(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke",
                           "--out", str(out)], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == set(WORKLOADS)
    for name, entry in report["workloads"].items():
        assert entry["end_to_end"]["failed_share"]["value"] == 0, name
        assert entry["ledger"]["adds_up"], name
        assert entry["ledger"]["calls_add_up"], name
        assert entry["ledger"]["missing_boundaries"] == [], name
    assert report["workloads"]["rpc-open"]["extra"]["membership.false_dead"]["median"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "small-cr",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
