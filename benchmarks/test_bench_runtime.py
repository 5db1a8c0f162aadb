"""Bench: the live runtime — loopback latency and feature time shares.

Measures (a) single-packet round-trip latency over the in-process
loopback transport and (b) the per-feature wall-clock share of all three
protocols in both CM-5-like and CR transport modes, then writes the
whole data set to ``benchmarks/BENCH_runtime.json`` so downstream
tooling can track the runtime's Figure 6 reproduction over time.

Every measured run carries a hard deadline (enforced inside
``measure_live`` with ``asyncio.wait_for``), so an asyncio hang fails
the bench quickly instead of stalling it.
"""

import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.runtime import (
    CHAOS,
    LoadConfig,
    Tracer,
    gates,
    measure_live,
    measure_load,
)

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_runtime.json"

#: Accumulated across the tests in this module; the last test writes it.
RESULTS = {"rtt": {}, "protocols": {}, "collapse": {}, "reliability": {},
           "trace": {}, "fabric": {}, "overload": {}, "chaos": {},
           "cost": {}, "obs": {}, "coll": {}, "member": {}}

MESSAGE_WORDS = 512
DEADLINE = 30.0
FAULTS = {"drop_rate": 0.02, "reorder_rate": 0.25, "seed": 0x5CA1E}
#: Heavier loss profile for the reliability rows (ISSUE 2 acceptance).
HEAVY_FAULTS = {"drop_rate": 0.05, "reorder_rate": 0.25, "seed": 11}


def _measure(protocol, mode):
    kwargs = dict(FAULTS) if mode == "cm5" else {}
    start = time.perf_counter_ns()
    result = measure_live(
        protocol, mode=mode, transport="loopback",
        message_words=MESSAGE_WORDS, deadline=DEADLINE, **kwargs,
    )
    elapsed_ns = time.perf_counter_ns() - start
    assert result.completed, f"{protocol}/{mode} did not complete"
    return result, elapsed_ns


def test_loopback_single_packet_rtt(benchmark):
    """Round-trip latency of one acknowledged 16-word datagram."""

    def round_trip():
        return measure_live(
            "single", mode="cm5", transport="loopback",
            message_words=16, packet_words=16,
            deadline=DEADLINE, reorder_rate=0.0,
        )

    result = benchmark(round_trip)
    assert result.completed
    samples = [round_trip().wall_ns for _ in range(5)]
    RESULTS["rtt"] = {
        "message_words": 16,
        "wall_ns_median": statistics.median(samples),
        "wall_ns_min": min(samples),
        "wall_ns_max": max(samples),
    }


@pytest.mark.parametrize("mode", ["cm5", "cr"])
@pytest.mark.parametrize("protocol", ["single", "finite", "indefinite"])
def test_time_shares(protocol, mode):
    """Per-feature wall-clock shares for every protocol x mode cell."""
    result, elapsed_ns = _measure(protocol, mode)
    breakdown = result.breakdown()
    RESULTS["protocols"][f"{protocol}/{mode}"] = {
        "message_words": result.message_words,
        "packets_sent": result.packets_sent,
        "wall_ns": result.wall_ns,
        "harness_ns": elapsed_ns,
        "retransmissions": result.retransmissions,
        "duplicates": result.duplicates,
        "drops_injected": result.drops_injected,
        "wire": {
            "data_datagrams": result.data_datagrams,
            "ack_datagrams": result.acks,
            "acks_per_data": result.acks_per_data,
            "retransmitted_bytes": result.retransmitted_bytes,
        },
        "breakdown": breakdown.to_dict(),
    }
    cell = f"{protocol}/{mode}"
    assert gates.protocols({cell: RESULTS["protocols"][cell]}) == []


@pytest.mark.parametrize("protocol", ["single", "finite", "indefinite"])
def test_figure6_collapse_direction(protocol):
    """CR mode's ordering+fault share collapses relative to CM-5 mode."""
    cm5 = RESULTS["protocols"].get(f"{protocol}/cm5")
    cr = RESULTS["protocols"].get(f"{protocol}/cr")
    if cm5 is None or cr is None:
        pytest.skip("share measurements did not run")
    RESULTS["collapse"][protocol] = {
        "cm5_ordering_fault_share": gates.ordering_fault_share(cm5),
        "cr_ordering_fault_share": gates.ordering_fault_share(cr),
    }
    assert gates.collapse(
        {protocol: RESULTS["collapse"][protocol]}) == []


def test_selective_repeat_savings_under_heavy_drops():
    """Bulk transfer at 5% drop: selective repeat must resend far fewer
    data bytes than a go-back-N round would have."""
    # 4096 words (256 packets): frame batching coalesces small DATA
    # frames into containers, so the hub sees far fewer datagrams than
    # packets — a 1024-word run leaves this seed too few Bernoulli
    # trials to inject any drop at all.
    start = time.perf_counter_ns()
    result = measure_live(
        "finite", mode="cm5", transport="loopback",
        message_words=4096, deadline=DEADLINE, **HEAVY_FAULTS,
    )
    elapsed_ns = time.perf_counter_ns() - start
    assert result.completed
    assert result.drops_injected > 0, "fault profile injected no drops"
    resent = result.detail["retransmitted_data_bytes"]
    gbn = result.detail["goback_n_equivalent_bytes"]
    assert gbn > 0, "no data packet needed retransmission; seed too mild"
    savings = (gbn - resent) / gbn
    RESULTS["reliability"]["bulk_selective_repeat"] = {
        "message_words": 4096,
        "faults": HEAVY_FAULTS,
        "harness_ns": elapsed_ns,
        "retransmitted_data_bytes": resent,
        "goback_n_equivalent_bytes": gbn,
        "selective_repeat_savings": savings,
        "data_rounds": result.detail["data_rounds"],
    }
    assert gates.reliability(RESULTS["reliability"]) == []


def test_ack_coalescing_under_heavy_drops():
    """Ordered channel at 5% drop: cumulative + delayed acks must keep
    the ack rate under its bound."""
    start = time.perf_counter_ns()
    result = measure_live(
        "indefinite", mode="cm5", transport="loopback",
        message_words=4096, deadline=DEADLINE, **HEAVY_FAULTS,
    )
    elapsed_ns = time.perf_counter_ns() - start
    assert result.completed
    RESULTS["reliability"]["ordered_ack_coalescing"] = {
        "message_words": 4096,
        "faults": HEAVY_FAULTS,
        "harness_ns": elapsed_ns,
        "data_datagrams": result.data_datagrams,
        "ack_datagrams": result.acks,
        "acks_per_data": result.acks_per_data,
        "immediate_acks": result.detail["immediate_acks"],
        "delayed_acks": result.detail["delayed_acks"],
    }
    assert gates.reliability(RESULTS["reliability"]) == []


def test_trace_overhead():
    """Tracing must be near-free when off and affordable when on.

    Runs a CPU-dominated workload (ordered channel, CR mode: no
    retransmit or delayed-ack timers) with tracing off and on,
    interleaved so machine drift hits both sides equally.  Uses the
    attribution CPU total (``result.total_ns`` — exactly the
    instrumented code paths) with the min estimator.  The off path is
    gated by a call budget, not a time: see
    ``tests/runtime/test_runtime_endpoint.py``.
    """
    words = 4096

    def run(tracer=None):
        result = measure_live(
            "indefinite", mode="cr", transport="loopback",
            message_words=words, deadline=DEADLINE, tracer=tracer,
        )
        assert result.completed
        return result.total_ns, result.wall_ns

    run()
    run(Tracer())  # warm both paths before sampling
    off_cpu, off_wall, on_cpu, on_wall = [], [], [], []
    for _ in range(9):
        cpu, wall = run()
        off_cpu.append(cpu)
        off_wall.append(wall)
        cpu, wall = run(Tracer())
        on_cpu.append(cpu)
        on_wall.append(wall)
    off_min, on_min = min(off_cpu), min(on_cpu)
    overhead_pct = (on_min - off_min) / off_min * 100.0
    RESULTS["trace"] = {
        "workload": f"indefinite/cr {words} words",
        "samples": len(off_cpu),
        "cpu_ns_on_min": on_min,
        "wall_ns_off_median": statistics.median(off_wall),
        "wall_ns_on_median": statistics.median(on_wall),
        "trace_overhead_pct": overhead_pct,
    }
    # Generous sanity bound (tracing on trades speed for per-event
    # detail).
    assert gates.trace(RESULTS["trace"]) == []


@pytest.mark.parametrize("mode", ["cm5", "cr"])
def test_observability_overhead(mode):
    """Journey observability: near-free off, measured and bounded on.

    The cross-peer journey machinery (wire-propagated trace context,
    FLUSH events, per-frame arrival stamping) only exists on the traced
    path; the untraced path is held by a call budget in the tier-1
    tests.  The journey-on overhead is recorded (documented, not gated beyond a
    sanity ceiling), and the reconstruction itself must clear the
    tentpole bars: nearly every delivered message reconstructs into a
    complete journey whose stage sum matches the end-to-end latency.
    """
    from repro.analysis.journey import journey_stats, reconstruct_journeys

    words = 2048
    kwargs = dict(FAULTS) if mode == "cm5" else {}

    def run(tracer=None):
        result = measure_live(
            "indefinite", mode=mode, transport="loopback",
            message_words=words, deadline=DEADLINE, tracer=tracer,
            **kwargs,
        )
        assert result.completed
        return result.total_ns

    run()
    run(Tracer())  # warm both paths before sampling
    off_cpu, on_cpu = [], []
    tracer = None
    for _ in range(7):
        off_cpu.append(run())
        tracer = Tracer()
        on_cpu.append(run(tracer))
    stats = journey_stats(reconstruct_journeys(tracer.events()))
    off_min, on_min = min(off_cpu), min(on_cpu)
    overhead_pct = (on_min - off_min) / off_min * 100.0
    RESULTS["obs"][f"obs/{mode}"] = {
        "workload": f"indefinite/{mode} {words} words",
        "samples": len(off_cpu),
        "cpu_ns_on_min": on_min,
        "journey_overhead_pct": overhead_pct,
        "journey_coverage": stats.coverage,
        "worst_stage_error": stats.worst_stage_error,
    }
    assert gates.obs({f"obs/{mode}": RESULTS["obs"][f"obs/{mode}"]}) == []


#: Peer counts for the fabric scaling rows (the ISSUE 4 acceptance set,
#: extended to p64 for the membership-scaling acceptance).
FABRIC_PEERS = (2, 8, 32, 64)
FABRIC_LOAD = dict(channels=8, messages=8, message_words=32,
                   packet_words=16, drop_rate=0.02, reorder_rate=0.1,
                   seed=0x5CA1E, deadline=DEADLINE)


@pytest.mark.parametrize("mode", ["cm5", "cr"])
@pytest.mark.parametrize("peers", FABRIC_PEERS)
def test_fabric_load_scaling(peers, mode):
    """M concurrent channels x K messages across P peers, both modes.

    Every cell must deliver everything; CR cells must run none of the
    ordering/fault machinery at any peer count.
    """
    faults = dict(FABRIC_LOAD) if mode == "cm5" else {
        **FABRIC_LOAD, "drop_rate": 0.0, "reorder_rate": 0.0}
    start = time.perf_counter_ns()
    result = measure_load(LoadConfig(peers=peers, mode=mode, **faults))
    elapsed_ns = time.perf_counter_ns() - start
    record = result.to_record()
    record["harness_ns"] = elapsed_ns
    RESULTS["fabric"][f"{mode}/p{peers}"] = record
    assert gates.fabric({f"{mode}/p{peers}": record}) == [], result.errors


@pytest.mark.parametrize("peers", FABRIC_PEERS)
def test_fabric_collapse_at_every_peer_count(peers):
    """Figure 6's collapse must survive many-peer fan-out."""
    cm5 = RESULTS["fabric"].get(f"cm5/p{peers}")
    cr = RESULTS["fabric"].get(f"cr/p{peers}")
    if cm5 is None or cr is None:
        pytest.skip("fabric load measurements did not run")
    assert gates.fabric({f"cm5/p{peers}": cm5, f"cr/p{peers}": cr}) == []


def test_cost_breakdown_rows():
    """Per-message critical-path cost breakdown, both modes.

    Beyond publishing the ``cost/{mode}`` rows, gate the structural
    facts the overhaul established — each disabled fast path undercuts
    its enabled twin, and the batched send path undercuts the old
    task-per-frame design — which hold on any machine, unlike raw
    nanosecond readings.
    """
    from repro.analysis.costbreakdown import measure_costs

    for mode in ("cm5", "cr"):
        report = measure_costs(mode, ops=1000, rounds=3)
        RESULTS["cost"][f"cost/{mode}"] = report.to_dict()
    assert gates.cost(RESULTS["cost"]) == []


#: Overload shape for the survival rows (the ISSUE 6 acceptance set):
#: a small fabric offered 10x its paced load over credit-metered,
#: audited channels.
OVERLOAD_LOAD = dict(peers=3, channels=8, messages=8, message_words=32,
                     packet_words=16, drop_rate=0.02, reorder_rate=0.1,
                     seed=0x5CA1E, deadline=DEADLINE, audit=True)
OVERLOAD_FACTOR = 10.0


@pytest.mark.parametrize("mode", ["cm5", "cr"])
def test_overload_survival(mode):
    """10x offered load over credit-metered channels, both modes.

    The overload contract: the run finishes, peak buffer occupancies
    stay inside their advertised windows (the reorder buffer bounded by
    its window, the receive buffer by the credit grant, the
    retransmitter tracked set by the send window), the exactly-once
    audit stays clean (shed messages are counted, never stamped, never
    silently lost), and delivered throughput retains most of the same
    mode's 1x baseline — graceful degradation, not collapse.
    """
    faults = dict(OVERLOAD_LOAD) if mode == "cm5" else {
        **OVERLOAD_LOAD, "drop_rate": 0.0, "reorder_rate": 0.0}
    for factor in (1.0, OVERLOAD_FACTOR):
        start = time.perf_counter_ns()
        result = measure_load(
            LoadConfig(mode=mode, overload=factor, **faults))
        elapsed_ns = time.perf_counter_ns() - start
        record = result.to_record()
        record["harness_ns"] = elapsed_ns
        RESULTS["overload"][f"overload/{mode}/{factor:g}x"] = record
    rows = {cell: record for cell, record in RESULTS["overload"].items()
            if record["mode"] == mode}
    _factor, retained = gates.retained_throughput(rows)[mode]
    rows[f"overload/{mode}/{OVERLOAD_FACTOR:g}x"][
        "throughput_retained_vs_1x"] = retained
    assert gates.overload(rows) == []


#: Chaos soak shape for the bench rows (the ISSUE 5 acceptance set) —
#: small enough for CI, hot enough that every scripted fault lands on
#: live traffic.  ``overload-partition`` (ISSUE 6) drags a partition
#: through credit-metered traffic and must recover every blocked sender.
CHAOS_SCENARIOS = ("partition-heal", "crash-restart", "rolling-flap",
                   "burst-loss", "overload-partition", "crash-permanent",
                   "latency-spike-no-false-dead")


def _chaos_config(mode):
    return replace(CHAOS, mode=mode, peers=4, channels=4, messages=24,
                   send_interval=0.01, deadline=DEADLINE)


@pytest.mark.parametrize("mode", ["cm5", "cr"])
@pytest.mark.parametrize("scenario", CHAOS_SCENARIOS)
def test_chaos_scenarios(scenario, mode):
    """Scripted fault scenarios end in a clean exactly-once audit.

    Every cell is gated by ``gates.chaos``: zero audit violations
    (duplicates, misorders, checksum failures, or silent loss outside
    broken lanes), failure-detection latency within the SWIM detector's
    configured bound on crash scenarios, and refutation instead of
    false DEAD verdicts under the latency spike.
    """
    start = time.perf_counter_ns()
    result = measure_load(_chaos_config(mode), scenario)
    elapsed_ns = time.perf_counter_ns() - start
    record = result.to_record()
    record["harness_ns"] = elapsed_ns
    RESULTS["chaos"][f"{scenario}/{mode}"] = record
    assert gates.chaos({f"{scenario}/{mode}": record}) == []


#: Fabric sizes for the membership scaling rows.  The acceptance claim
#: is that the per-peer control-frame rate is a constant of the probe
#: fan-out k — flat from p8 to p64 — while detection latency stays
#: inside the configured bound at every size.
MEMBER_PEERS = (8, 32, 64)
#: Bench rows run on loaded CI machines; a roomier suspicion window
#: keeps the detection gate meaningful without flaking (the bound is
#: still well under a second).
MEMBER_CONFIG = dict(suspect_timeout=0.12)


@pytest.mark.parametrize("mode", ["cm5", "cr"])
@pytest.mark.parametrize("peers", MEMBER_PEERS)
def test_membership_scaling(peers, mode):
    """SWIM detection latency and control load at p8/p32/p64.

    Gated in-test on: the crash detected within the configured bound,
    zero false DEAD verdicts, and the per-peer per-period control-frame
    rate under its k/j constant bound.
    """
    from repro.runtime import SwimConfig, measure_membership

    start = time.perf_counter_ns()
    record = measure_membership(peers, mode=mode,
                                config=SwimConfig(**MEMBER_CONFIG))
    record["harness_ns"] = time.perf_counter_ns() - start
    RESULTS["member"][f"{mode}/p{peers}"] = record
    assert gates.member({f"{mode}/p{peers}": record}) == []


@pytest.mark.parametrize("mode", ["cm5", "cr"])
def test_membership_control_load_is_flat(mode):
    """The SWIM scaling claim: growing the fabric 8x must not grow the
    per-peer control-frame rate (pairwise beacons would scale it
    linearly with the peer count)."""
    rows = {cell: record for cell, record in RESULTS["member"].items()
            if record["mode"] == mode}
    if len(rows) < 2:
        pytest.skip("membership scaling measurements did not run")
    assert gates.member(rows) == []


@pytest.mark.parametrize("mode", ["cm5", "cr"])
def test_collective_ops(mode):
    """Every collective op completes on the live fabric in both
    substrate modes with a verified (broadcast: ledger-audited
    exactly-once) payload; rows land at ``coll/{op}/{mode}``."""
    import asyncio

    from repro.runtime import COLLECTIVE_OPS
    from repro.runtime.collectives import measure_collective_ops

    measured = asyncio.run(asyncio.wait_for(
        measure_collective_ops(mode=mode, peers=4, payload_words=96),
        DEADLINE))
    assert {row["op"] for row in measured["rows"]} == set(COLLECTIVE_OPS)
    rows = {f"coll/{row['op']}/{mode}": row for row in measured["rows"]}
    RESULTS["coll"].update(rows)
    assert gates.coll(rows) == []


def test_collective_crossover():
    """The measured eager/rendezvous crossover exists and points the
    right way: eager wins the smallest payload, rendezvous the
    largest."""
    import asyncio

    from repro.runtime.collectives import measure_crossover

    sweep = asyncio.run(asyncio.wait_for(
        measure_crossover(sizes=(16, 256, 1024, 4096), reps=3),
        120.0))
    sweep.pop("records")
    RESULTS["coll"]["coll/crossover"] = sweep
    assert gates.coll({"coll/crossover": sweep}) == [], (
        sweep["eager_ns"], sweep["rendezvous_ns"])


@pytest.mark.parametrize("mode", ["cm5", "cr"])
def test_collective_partition_broadcast(mode):
    """A broadcast driven through a partition-heal completes with a
    clean exactly-once audit at every receiving peer."""
    import asyncio

    from repro.runtime.collectives import run_broadcast_partition

    out = asyncio.run(asyncio.wait_for(run_broadcast_partition(
        mode=mode, peers=4, rounds=3, payload_words=64,
        heal_after=0.15), 60.0))
    out.pop("records")
    RESULTS["coll"][f"coll/partition/{mode}"] = out
    assert gates.coll({f"coll/partition/{mode}": out}) == []


def test_write_bench_json():
    """Emit the machine-readable results (runs last in this module)."""
    if not RESULTS["protocols"]:
        pytest.skip("no measurements to write")
    payload = {
        "bench": "runtime",
        "transport": "loopback",
        "message_words": MESSAGE_WORDS,
        "faults_cm5_mode": FAULTS,
        **RESULTS,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    written = json.loads(BENCH_JSON.read_text())
    assert written["protocols"], "emitter wrote an empty result set"
