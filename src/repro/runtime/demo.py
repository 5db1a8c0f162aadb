"""CLI entry points for the live runtime (``python -m repro runtime``).

Every subcommand's ``run_*`` function lives here, wired up by
:func:`add_runtime_subparsers`.  The two that answer the paper's
question directly:

* ``demo`` — run one protocol (or all three with ``--protocol all``)
  over a fault-injecting CM-5-mode transport, show that the transfer
  survives the injected faults, then rerun in CR mode and print the
  measured Figure 6 comparison: the ordering + fault-tolerance time
  share collapsing once the network provides the services.  ``--json``
  writes the per-run records.
* ``journey`` — run every protocol × mode cell with event tracing on,
  reconstruct each message's cross-peer journey, gate coverage and
  stage sums, and export journeys, a Chrome/Perfetto trace, or the raw
  events.

Each cell of both is a :func:`~repro.runtime.loadgen.protocol_cell`
load run.  ``demo`` and ``chaos`` also take ``--trace FILE`` to record
the runs they already do and export them as a Chrome/Perfetto trace.
``demo``, ``journey``, ``load`` and ``chaos`` share one parent parser
for the fault and deadline fields (:data:`LOAD_OPTIONS`).
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.analysis.timeshare import (
    fabric_collapse,
    render_chaos_features,
    render_chaos_table,
    render_fabric_features,
    render_fabric_sweep,
    render_mode_comparison,
    render_overload_curve,
    render_time_table,
)
from repro.analysis.journey import (
    Journey,
    export_journeys_jsonl,
    journey_flows,
    journey_spans,
    journey_stats,
    reconstruct_journeys,
    render_journey_table,
    render_stage_summary,
)
from repro.analysis.timeline import build_timeline
from repro.runtime import gates
from repro.runtime.chaos import SCENARIOS
from repro.runtime.loadgen import (
    CHAOS,
    PROTOCOL_NAMES,
    LoadConfig,
    measure_load,
    protocol_cell,
    sweep_overload,
)
from repro.runtime.tracing import (
    DEFAULT_CAPACITY,
    TraceEvent,
    Tracer,
    export_chrome_trace,
    export_jsonl,
)


def _export_chrome(path: str, events: List[TraceEvent],
                   journeys: Optional[List[Journey]] = None) -> None:
    """Write the events, their journey stage spans and flow arrows to
    ``path`` as a Chrome/Perfetto trace, with the events' timeline as
    counter tracks, so throughput/occupancy curves render under them.

    ``journeys`` are the events' reconstruction, when the caller has
    already made it."""
    if journeys is None:
        journeys = reconstruct_journeys(events)
    with open(path, "w") as fh:
        count = export_chrome_trace(
            events, fh, spans=journey_spans(journeys),
            flows=journey_flows(journeys),
            counters=build_timeline(events).counter_tracks(),
        )
    print(f"wrote {path} ({count} chrome records, "
          f"{sum(1 for j in journeys if j.complete)} complete journeys)")


def _export_timeline(path: str, tracer: Tracer) -> None:
    """Print the trace's ASCII timeline and write it to ``path`` (JSONL)."""
    timeline = build_timeline(tracer.events(), tracer.overwritten)
    print(timeline.render())
    print()
    with open(path, "w") as fh:
        count = timeline.export_jsonl(fh)
    print(f"wrote {path} ({count} timeline records, "
          f"{len(timeline.marks)} marks)")


def _cell(args, protocol: str, mode: str,
          transport: str = "loopback") -> LoadConfig:
    """The ``demo``/``journey`` cell of ``protocol`` in ``mode``."""
    return _with_options(protocol_cell(
        protocol, args.packets, args.packet_words, mode=mode,
        transport=transport), args)


def run_demo(args) -> int:
    """The ``runtime demo`` command; returns a process exit code."""
    protocols = list(PROTOCOL_NAMES) if args.protocol == "all" else [args.protocol]
    # CR mode is a loopback-hub service; UDP has no such switch.
    modes = ("cm5", "cr") if args.transport == "loopback" else ("cm5",)
    failures = 0
    records: List[Dict[str, Any]] = []
    tracer = Tracer(capacity=args.trace_capacity) if args.trace else None

    print("repro live runtime — the paper's protocols over real transports\n")
    for protocol in protocols:
        print(
            f"== {protocol}: {args.packets} packets x {args.packet_words} words "
            f"over {args.transport} "
            f"(drop={args.drop_rate:.0%}, dup={args.dup_rate:.0%}, "
            f"reorder={args.reorder_rate:.0%}) =="
        )
        cells: Dict[str, Dict[str, Any]] = {}
        for mode in modes:
            result = measure_load(_cell(args, protocol, mode, args.transport),
                                  tracer=tracer)
            record = cells[mode] = result.to_record()
            records.append(record)
            problems = gates.protocols({f"{protocol}/{mode}": record})
            failures += len(problems)
            wire = result.wire
            print(
                f"  [{'FAIL' if problems else 'ok'}] {mode} mode: delivered "
                f"{result.messages_delivered}/{result.messages_sent} messages "
                f"in {result.wall_ns / 1e6:.1f} ms wall (drops injected: "
                f"{wire.get('dropped', 0)}, retransmissions: "
                f"{wire['retransmissions']}, data/ack datagrams: "
                f"{wire['data_datagrams']}/{wire['ack_datagrams']}, "
                f"acks per data: {result.acks_per_data:.2f})"
            )
            gbn = result.counter("goback_n_equivalent_bytes")
            if gbn:
                resent = result.counter("retransmitted_data_bytes")
                print(f"        selective repeat resent {resent} of the "
                      f"{gbn} bytes go-back-N would have "
                      f"({(gbn - resent) / gbn:.0%} saved)")
            for problem in problems:
                print(f"        {problem}")
        print()
        if "cr" not in cells:
            print(render_time_table(cells["cm5"]))
            print()
            continue
        print(render_mode_comparison(cells["cm5"], cells["cr"]))
        collapse = fabric_collapse(list(cells.values()))[(protocol, 2)]
        problems = gates.collapse({protocol: collapse})
        failures += len(problems)
        print(
            f"  [{'FAIL' if problems else 'ok'}] ordering + fault-tolerance "
            f"share: {collapse['cm5_ordering_fault_share']:.0%} (CM-5) -> "
            f"{collapse['cr_ordering_fault_share']:.0%} (CR) — "
            + ("did NOT collapse" if problems
               else "collapses, matching Figure 6's direction")
        )
        for problem in problems:
            print(f"        {problem}")
        print()

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(records, fh, indent=2)
        print(f"wrote {args.json}")
    if tracer is not None:
        _export_chrome(args.trace, tracer.events())
    if failures:
        print(f"{failures} check(s) FAILED")
        return 1
    print("live runtime checks passed.")
    return 0


def run_journey(args) -> int:
    """The ``runtime journey`` command; returns a process exit code.

    Runs every protocol × mode cell on the loopback fabric with tracing
    enabled, merges both endpoints' event rings, and reconstructs each
    delivered message's *cross-peer journey* from the wire-propagated
    trace context: sender queue wait → batch-flush wait → wire →
    decode → reorder park → deliver, plus the ack return leg.  Gates
    every cell with :func:`repro.runtime.gates.journeys`: enough
    delivered messages reconstruct into complete journeys, and every
    journey's stage sum matches its end-to-end latency.  ``--out``
    writes the journeys (``jsonl``), a Chrome/Perfetto trace with stage
    spans and flow arrows (``chrome``), or the raw events (``events``).
    """
    failures = 0
    all_journeys: List[Journey] = []
    all_events: List[TraceEvent] = []

    print("repro journey — cross-peer critical-path decomposition\n")
    for protocol in PROTOCOL_NAMES:
        for mode in ("cm5", "cr"):
            label = f"{protocol}/{mode}"
            tracer = Tracer(capacity=args.trace_capacity)
            result = measure_load(_cell(args, protocol, mode), tracer=tracer)
            events = tracer.events()
            journeys = reconstruct_journeys(events)
            stats = journey_stats(journeys)
            problems = gates.journeys(
                {label: {"journey_coverage": stats.coverage,
                         "worst_stage_error": stats.worst_stage_error}})
            ok = result.completed and not problems
            if not ok:
                failures += 1
            print(
                f"  [{'ok' if ok else 'FAIL'}] {label}: "
                f"{stats.complete}/{stats.delivered} journeys complete "
                f"({100.0 * stats.coverage:.1f}% coverage), "
                f"{stats.context_matched} context-matched, "
                f"{stats.retransmitted} retransmitted, "
                f"worst stage-sum error "
                f"{100.0 * stats.worst_stage_error:.2f}%"
            )
            for problem in problems:
                print(f"        {problem}")
            if tracer.overwritten:
                print(f"        (ring wrapped: {tracer.overwritten} oldest "
                      "events overwritten; raise --trace-capacity)")
            all_journeys.extend(journeys)
            all_events.extend(events)

    print()
    print(render_journey_table(all_journeys, limit=args.limit))
    print()
    print(render_stage_summary(journey_stats(all_journeys)))
    print()
    if args.out and args.format == "chrome":
        _export_chrome(args.out, all_events, all_journeys)
    elif args.out:
        with open(args.out, "w") as fh:
            if args.format == "jsonl":
                count = export_journeys_jsonl(all_journeys, fh)
            else:
                count = export_jsonl(all_events, fh)
        print(f"wrote {args.out} ({count} {args.format} records)")
    if failures:
        print(f"{failures} journey cell(s) FAILED")
        return 1
    print("journey checks passed: cross-peer stage sums match the "
          "end-to-end latency.")
    return 0


def run_overload_cmd(args, modes) -> int:
    """The ``runtime load --overload`` branch: the survival curve.

    Runs the fabric at 1x..10x offered load with every channel
    credit-metered and audited, then gates on the overload contract:
    every cell finishes, nothing delivered violates exactly-once
    ordering, peak buffer occupancies stay inside their advertised
    windows, and delivered throughput at the highest factor retains at
    least half of the same mode's 1x baseline — graceful degradation,
    not collapse.
    """
    channels, messages, message_words = (
        args.channels, args.messages, args.message_words)
    factors = (1.0, 2.0, 5.0, 10.0)
    if args.smoke:
        channels = min(channels, 4)
        messages = min(messages, 8)
        message_words = min(message_words, 32)
        factors = (1.0, 10.0)
    peers = int(args.peers.split(",")[0])
    base = _with_options(LoadConfig(
        peers=peers, channels=channels, messages=messages,
        message_words=message_words), args)
    print("repro fabric overload — credit-metered survival curve\n")
    rows: Dict[str, Dict[str, Any]] = {}
    tracer = Tracer() if args.timeline else None
    results = sweep_overload(base, factors=factors, modes=modes,
                             tracer=tracer)
    for result in results:
        cell = f"overload/{result.config.mode}/{result.config.overload:g}x"
        rows[cell] = result.to_record()
        ok = not gates.overload({cell: rows[cell]})
        print(f"  [{'ok' if ok else 'FAIL'}] "
              f"{result.config.mode} {result.config.overload:g}x: {result}")
        for error in result.errors:
            print(f"        {error}")
    for mode, (factor, retained) in gates.retained_throughput(rows).items():
        print(f"  {mode}: throughput at {factor:g}x retains {retained:.0%} "
              "of the 1x baseline")
    problems = gates.overload(rows)
    for problem in problems:
        print(f"  [FAIL] {problem}")
    records = list(rows.values())
    print()
    print(render_overload_curve(records))
    print()
    if tracer is not None:
        _export_timeline(args.timeline, tracer)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(records, fh, indent=2)
        print(f"wrote {args.json}")
    if problems:
        print(f"{len(problems)} overload check(s) FAILED")
        return 1
    print("overload checks passed: graceful degradation, bounded buffers, "
          "clean audit.")
    return 0


def run_load_cmd(args) -> int:
    """The ``runtime load`` command; returns a process exit code.

    Drives M concurrent ordered channels × K framed messages across P
    fabric peers, sweeping peer count and (by default) both transport
    modes, then checks that every cell delivered everything and that
    the CM-5-vs-CR ordering + fault-tolerance share collapses at every
    peer count — Figure 6's direction, under many-peer fan-out.

    With ``--overload``, runs the overload survival curve instead: the
    same fabric at 1x..10x offered load with credit-metered channels.
    """
    peer_counts = [int(p) for p in args.peers.split(",")]
    modes = ("cm5", "cr") if args.mode == "both" else (args.mode,)
    if args.overload:
        return run_overload_cmd(args, modes)
    channels, messages, message_words = (
        args.channels, args.messages, args.message_words)
    if args.smoke:
        channels = min(channels, 8)
        messages = min(messages, 4)
        message_words = min(message_words, 32)

    print("repro fabric load — M channels x K messages across P peers\n")
    rows: Dict[str, Dict[str, Any]] = {}
    tracer = Tracer() if args.timeline else None
    for peers in peer_counts:
        for mode in modes:
            config = _with_options(LoadConfig(
                peers=peers, channels=channels, messages=messages,
                message_words=message_words, mode=mode), args)
            result = measure_load(config, tracer=tracer)
            cell = f"{mode}/p{peers}"
            rows[cell] = result.to_record()
            ok = not gates.fabric({cell: rows[cell]})
            print(f"  [{'ok' if ok else 'FAIL'}] {result}")
            for error in result.errors:
                print(f"        {error}")

    records = list(rows.values())
    print()
    print(render_fabric_sweep(records))
    print()
    print(render_fabric_features(records))
    print()
    for (_protocol, peers), cell in fabric_collapse(records).items():
        collapsed = not gates.collapse({peers: cell})
        print(
            f"  [{'ok' if collapsed else 'FAIL'}] P={peers}: ordering + "
            f"fault-tolerance share {cell['cm5_ordering_fault_share']:.0%} "
            f"(CM-5) -> {cell['cr_ordering_fault_share']:.0%} (CR) — "
            + ("collapses" if collapsed else "did NOT collapse")
        )
    problems = gates.fabric(rows)
    for problem in problems:
        print(f"  [FAIL] {problem}")
    print()

    if tracer is not None:
        _export_timeline(args.timeline, tracer)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(records, fh, indent=2)
        print(f"wrote {args.json}")
    if problems:
        print(f"{len(problems)} check(s) FAILED")
        return 1
    print("fabric load checks passed.")
    return 0


def run_chaos_cmd(args) -> int:
    """The ``runtime chaos`` command; returns a process exit code.

    Soaks every requested scenario × mode cell: scripted faults against
    paced, audited traffic, with the SWIM detector running.  A cell
    passes :func:`repro.runtime.gates.chaos`: its end-to-end audit is
    clean (exactly-once, in-order delivery; permanently dead peers
    surface as *typed* ``ChannelBroken`` lanes, never silent loss), crash
    scenarios detect the victim within the detector's configured bound,
    and the latency spike is refuted with zero DEAD verdicts.
    """
    scenarios = (sorted(SCENARIOS) if args.scenario == "all"
                 else [args.scenario])
    modes = ("cm5", "cr") if args.mode == "both" else (args.mode,)
    base = _with_options(replace(
        CHAOS, peers=args.peers, channels=args.lanes, messages=args.messages,
        message_words=args.message_words, corrupt_rate=args.corrupt_rate,
    ), args)
    if args.smoke:
        base = replace(base, peers=min(base.peers, 4),
                       channels=min(base.channels, 4),
                       messages=min(base.messages, 16))

    print("repro chaos soak — scripted faults, detection, recovery, audit\n")
    records: List[Dict[str, Any]] = []
    failures = 0
    tracer = (Tracer(capacity=args.trace_capacity)
              if args.trace or args.timeline else None)
    for scenario in scenarios:
        for mode in modes:
            result = measure_load(replace(base, mode=mode), scenario,
                                  tracer=tracer)
            records.append(result.to_record())
            problems = gates.chaos({f"{scenario}/{mode}": records[-1]})
            if problems:
                failures += 1
            print(f"  [{'FAIL' if problems else 'ok'}] {result}")
            for problem in problems:
                print(f"        {problem}")
            for cid, reason in result.broken_lanes:
                print(f"        lane {cid} broke: {reason}")

    print()
    print(render_chaos_table(records))
    print()
    print(render_chaos_features(records))
    print()
    if args.timeline:
        _export_timeline(args.timeline, tracer)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(records, fh, indent=2)
        print(f"wrote {args.json}")
    if args.trace:
        _export_chrome(args.trace, tracer.events())
    if failures:
        print(f"{failures} chaos cell(s) FAILED")
        return 1
    print("chaos checks passed: every scenario ended with a clean "
          "exactly-once audit.")
    return 0


def run_member_cmd(args) -> int:
    """The ``runtime member`` command; returns a process exit code.

    Runs the SWIM membership lifecycle soak — steady state, graceful
    leave, latency spike, crash, restart — in each requested substrate
    mode, and (unless ``--no-scale``) the detection-latency/control-load
    scaling measurement at each ``--scale-peers`` fabric size.  A soak
    passes when every phase is ok: control load under its k/j bound,
    LEFT everywhere with zero false accusations, the spike survived with
    zero DEAD verdicts, the crash detected within the configured bound,
    and the restart rejoined under a bumped incarnation.  The scaling
    rows pass :func:`repro.runtime.gates.member`, flatness of the
    per-peer control rate across sizes included.
    """
    from repro.runtime.membership import (
        SwimConfig,
        measure_membership,
        measure_membership_soak,
    )

    modes = ("cm5", "cr") if args.mode == "both" else (args.mode,)
    peers = min(args.peers, 8) if args.smoke else args.peers
    scale_peers = ((8, 16) if args.smoke else tuple(args.scale_peers))
    config = SwimConfig(period=args.period, probes=args.probes,
                        proxies=args.proxies,
                        suspect_timeout=args.suspect_timeout)

    print("repro membership soak — SWIM gossip failure detection\n")
    failures = 0
    records: List[Dict[str, Any]] = []
    scale_rows: Dict[str, Dict[str, Any]] = {}
    events: List[Dict[str, Any]] = []
    for mode in modes:
        soak = measure_membership_soak(peers, mode=mode, config=config)
        records.append(soak)
        events.extend(soak.pop("events"))
        ok = soak["ok"]
        if not ok:
            failures += 1
        print(f"  [{'ok' if ok else 'FAIL'}] member soak {mode}/p{peers}")
        for phase, data in soak["phases"].items():
            detail = {k: (f"{v:.3f}" if isinstance(v, float) else v)
                      for k, v in data.items() if k != "ok"}
            print(f"        {phase:<14} "
                  f"{'ok' if data['ok'] else 'FAIL'}  {detail}")
        for problem in soak["problems"]:
            print(f"        {problem}")
        if args.no_scale:
            continue
        for count in scale_peers:
            row = measure_membership(count, mode=mode, config=config)
            records.append(row)
            scale_rows[f"{mode}/p{count}"] = row
            row_ok = not gates.member({f"{mode}/p{count}": row})
            latency = row["detection_latency_s"]
            detect = (f"detect {latency:.3f}s" if latency is not None
                      else "crash missed")
            print(f"  [{'ok' if row_ok else 'FAIL'}] "
                  f"member scale {mode}/p{count}: {detect} "
                  f"(bound {row['detection_bound_s']:.3f}s), "
                  f"{row['control_frames_per_peer_per_period']:.1f} "
                  f"ctrl frames/peer/period "
                  f"(bound {row['control_bound_per_period']:.1f})")
    problems = gates.member(scale_rows)
    for problem in problems:
        print(f"  [FAIL] {problem}")
    failures += len(problems)

    print()
    if args.events:
        with open(args.events, "w") as fh:
            for event in events:
                fh.write(json.dumps(event) + "\n")
        print(f"wrote {len(events)} membership events to {args.events}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(records, fh, indent=2)
        print(f"wrote {args.json}")
    if failures:
        print(f"{failures} membership cell(s) FAILED")
        return 1
    print("membership checks passed: bounded detection, zero false "
          "verdicts, graceful leave, refutation, and rejoin.")
    return 0


def run_collect_cmd(args) -> int:
    """The ``runtime collect`` command; returns a process exit code.

    Three stages, each gated:

    1. the **crossover sweep** — the same broadcast at every payload
       size under eager and rendezvous *forced*, on a fault-free wire
       with real per-datagram latency; passes when eager wins at the
       smallest size, rendezvous at the largest, and a crossover size
       exists between them;
    2. the **op matrix** — broadcast, scatter, gather, and all-reduce
       in auto-switch mode on both substrate modes; passes when every
       op completes with a verified (broadcast: ledger-audited
       exactly-once) payload;
    3. the **partition chaos scenario** — broadcasts driven through a
       scripted partition-heal in both modes; passes when every
       receiving peer's independent audit is clean.
    """
    import asyncio

    from repro.runtime.collectives import (
        CROSSOVER_SIZES,
        measure_collective_ops,
        measure_crossover,
        run_broadcast_partition,
    )

    modes = ("cm5", "cr") if args.mode == "both" else (args.mode,)
    sizes = (tuple(args.sizes) if args.sizes
             else ((16, 4096) if args.smoke else CROSSOVER_SIZES))
    reps = 2 if args.smoke else args.reps
    rounds = 2 if args.smoke else 3
    failures = 0

    print("repro collectives — eager/rendezvous switching on the "
          "live fabric\n")

    sweep = asyncio.run(measure_crossover(
        sizes=sizes, peers=args.peers, reps=reps,
        wire_latency=args.wire_latency))
    records: List[Dict[str, Any]] = list(sweep.pop("records"))
    print(f"crossover sweep ({args.peers} peers, wire latency "
          f"{args.wire_latency * 1e3:.2f} ms, best of {reps}):")
    print(f"  {'words':>6}  {'eager':>12}  {'rendezvous':>12}  winner")
    for size in sizes:
        eager_ns = sweep["eager_ns"][str(size)]
        rdv_ns = sweep["rendezvous_ns"][str(size)]
        winner = "eager" if eager_ns <= rdv_ns else "rendezvous"
        print(f"  {size:>6}  {eager_ns / 1e6:>10.2f}ms  "
              f"{rdv_ns / 1e6:>10.2f}ms  {winner}")
    sweep_ok = not gates.coll({"coll/crossover": sweep})
    if not sweep_ok:
        failures += 1
    print(f"  [{'ok' if sweep_ok else 'FAIL'}] "
          + (f"crossover at {sweep['crossover_words']} words: eager "
             "wins below, rendezvous above"
             if sweep_ok else
             f"no clean crossover (found={sweep['crossover_words']}, "
             f"eager@min={sweep['eager_wins_smallest']}, "
             f"rdv@max={sweep['rendezvous_wins_largest']})"))
    print()

    op_rows: List[Dict[str, Any]] = []
    print(f"collective ops (auto switch, {args.payload_words} words):")
    for mode in modes:
        measured = asyncio.run(measure_collective_ops(
            mode=mode, peers=args.peers,
            payload_words=args.payload_words))
        records.extend(measured["records"])
        for row in measured["rows"]:
            ok = not gates.coll({f"coll/{row['op']}/{mode}": row})
            if not ok:
                failures += 1
            features = row["features"]
            top = sorted(features.items(), key=lambda kv: -kv[1])[:3]
            share = "  ".join(f"{name} {frac:.0%}" for name, frac in top)
            print(f"  [{'ok' if ok else 'FAIL'}] {mode:>3} "
                  f"{row['op']:<10} {row['payload_words']:>5}w "
                  f"{'/'.join(row['transfer_modes']):<10} "
                  f"{row['total_ns'] / 1e6:>7.2f}ms  "
                  f"{'audit clean' if row['audit_clean'] else 'AUDIT DIRTY'}"
                  f"  {share}")
            op_rows.append(row)
    print()

    chaos_rows: List[Dict[str, Any]] = []
    print("partition chaos (broadcast through a partition-heal):")
    for mode in modes:
        out = asyncio.run(run_broadcast_partition(
            mode=mode, peers=args.peers, rounds=rounds,
            payload_words=args.payload_words,
            heal_after=0.15 if args.smoke else 0.25))
        records.extend(out.pop("records"))
        ok = not gates.coll({f"coll/partition/{mode}": out})
        if not ok:
            failures += 1
        clean = sum(1 for a in out["audits"].values() if a["clean"])
        print(f"  [{'ok' if ok else 'FAIL'}] {mode:>3}: {out['rounds']} "
              f"rounds through the heal, {clean}/{len(out['audits'])} "
              f"peer audits clean")
        chaos_rows.append(out)
    print()

    if args.export:
        with open(args.export, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        print(f"wrote {len(records)} transfer records to {args.export}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"crossover": sweep, "ops": op_rows,
                       "chaos": chaos_rows}, fh, indent=2)
        print(f"wrote {args.json}")
    if failures:
        print(f"{failures} collective check(s) FAILED")
        return 1
    print("collective checks passed: both protocols complete every op, "
          "the crossover is where the cost model says, and the "
          "partition audit is clean.")
    return 0


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


#: The :class:`LoadConfig` fields every load-driving command takes.
LOAD_OPTIONS = ("drop_rate", "dup_rate", "reorder_rate", "seed", "deadline")

#: Each load-driving command's defaults for :data:`LOAD_OPTIONS`.
COMMAND_DEFAULTS = {
    "demo": LoadConfig(drop_rate=0.0, reorder_rate=0.25),
    "journey": LoadConfig(drop_rate=0.02, reorder_rate=0.25),
    "load": LoadConfig(),
    "chaos": CHAOS,
}


def _with_options(config: LoadConfig, args) -> LoadConfig:
    """``config`` with the command line's :data:`LOAD_OPTIONS`."""
    return replace(config, **{name: getattr(args, name)
                              for name in LOAD_OPTIONS})


def _load_options(command: str) -> argparse.ArgumentParser:
    """The parent parser of :data:`LOAD_OPTIONS`, with ``command``'s
    defaults."""
    base = COMMAND_DEFAULTS[command]
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--drop-rate", type=_rate, default=base.drop_rate,
                        help="hub drop probability per datagram (cm5 mode)")
    parent.add_argument("--dup-rate", type=_rate, default=base.dup_rate,
                        help="hub duplication probability (cm5 mode)")
    parent.add_argument("--reorder-rate", type=_rate,
                        default=base.reorder_rate,
                        help="hub reorder probability (cm5 mode)")
    parent.add_argument("--seed", type=int, default=base.seed,
                        help="seed of the hub's fault draws")
    parent.add_argument("--deadline", type=float, default=base.deadline,
                        help="seconds a run may take before it is cut")
    return parent


def add_runtime_subparsers(parser) -> None:
    """Wire the ``runtime`` subcommands onto its argparse parser."""
    sub = parser.add_subparsers(dest="runtime_command", required=True)

    demo = sub.add_parser(
        "demo", parents=[_load_options("demo")],
        help="run a protocol live, with fault injection and the "
             "CM-5-vs-CR time breakdown")
    demo.add_argument("--protocol", default="indefinite",
                      choices=list(PROTOCOL_NAMES) + ["all"])
    demo.add_argument("--transport", default="loopback",
                      choices=["loopback", "udp"])
    demo.add_argument("--packets", type=int, default=64,
                      help="packets per transfer (default 64)")
    demo.add_argument("--packet-words", type=int, default=16)
    demo.add_argument("--json", default=None,
                      help="also write results to this JSON file")
    demo.add_argument("--trace", default=None, metavar="FILE",
                      help="record trace events and export a Chrome/"
                           "Perfetto trace to FILE")
    demo.add_argument("--trace-capacity", type=int, default=DEFAULT_CAPACITY,
                      help="tracer ring capacity in events (default "
                           f"{DEFAULT_CAPACITY}); older events are "
                           "overwritten once the ring fills")
    demo.set_defaults(func=run_demo)

    load = sub.add_parser(
        "load", parents=[_load_options("load")],
        help="drive M concurrent channels x K messages across P "
             "fabric peers, sweeping peer count and mode")
    load.add_argument("--peers", default="2,8,32",
                      help="comma-separated peer counts to sweep "
                           "(default: 2,8,32)")
    load.add_argument("--channels", type=int, default=32,
                      help="concurrent ordered channels (default 32)")
    load.add_argument("--messages", type=int, default=16,
                      help="framed messages per channel (default 16)")
    load.add_argument("--message-words", type=int, default=64)
    load.add_argument("--mode", default="both",
                      choices=["both", "cm5", "cr"])
    load.add_argument("--smoke", action="store_true",
                      help="shrink the run for CI smoke checks "
                           "(channels<=8, messages<=4, words<=32)")
    load.add_argument("--overload", action="store_true",
                      help="run the overload survival curve instead: "
                           "1x..10x offered load over credit-metered "
                           "channels, gating on graceful degradation, "
                           "bounded buffers, and a clean audit")
    load.add_argument("--json", default=None,
                      help="also write the sweep records to this JSON file")
    load.add_argument("--timeline", default=None, metavar="FILE",
                      help="trace the sweep, print the ASCII timeline "
                           "derived from the trace, and export its "
                           "samples + marks to FILE (JSONL)")
    load.set_defaults(func=run_load_cmd)

    chaos = sub.add_parser(
        "chaos", parents=[_load_options("chaos")],
        help="soak scripted fault scenarios (partitions, crashes, "
             "flaps, bursts) with failure detection, channel "
             "recovery, and an exactly-once audit")
    chaos.add_argument("--scenario", default="all",
                       help="scenario name, or 'all' (default): "
                            "partition-heal, crash-restart, rolling-flap, "
                            "burst-loss, overload-partition, "
                            "crash-permanent")
    chaos.add_argument("--mode", default="both",
                       choices=["both", "cm5", "cr"])
    chaos.add_argument("--peers", type=int, default=6)
    chaos.add_argument("--lanes", type=int, default=8,
                       help="concurrent audited traffic lanes (default 8)")
    chaos.add_argument("--messages", type=int, default=36,
                       help="messages per lane (default 36)")
    chaos.add_argument("--message-words", type=int, default=12)
    chaos.add_argument("--corrupt-rate", type=_rate, default=0.002)
    chaos.add_argument("--smoke", action="store_true",
                       help="shrink the soak for CI smoke checks "
                            "(peers<=4, lanes<=4, messages<=16)")
    chaos.add_argument("--json", default=None,
                       help="also write the scenario records to this "
                            "JSON file")
    chaos.add_argument("--trace", default=None, metavar="FILE",
                       help="record trace events and export a Chrome/"
                            "Perfetto trace to FILE")
    chaos.add_argument("--timeline", default=None, metavar="FILE",
                       help="trace the soak, print the ASCII timeline "
                            "derived from the trace (fault marks "
                            "included), and export its samples + marks "
                            "to FILE (JSONL)")
    chaos.add_argument("--trace-capacity", type=int, default=DEFAULT_CAPACITY,
                       help="tracer ring capacity in events (default "
                            f"{DEFAULT_CAPACITY})")
    chaos.set_defaults(func=run_chaos_cmd)

    member = sub.add_parser(
        "member", help="soak the SWIM gossip membership layer (steady "
                       "state, graceful leave, latency-spike refutation, "
                       "crash detection, incarnation-bumped restart) and "
                       "measure detection latency / control load at "
                       "growing fabric sizes")
    member.add_argument("--mode", default="both",
                        choices=["both", "cm5", "cr"],
                        help="substrate mode(s) (default both)")
    member.add_argument("--peers", type=int, default=12,
                        help="fabric size for the lifecycle soak "
                             "(default 12)")
    member.add_argument("--period", type=float, default=0.025,
                        help="SWIM protocol period in seconds "
                             "(default 0.025)")
    member.add_argument("--probes", type=int, default=2,
                        help="direct probes per period, k (default 2)")
    member.add_argument("--proxies", type=int, default=2,
                        help="indirect probe proxies, j (default 2)")
    member.add_argument("--suspect-timeout", type=float, default=0.5,
                        help="suspicion window before DEAD in seconds "
                             "(default 0.5, roomy for loaded machines)")
    member.add_argument("--scale-peers", type=int, nargs="+",
                        default=[8, 32, 64],
                        help="fabric sizes for the scaling rows "
                             "(default 8 32 64)")
    member.add_argument("--no-scale", action="store_true",
                        help="skip the scaling rows, soak only")
    member.add_argument("--smoke", action="store_true",
                        help="small fast configuration for CI")
    member.add_argument("--json", default=None,
                        help="write the soak/scaling records to this "
                             "JSON file")
    member.add_argument("--events", default=None, metavar="FILE",
                        help="export every membership transition event "
                             "as JSONL (validated by "
                             "check_trace_schema.py --kind membership)")
    member.set_defaults(func=run_member_cmd)

    collect = sub.add_parser(
        "collect", help="run fabric collectives (broadcast, scatter/"
                        "gather, all-reduce) with eager/rendezvous "
                        "switching, locate the measured protocol "
                        "crossover, and drive a broadcast through a "
                        "partition-heal with a per-peer delivery audit")
    collect.add_argument("--mode", default="both",
                         choices=["both", "cm5", "cr"],
                         help="substrate mode(s) for the op matrix and "
                              "the chaos scenario (default both)")
    collect.add_argument("--peers", type=int, default=4,
                         help="fabric size (default 4)")
    collect.add_argument("--payload-words", type=int, default=96,
                         help="payload for the op matrix and the chaos "
                              "broadcasts (default 96)")
    collect.add_argument("--sizes", type=int, nargs="+", default=None,
                         help="crossover sweep payload sizes in words "
                              "(default 16..4096)")
    collect.add_argument("--reps", type=int, default=3,
                         help="runs per sweep cell; the best is kept "
                              "(default 3)")
    collect.add_argument("--wire-latency", type=float, default=0.0005,
                         help="per-datagram wire latency for the sweep "
                              "in seconds (default 0.0005)")
    collect.add_argument("--smoke", action="store_true",
                         help="small fast configuration for CI")
    collect.add_argument("--json", default=None,
                         help="write the sweep/op/chaos summary to "
                              "this JSON file")
    collect.add_argument("--export", default=None, metavar="FILE",
                         help="export every transfer record as JSONL "
                              "(one collective leg per line)")
    collect.set_defaults(func=run_collect_cmd)

    journey = sub.add_parser(
        "journey", parents=[_load_options("journey")],
        help="trace every protocol x mode cell end to end, "
             "reconstruct cross-peer message journeys from "
             "the wire-propagated trace context, and print "
             "the critical-path stage decomposition")
    journey.add_argument("--packets", type=int, default=16)
    journey.add_argument("--packet-words", type=int, default=16)
    journey.add_argument("--limit", type=int, default=12,
                         help="journeys shown in the table (default 12)")
    journey.add_argument("--out", default=None, metavar="FILE",
                         help="export to FILE in --format")
    journey.add_argument("--format", default="jsonl",
                         choices=["jsonl", "chrome", "events"],
                         help="export format: one JSON journey per line "
                              "(default), a chrome trace with stage spans "
                              "and flow arrows (loadable in "
                              "ui.perfetto.dev), or one raw trace event "
                              "per line")
    journey.add_argument("--trace-capacity", type=int,
                         default=DEFAULT_CAPACITY,
                         help="tracer ring capacity in events (default "
                              f"{DEFAULT_CAPACITY})")
    journey.set_defaults(func=run_journey)
