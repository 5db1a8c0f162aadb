"""CI gate: validate exported observability artifacts.

Usage::

    python benchmarks/check_trace_schema.py TRACE.json [--min-instants N]
    python benchmarks/check_trace_schema.py JOURNEYS.jsonl --kind journey \\
        [--min-journeys N] [--stage-tolerance F]
    python benchmarks/check_trace_schema.py TIMELINE.jsonl --kind timeline \\
        [--min-samples N] [--min-marks N]

Three artifact kinds, one per exporter:

* ``--kind trace`` (default) — Chrome/Perfetto ``trace_event`` JSON of
  the shape :func:`repro.runtime.tracing.export_chrome_trace` emits:

  - top level is an object with a ``traceEvents`` list and a
    ``displayTimeUnit``;
  - every record has ``name``, ``ph``, ``pid`` and (except metadata)
    numeric non-negative ``ts``;
  - ``"ph": "X"`` complete events carry a numeric non-negative ``dur``;
  - ``"ph": "i"`` instants carry a scope ``s``;
  - ``"ph": "s"``/``"f"`` flow arrows carry an ``id`` (and the finish
    half binds to the enclosing slice with ``"bp": "e"``);
  - ``"ph": "C"`` counter samples carry numeric ``args`` (the
    timeline :mod:`repro.analysis.timeline` derives from the events);
  - every non-metadata record's ``tid`` is named by a ``thread_name``
    metadata record (the per-run×endpoint tracks);
  - at least ``--min-instants`` instant events are present.

* ``--kind journey`` — the journey JSONL
  :func:`repro.analysis.journey.export_journeys_jsonl` emits: one
  object per line with the label/channel/seq/offset key, src/dst
  endpoints, the per-stage nanosecond decomposition, and — on complete
  journeys — a stage sum that matches the end-to-end total within
  ``--stage-tolerance`` (the tentpole's 10% contract, re-checked on the
  artifact itself).

* ``--kind timeline`` — the timeline JSONL
  :meth:`repro.analysis.timeline.Timeline.export_jsonl` emits (the
  view ``runtime load|chaos --timeline`` derives from the trace):
  every line is either a sample (``ts_ns`` + ``series`` of numeric
  per-endpoint rates and levels) or a mark (``ts_ns`` + ``mark``
  label), in non-decreasing time order.

* ``--kind collective`` — the transfer-record JSONL ``python -m repro
  runtime collect --export`` emits: one collective leg per line with
  the op/root/peer identity, the eager-or-rendezvous protocol choice,
  and the handshake/transfer/total nanosecond decomposition (eager
  legs must carry a zero handshake — they have no GRANT round-trip).

* ``--kind membership`` — the SWIM transition-event JSONL ``python -m
  repro runtime member --events`` emits: one membership state
  transition per line with the observer/subject pair, a known event
  name (``PEER_ALIVE``/``PEER_SUSPECT``/``PEER_DEAD``/``PEER_LEFT``/
  ``PEER_REFUTE``), a non-negative incarnation, and a non-decreasing
  ``ts_ns``.  ``--require-event`` (repeatable) demands specific event
  kinds appear — CI uses it to prove the graceful-leave and refutation
  paths actually fired during the smoke.

Exits 0 on a valid file, 1 listing every violation, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

VALID_PHASES = {"i", "I", "X", "M", "B", "E", "b", "e", "n", "s", "t", "f",
                "C"}

JOURNEY_STAGES = ("queue", "flush", "wire", "decode", "park", "deliver")


def check_trace(payload: object, min_instants: int = 1) -> list:
    problems = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["top level is missing the traceEvents list"]
    if "displayTimeUnit" not in payload:
        problems.append("top level is missing displayTimeUnit")

    named_tids = set()
    used_tids = set()
    instants = 0
    durations = 0
    flow_starts = 0
    flow_finishes = 0
    counter_samples = 0
    for index, record in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(record, dict):
            problems.append(f"{where}: not an object")
            continue
        for required in ("name", "ph", "pid"):
            if required not in record:
                problems.append(f"{where}: missing {required!r}")
        phase = record.get("ph")
        if phase not in VALID_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
        if phase == "M":
            if record.get("name") == "thread_name":
                named_tids.add(record.get("tid"))
            continue
        ts = record.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number, "
                            f"got {ts!r}")
        if "tid" in record:
            used_tids.add(record["tid"])
        if phase in ("i", "I"):
            instants += 1
            if "s" not in record:
                problems.append(f"{where}: instant event is missing scope 's'")
        if phase == "X":
            durations += 1
            dur = record.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs a "
                                f"non-negative dur, got {dur!r}")
        if phase in ("s", "t", "f"):
            if "id" not in record:
                problems.append(f"{where}: flow event is missing 'id'")
            if phase == "s":
                flow_starts += 1
            elif phase == "f":
                flow_finishes += 1
                if record.get("bp") != "e":
                    problems.append(f"{where}: flow finish should bind to "
                                    "the enclosing slice with bp='e'")
        if phase == "C":
            counter_samples += 1
            args = record.get("args")
            if (not isinstance(args, dict) or not args
                    or not all(isinstance(v, (int, float))
                               for v in args.values())):
                problems.append(f"{where}: counter event needs numeric args, "
                                f"got {args!r}")

    unnamed = used_tids - named_tids
    if unnamed:
        problems.append(
            f"tids {sorted(unnamed)} have no thread_name metadata track"
        )
    if flow_starts != flow_finishes:
        problems.append(
            f"unbalanced flow arrows: {flow_starts} start(s) vs "
            f"{flow_finishes} finish(es)"
        )
    if instants < min_instants:
        problems.append(
            f"only {instants} instant event(s); expected at least "
            f"{min_instants} from a traced run"
        )
    if not problems:
        print(
            f"trace schema ok: {len(events)} records "
            f"({instants} instants, {durations} spans, "
            f"{flow_starts} flows, {counter_samples} counter samples, "
            f"{len(named_tids)} named tracks)"
        )
    return problems


def _read_jsonl(text: str) -> tuple:
    """Parse JSONL into (records, problems)."""
    records, problems = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append((lineno, json.loads(line)))
        except ValueError as exc:
            problems.append(f"line {lineno}: not valid JSON ({exc})")
    return records, problems


def check_journeys(text: str, min_journeys: int = 1,
                   stage_tolerance: float = 0.10) -> list:
    records, problems = _read_jsonl(text)
    complete = 0
    for lineno, record in records:
        where = f"line {lineno}"
        if not isinstance(record, dict):
            problems.append(f"{where}: not an object")
            continue
        for key, kinds in (("label", str), ("channel", int), ("seq", int),
                           ("offset", int), ("src", str), ("dst", str),
                           ("retransmits", int), ("complete", bool),
                           ("context_matched", bool)):
            if not isinstance(record.get(key), kinds):
                problems.append(f"{where}: {key!r} must be "
                                f"{kinds.__name__}, "
                                f"got {record.get(key)!r}")
        stages = record.get("stages")
        if not isinstance(stages, dict):
            problems.append(f"{where}: 'stages' must be an object")
            continue
        for stage, value in stages.items():
            if stage not in JOURNEY_STAGES:
                problems.append(f"{where}: unknown stage {stage!r}")
            elif not isinstance(value, int) or value < 0:
                problems.append(f"{where}: stage {stage!r} must be a "
                                f"non-negative integer, got {value!r}")
        if not record.get("complete"):
            continue
        complete += 1
        total = record.get("total_ns")
        if not isinstance(total, int) or total < 0:
            problems.append(f"{where}: complete journey needs a "
                            f"non-negative total_ns, got {total!r}")
            continue
        if total > 0:
            stage_sum = sum(v for v in stages.values()
                            if isinstance(v, int))
            error = abs(stage_sum - total) / total
            if error > stage_tolerance:
                problems.append(
                    f"{where}: stage sum {stage_sum} vs total {total} "
                    f"({100.0 * error:.1f}% off, tolerance "
                    f"{100.0 * stage_tolerance:.0f}%)"
                )
    if complete < min_journeys:
        problems.append(
            f"only {complete} complete journey(s); expected at least "
            f"{min_journeys}"
        )
    if not problems:
        print(f"journey schema ok: {len(records)} journeys "
              f"({complete} complete, stage sums within "
              f"{100.0 * stage_tolerance:.0f}% of end-to-end)")
    return problems


def check_timeline(text: str, min_samples: int = 1,
                   min_marks: int = 0) -> list:
    records, problems = _read_jsonl(text)
    samples = marks = 0
    last_ts = None
    for lineno, record in records:
        where = f"line {lineno}"
        if not isinstance(record, dict):
            problems.append(f"{where}: not an object")
            continue
        ts = record.get("ts_ns")
        if not isinstance(ts, int) or ts < 0:
            problems.append(f"{where}: ts_ns must be a non-negative "
                            f"integer, got {ts!r}")
        elif last_ts is not None and ts < last_ts:
            problems.append(f"{where}: ts_ns went backwards "
                            f"({ts} < {last_ts})")
        else:
            last_ts = ts
        if "series" in record:
            samples += 1
            series = record["series"]
            if (not isinstance(series, dict)
                    or not all(isinstance(v, (int, float))
                               for v in series.values())):
                problems.append(f"{where}: 'series' must map instrument "
                                "names to numbers")
        elif "mark" in record:
            marks += 1
            if not isinstance(record["mark"], str) or not record["mark"]:
                problems.append(f"{where}: 'mark' must be a non-empty "
                                "string")
        else:
            problems.append(f"{where}: neither a sample ('series') nor "
                            "a mark ('mark')")
    if samples < min_samples:
        problems.append(f"only {samples} sample(s); expected at least "
                        f"{min_samples}")
    if marks < min_marks:
        problems.append(f"only {marks} mark(s); expected at least "
                        f"{min_marks}")
    if not problems:
        print(f"timeline schema ok: {samples} samples, {marks} marks, "
              "time-ordered")
    return problems


COLLECTIVE_OPS = {"broadcast", "scatter", "gather", "all_reduce"}
COLLECTIVE_MODES = {"eager", "rendezvous"}


def check_collectives(text: str, min_transfers: int = 1) -> list:
    records, problems = _read_jsonl(text)
    complete = 0
    modes_seen = set()
    ops_seen = set()
    for lineno, record in records:
        where = f"line {lineno}"
        if not isinstance(record, dict):
            problems.append(f"{where}: not an object")
            continue
        for key, kinds in (("op", str), ("op_id", int), ("root", str),
                           ("peer", str), ("mode", str),
                           ("payload_words", int), ("hdr_retries", int),
                           ("complete", bool)):
            if not isinstance(record.get(key), kinds):
                problems.append(f"{where}: {key!r} must be "
                                f"{kinds.__name__}, "
                                f"got {record.get(key)!r}")
        op = record.get("op")
        if isinstance(op, str) and op not in COLLECTIVE_OPS:
            problems.append(f"{where}: unknown op {op!r}")
        else:
            ops_seen.add(op)
        mode = record.get("mode")
        if isinstance(mode, str) and mode not in COLLECTIVE_MODES:
            problems.append(f"{where}: unknown mode {mode!r}")
        else:
            modes_seen.add(mode)
        if record.get("payload_words", 0) <= 0:
            problems.append(f"{where}: payload_words must be positive")
        for key in ("handshake_ns", "transfer_ns", "total_ns"):
            value = record.get(key)
            if not isinstance(value, int) or value < 0:
                problems.append(f"{where}: {key!r} must be a "
                                f"non-negative integer, got {value!r}")
        if (mode == "eager" and record.get("handshake_ns", 0) != 0):
            problems.append(f"{where}: eager legs have no GRANT "
                            "round-trip, handshake_ns must be 0")
        if (mode == "rendezvous" and record.get("complete")
                and record.get("handshake_ns", 0) <= 0):
            problems.append(f"{where}: complete rendezvous leg needs a "
                            "positive handshake_ns")
        if record.get("complete"):
            complete += 1
            total = record.get("total_ns", 0)
            transfer = record.get("transfer_ns", 0)
            handshake = record.get("handshake_ns", 0)
            if (isinstance(total, int) and isinstance(transfer, int)
                    and isinstance(handshake, int)
                    and handshake + transfer > total):
                problems.append(
                    f"{where}: handshake {handshake} + transfer "
                    f"{transfer} exceeds total {total}")
    if complete < min_transfers:
        problems.append(f"only {complete} complete transfer(s); "
                        f"expected at least {min_transfers}")
    if not problems:
        print(f"collective schema ok: {len(records)} transfers "
              f"({complete} complete, ops {sorted(ops_seen)}, "
              f"modes {sorted(modes_seen)})")
    return problems


MEMBERSHIP_EVENTS = {"PEER_ALIVE", "PEER_SUSPECT", "PEER_DEAD",
                     "PEER_LEFT", "PEER_REFUTE"}


def check_membership(text: str, min_events: int = 1,
                     require_events: list = ()) -> list:
    records, problems = _read_jsonl(text)
    seen = set()
    last_ts = None
    for lineno, record in records:
        where = f"line {lineno}"
        if not isinstance(record, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("observer", "subject"):
            value = record.get(key)
            if not isinstance(value, str) or not value:
                problems.append(f"{where}: {key!r} must be a non-empty "
                                f"string, got {value!r}")
        event = record.get("event")
        if event not in MEMBERSHIP_EVENTS:
            problems.append(f"{where}: unknown event {event!r}")
        else:
            seen.add(event)
        incarnation = record.get("incarnation")
        if not isinstance(incarnation, int) or incarnation < 0:
            problems.append(f"{where}: 'incarnation' must be a "
                            f"non-negative integer, got {incarnation!r}")
        ts = record.get("ts_ns")
        if not isinstance(ts, int) or ts < 0:
            problems.append(f"{where}: ts_ns must be a non-negative "
                            f"integer, got {ts!r}")
        elif last_ts is not None and ts < last_ts:
            problems.append(f"{where}: ts_ns went backwards "
                            f"({ts} < {last_ts})")
        else:
            last_ts = ts
    if len(records) < min_events:
        problems.append(f"only {len(records)} membership event(s); "
                        f"expected at least {min_events}")
    for required in require_events:
        if required not in MEMBERSHIP_EVENTS:
            problems.append(f"--require-event {required!r} is not a "
                            f"known membership event")
        elif required not in seen:
            problems.append(f"required event {required!r} never fired")
    if not problems:
        print(f"membership schema ok: {len(records)} events "
              f"({sorted(seen)}), time-ordered")
    return problems


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="exported artifact file")
    parser.add_argument("--kind", default="trace",
                        choices=["trace", "journey", "timeline",
                                 "collective", "membership"],
                        help="artifact kind (default: chrome trace JSON)")
    parser.add_argument("--min-instants", type=int, default=1)
    parser.add_argument("--min-journeys", type=int, default=1,
                        help="journey kind: minimum complete journeys")
    parser.add_argument("--stage-tolerance", type=float, default=0.10,
                        help="journey kind: worst allowed stage-sum error")
    parser.add_argument("--min-samples", type=int, default=1,
                        help="timeline kind: minimum samples")
    parser.add_argument("--min-marks", type=int, default=0,
                        help="timeline kind: minimum marks")
    parser.add_argument("--min-transfers", type=int, default=1,
                        help="collective kind: minimum complete "
                             "transfer records")
    parser.add_argument("--min-events", type=int, default=1,
                        help="membership kind: minimum transition events")
    parser.add_argument("--require-event", action="append", default=[],
                        metavar="EVENT",
                        help="membership kind: an event name that must "
                             "appear at least once (repeatable)")
    args = parser.parse_args(argv[1:])
    try:
        text = Path(args.trace).read_text()
    except OSError as exc:
        print(f"cannot read artifact {args.trace!r}: {exc}")
        return 2
    if args.kind == "journey":
        problems = check_journeys(text, min_journeys=args.min_journeys,
                                  stage_tolerance=args.stage_tolerance)
    elif args.kind == "collective":
        problems = check_collectives(text,
                                     min_transfers=args.min_transfers)
    elif args.kind == "timeline":
        problems = check_timeline(text, min_samples=args.min_samples,
                                  min_marks=args.min_marks)
    elif args.kind == "membership":
        problems = check_membership(text, min_events=args.min_events,
                                    require_events=args.require_event)
    else:
        try:
            payload = json.loads(text)
        except ValueError as exc:
            print(f"cannot parse trace {args.trace!r}: {exc}")
            return 2
        problems = check_trace(payload, min_instants=args.min_instants)
    if problems:
        print(f"{args.kind} schema check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
