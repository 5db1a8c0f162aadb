"""Per-message cost breakdown of the live stack's own critical path.

The paper asks "where does the time go?" per message and answers with a
feature-bucket decomposition of CMAM's instruction stream.  This module
applies the same discipline to *our* runtime: it micro-times every term
a message crosses on the hot path — frame encode, frame decode
(including the CRC), the container-batch variants, the per-send path in
``endpoint.post_frame`` (batched flush vs the old task-per-frame
design), span enter/exit, tracer and counter charges, timer-wheel
arm/cancel churn, and flow-control window bookkeeping — and ranks them
into a first-class table.

Methodology
-----------

Each term is measured as a tight closed loop over the real production
objects (no mocks of the code under test), ``perf_counter_ns`` around
the whole loop, divided by the iteration count.  The **minimum** over
several rounds is reported: per-op cost is a physical floor, so the min
is the estimator least polluted by scheduler noise (same reasoning as
the trace-overhead bench).  Async terms (send paths, retransmitter
churn) run inside one event loop via ``asyncio.run`` so task-creation
and callback-scheduling costs are charged exactly as the runtime pays
them.

The output feeds three consumers: ``python -m repro runtime profile``
(human-readable ranked table), the ``cost/{mode}`` rows of
``BENCH_runtime.json``, and ``check_runtime_regression.py``'s
encode/decode cost gates.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.arch.attribution import Feature
from repro.runtime.endpoint import RuntimeEndpoint
from repro.runtime.flowcontrol import FlowControlConfig, SenderWindow
from repro.runtime.frames import (
    cum_ack_frame,
    data_frame,
    decode_frame,
    encode_batch,
    encode_frame,
    iter_batch,
)
from repro.runtime.reliability import BackoffPolicy, Retransmitter
from repro.runtime.spans import NullTimeAttribution, TimeAttribution
from repro.runtime.tracing import Counters, EventType, Tracer
from repro.runtime.transport import make_hub

_now = time.perf_counter_ns

#: Iterations per timed round, per term.  Small enough that a full
#: profile stays interactive, large enough that the ~60 ns clock
#: read amortizes to noise.
DEFAULT_OPS = 2000
DEFAULT_ROUNDS = 5


@dataclass
class CostRow:
    """One critical-path term: its per-operation cost and context."""

    name: str
    ns_per_op: float
    ops: int
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"ns_per_op": self.ns_per_op, "ops": self.ops,
                "note": self.note}


@dataclass
class CostReport:
    """The full breakdown for one transport mode."""

    mode: str
    payload_words: int
    batch_frames: int
    rows: List[CostRow] = field(default_factory=list)

    def row(self, name: str) -> CostRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def ranked(self) -> List[CostRow]:
        """Rows sorted most-expensive first — the attack order."""
        return sorted(self.rows, key=lambda row: row.ns_per_op, reverse=True)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "payload_words": self.payload_words,
            "batch_frames": self.batch_frames,
            "rows": {row.name: row.to_dict() for row in self.rows},
            "ranking": [row.name for row in self.ranked()],
        }


def _best_ns(run: Callable[[int], None], ops: int, rounds: int) -> float:
    """Minimum per-op nanoseconds of ``run(ops)`` over ``rounds``."""
    best = float("inf")
    run(max(ops // 10, 1))  # warm caches/JIT-free but bytecode-hot
    for _ in range(rounds):
        start = _now()
        run(ops)
        elapsed = _now() - start
        best = min(best, elapsed / ops)
    return best


# -- synchronous terms --------------------------------------------------------


def _measure_sync_terms(report: CostReport, ops: int, rounds: int) -> None:
    words = tuple(range(report.payload_words))
    frame = data_frame(channel=3, seq=7, payload=words)
    wire = encode_frame(frame)
    small = [encode_frame(data_frame(channel=3, seq=seq, payload=words))
             for seq in range(report.batch_frames - 1)]
    small.append(encode_frame(cum_ack_frame(channel=3, next_expected=6)))
    batch = encode_batch(small)
    nsub = len(small)

    def run_encode(n: int) -> None:
        for _ in range(n):
            encode_frame(frame)

    def run_decode(n: int) -> None:
        for _ in range(n):
            decode_frame(wire)

    def run_batch_encode(n: int) -> None:
        for _ in range(n):
            encode_batch(small)

    def run_batch_decode(n: int) -> None:
        for _ in range(n):
            for view in iter_batch(batch):
                decode_frame(view)

    report.rows.append(CostRow(
        "frame_encode", _best_ns(run_encode, ops, rounds), ops,
        f"DATA frame, {report.payload_words} payload words, incl. CRC"))
    report.rows.append(CostRow(
        "frame_decode", _best_ns(run_decode, ops, rounds), ops,
        "decode + CRC verify of the same frame"))
    report.rows.append(CostRow(
        "batch_encode_per_frame",
        _best_ns(run_batch_encode, ops, rounds) / nsub, ops,
        f"container of {nsub} frames (incl. piggybacked CUM_ACK), "
        "cost divided per sub-frame"))
    report.rows.append(CostRow(
        "batch_decode_per_frame",
        _best_ns(run_batch_decode, ops, rounds) / nsub, ops,
        "iter_batch + decode of every sub-frame, divided per sub-frame"))

    attribution = TimeAttribution()
    live_span = attribution.spans[Feature.IN_ORDER]
    null_span_src = NullTimeAttribution()

    def run_span(n: int) -> None:
        for _ in range(n):
            with live_span:
                pass

    def run_null_span(n: int) -> None:
        span = null_span_src.spans[Feature.IN_ORDER]
        for _ in range(n):
            with span:
                pass

    report.rows.append(CostRow(
        "span_enter_exit", _best_ns(run_span, ops, rounds), ops,
        "TimeAttribution span (cached per-feature _Span: __enter__, "
        "__exit__ and a clock read in each; the stack is a tuple link)"))
    report.rows.append(CostRow(
        "span_disabled", _best_ns(run_null_span, ops, rounds), ops,
        "NullTimeAttribution span (the disabled fast path: two empty "
        "calls)"))

    tracer_on = Tracer()
    tracer_off = Tracer(enabled=False)

    def run_emit_on(n: int) -> None:
        emit = tracer_on.emit
        for seq in range(n):
            emit(EventType.SEND, "profiler", 1, seq, kind="DATA",
                 feature=Feature.BASE)

    def run_emit_off(n: int) -> None:
        emit = tracer_off.emit  # bound no-op chosen at construction
        for seq in range(n):
            emit(EventType.SEND, "profiler", 1, seq, kind="DATA",
                 feature=Feature.BASE)

    report.rows.append(CostRow(
        "tracer_emit_enabled", _best_ns(run_emit_on, ops, rounds), ops,
        "full event record into the ring buffer"))
    report.rows.append(CostRow(
        "tracer_emit_disabled", _best_ns(run_emit_off, ops, rounds), ops,
        "disabled tracer: emit is a bound no-op method"))

    counters = Counters()

    def run_inc(n: int) -> None:
        for _ in range(n):
            counters["frames_sent"] += 1

    report.rows.append(CostRow(
        "counter_inc", _best_ns(run_inc, ops, rounds), ops,
        "one named counter bump (a dict subscript, no call)"))

    window = SenderWindow(FlowControlConfig())

    def run_flow(n: int) -> None:
        consume = window.consume
        apply = window.apply
        limit_b = window.limit_bytes + 64
        limit_m = window.limit_msgs + 1
        for _ in range(n):
            consume(64)
            apply(limit_b, limit_m)
            limit_b += 64
            limit_m += 1

    report.rows.append(CostRow(
        "flow_consume_apply", _best_ns(run_flow, ops, rounds), ops,
        "SenderWindow.consume + cumulative-grant apply per message"))


# -- asynchronous terms -------------------------------------------------------


async def _measure_async_terms(report: CostReport, ops: int,
                               rounds: int) -> None:
    words = tuple(range(report.payload_words))

    retx = Retransmitter(
        lambda key, data: None,
        policy=BackoffPolicy(initial=60.0, factor=1.0, ceiling=120.0),
    )
    payload = b"x" * 72

    def run_track_ack(n: int) -> None:
        track = retx.track
        ack = retx.ack
        for key in range(n):
            track(key, payload, sample_rtt=False)
            ack(key)

    report.rows.append(CostRow(
        "retransmit_track_ack",
        _best_ns(run_track_ack, ops, rounds), ops,
        "retransmit timer arm (track) + cancel (ack) pair per data frame"))
    retx.cancel_all()

    # The send path, measured end to end on the real endpoint over a
    # quiet hub of this report's mode: post N frames, run the loop
    # until every datagram left.  This is the term frame batching
    # attacks — the old design paid one asyncio task per frame.
    hub = make_hub(report.mode, reorder_rate=0.0)
    src = RuntimeEndpoint(hub.attach("profiler-src"),
                          attribution=NullTimeAttribution())
    dst_transport = hub.attach("profiler-dst")
    dst = RuntimeEndpoint(dst_transport)
    dst.bind(1, lambda frame, addr: None)
    addr = "profiler-dst"
    send_ops = max(ops // 4, 256)

    async def posted_round(n: int) -> None:
        post = src.post_frame
        for seq in range(n):
            post(addr, data_frame(channel=1, seq=seq, payload=words))
        while src.pending_posts:
            await asyncio.sleep(0)

    best_post = float("inf")
    for _ in range(rounds):
        start = _now()
        await posted_round(send_ops)
        best_post = min(best_post, (_now() - start) / send_ops)
    report.rows.append(CostRow(
        "send_path_batched", best_post, send_ops,
        "post_frame -> coalesced flush -> hub delivery, per frame"))

    # The pre-batching baseline for comparison: one asyncio task per
    # frame, each awaiting transport.send — what post_frame used to do.
    transport = src.transport

    async def task_per_frame_round(n: int) -> None:
        frames = [encode_frame(data_frame(channel=1, seq=seq,
                                          payload=words))
                  for seq in range(n)]
        tasks = [asyncio.ensure_future(transport.send(addr, wire))
                 for wire in frames]
        await asyncio.gather(*tasks)

    best_task = float("inf")
    for _ in range(rounds):
        start = _now()
        await task_per_frame_round(send_ops)
        best_task = min(best_task, (_now() - start) / send_ops)
    report.rows.append(CostRow(
        "send_path_task_per_frame", best_task, send_ops,
        "the old design: encode + one asyncio task per frame"))

    await src.close()
    await dst.close()


def measure_costs(mode: str = "cm5", *, payload_words: int = 16,
                  batch_frames: int = 12, ops: int = DEFAULT_OPS,
                  rounds: int = DEFAULT_ROUNDS) -> CostReport:
    """Profile every hot-path term for ``mode`` and return the report."""
    report = CostReport(mode=mode, payload_words=payload_words,
                        batch_frames=batch_frames)
    _measure_sync_terms(report, ops, rounds)
    asyncio.run(_measure_async_terms(report, ops, rounds))
    return report


def render_cost_table(report: CostReport) -> str:
    """The ranked human-readable table (most expensive term first)."""
    lines = [
        f"per-message cost breakdown — mode={report.mode}, "
        f"{report.payload_words}-word payloads, "
        f"{report.batch_frames}-frame containers",
        f"  {'term':<28} {'ns/op':>10}  note",
        f"  {'-' * 28} {'-' * 10}  {'-' * 40}",
    ]
    for row in report.ranked():
        lines.append(f"  {row.name:<28} {row.ns_per_op:>10.0f}  {row.note}")
    batched = report.row("send_path_batched").ns_per_op
    tasked = report.row("send_path_task_per_frame").ns_per_op
    if batched > 0:
        lines.append(
            f"  send path: batching is {tasked / batched:.1f}x cheaper "
            "than task-per-frame")
    return "\n".join(lines)
