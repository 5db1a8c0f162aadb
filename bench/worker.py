"""One repetition of one workload, in a fresh single-threaded process.

    python bench/worker.py --workload small-cr --seed 7 [--mode MODE] [--scale F]

Runs with ``src`` on ``PYTHONPATH`` (``run.py`` sets it up) and prints
the repetition's measurements as one JSON object on its last line.  The
set-up clock starts just before ``import repro.runtime`` and stops when
the first message is offered, so it covers imports, the fabric, peers,
connects and the detector.

The runtime runs on a virtual clock (:class:`VirtualClockLoop`), so what
it does is fixed by the seed and the code, not by the machine's speed.
The three modes run the same repetition and differ only in what they
watch:

* ``count`` profiles the traffic and charges every call to a layer
  (``ledger.call_ledger``): ``calls_per_msg`` and the call ledger;
* ``time`` watches nothing, so its real CPU and wall times and its
  memory are the program's own;
* ``trace`` wraps every layer boundary (``ledger.Ledger``): real self
  time per layer, never mixed into the other two.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import gc
import importlib
import json
import resource
import selectors
import statistics
import struct
import sys
import time
import zlib
from typing import Any, Dict, List

from ledger import CALL_LAYERS, Ledger, call_ledger
from workloads import DRIVERS, WORKLOADS, Harness

MODES = ("count", "time", "trace")

_CALIB = struct.Struct("<16I")


def calibrate(rounds: int = 10_000) -> float:
    """Milliseconds of CPU for a fixed pure-Python kernel (struct, crc32,
    dict, list), median of three, timed just before set-up.  A witness
    of the machine's speed when the run was made: no value is ever
    divided by it."""
    times = []
    for _ in range(3):
        start = time.process_time_ns()
        words, table, acc = tuple(range(16)), {}, 0
        for seq in range(rounds):
            wire = _CALIB.pack(*words)
            acc = zlib.crc32(wire, acc)
            table[seq & 63] = wire
            words = (*_CALIB.unpack(table[seq & 63])[1:], acc & 0xFFFF)
        times.append((time.process_time_ns() - start) / 1e6)
    return statistics.median(times)


class VirtualClock(selectors.DefaultSelector):
    """A selector that never sleeps: where the loop would wait for its
    next timer, the virtual clock moves forward by the wait instead.

    Every pass of the loop advances the clock by at least 1 ns.  A task
    that polls a deadline it missed by less than the loop's clock
    resolution (the retransmitter's timer wheel does) then still sees
    time pass, as it would on a real clock.
    """

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0

    def select(self, timeout=None):
        if timeout is None:
            raise RuntimeError("event loop idle with nothing scheduled")
        self.now += max(timeout, 1e-9)
        return super().select(0)


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """An event loop on a :class:`VirtualClock` that counts the
    callbacks, timers and tasks scheduled on it."""

    def __init__(self) -> None:
        self.clock = VirtualClock()
        super().__init__(self.clock)
        self.counts = {"callbacks": 0, "timers": 0, "tasks": 0}

    def time(self) -> float:
        return self.clock.now

    def call_soon(self, *args, **kwargs):
        self.counts["callbacks"] += 1
        return super().call_soon(*args, **kwargs)

    def call_at(self, *args, **kwargs):  # call_later goes through here
        self.counts["timers"] += 1
        return super().call_at(*args, **kwargs)

    def create_task(self, *args, **kwargs):
        self.counts["tasks"] += 1
        return super().create_task(*args, **kwargs)


class GcClock:
    """Total garbage-collector pause time, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_ns = 0
        self._start = 0

    def __call__(self, phase: str, _info) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.pause_ns += time.perf_counter_ns() - self._start


def peak_rss_mib() -> float:
    """This process's peak resident set.  ``VmHWM`` rather than
    ``ru_maxrss``: the latter keeps the parent's peak across ``exec``."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metric(layer: str) -> str:
    """``transport`` -> ``transport.self_us_per_msg``;
    ``frames.encode`` -> ``frames.encode_us_per_msg``."""
    return f"{layer}_us_per_msg" if "." in layer else f"{layer}.self_us_per_msg"


def traced_metrics(ledger: Dict[str, Dict[str, int]], messages: int,
                   busy_ns: int) -> Dict[str, float]:
    """The time ledger of one traced run, per delivered message.

    ``busy_ns`` is the traffic's wall time, read on the ledger's own
    clock: the virtual clock never lets the loop sleep, so all of it is
    busy.  Boundaries nest but never overlap otherwise, so the layers'
    self times fit inside it and ``loop.unattributed_us_per_msg`` (the
    event loop, the interpreter and anything no boundary covers) cannot
    go negative unless the accounting double-counts.
    """
    per = 1e3 * messages
    attributed = sum(ledger["self_ns"].values())
    out = {layer_metric(layer): ns / per for layer, ns in ledger["self_ns"].items()}
    calls = ledger["calls"]
    out.update({
        "traced_busy_us_per_msg": busy_ns / per,
        "loop.unattributed_us_per_msg": (busy_ns - attributed) / per,
        "protocols.send_wait_us_per_msg":
            ledger["wait_ns"].get("protocols.send", 0) / per,
        "frames.decodes_per_msg":
            calls.get("repro.runtime.endpoint:decode_frame", 0) / messages,
        "endpoint.flushes_per_msg":
            calls.get("repro.runtime.endpoint:RuntimeEndpoint._flush", 0)
            / messages,
        "reliability.timer_fires_per_msg":
            calls.get("repro.runtime.reliability:Retransmitter._fire", 0)
            / messages,
    })
    return out


def counted_metrics(stats: Dict[tuple, tuple], messages: int) -> Dict[str, float]:
    """Calls per delivered message, in total and per layer."""
    layers = dict.fromkeys(CALL_LAYERS, 0.0)
    layers.update(call_ledger(stats))
    out = {f"{layer}.calls_per_msg": n / messages for layer, n in layers.items()}
    out["calls_per_msg"] = sum(entry[1] for entry in stats.values()) / messages
    return out


def run(workload: str, seed: int, mode: str, scale: float) -> Dict[str, Any]:
    params = WORKLOADS[workload]
    calib_ms = calibrate()
    gc_clock = GcClock()
    gc.callbacks.append(gc_clock)
    setup_start = time.perf_counter()
    rt = importlib.import_module("repro.runtime")
    harness = Harness(params, seed)
    loop = VirtualClockLoop()
    frozen: Dict[str, Any] = {}
    gc_marks: List[int] = []

    def start() -> None:
        loop.counts.update(dict.fromkeys(loop.counts, 0))
        gc_marks.append(gc_clock.pause_ns)

    harness.on_start.append(start)
    harness.on_stop.append(lambda: frozen.update(loop=dict(loop.counts)))
    harness.on_stop.append(lambda: gc_marks.append(gc_clock.pause_ns))
    profiler = ledger = None
    if mode == "count":
        profiler = cProfile.Profile()
        harness.on_start.append(profiler.enable)      # last in, first out
        harness.on_stop.insert(0, profiler.disable)
    elif mode == "trace":
        ledger = Ledger()
        ledger.install()
        harness.bench = lambda fn: ledger.wrap("bench", f"bench:{fn.__name__}", fn)
        harness.on_start.append(ledger.reset)
        harness.on_stop.insert(0, lambda: frozen.update(ledger=ledger.snapshot()))
    try:
        asyncio.set_event_loop(loop)
        result = loop.run_until_complete(
            DRIVERS[params["loop"]](rt, harness, scale))
        loop.run_until_complete(loop.shutdown_asyncgens())
    finally:
        asyncio.set_event_loop(None)
        loop.close()
        if ledger is not None:
            ledger.uninstall()
    traffic_ns = harness.wall_stop_ns - harness.wall_start_ns
    cpu_ns = harness.cpu_stop_ns - harness.cpu_start_ns
    delivered = max(1, result["delivered"])
    result.update({
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "setup_s": harness.start_s - setup_start,
        "peak_rss_mib": peak_rss_mib(),
        "bench.calib_ms": calib_ms,
        "loop.gc_share": (gc_marks[1] - gc_marks[0]) / traffic_ns
        if len(gc_marks) == 2 and traffic_ns else 0.0,
        "cpu_us_per_msg": cpu_ns / 1e3 / delivered,
        "msgs_per_s": delivered / (traffic_ns / 1e9) if traffic_ns else 0.0,
    })
    result["goodput_mib_s"] = result["msgs_per_s"] * params["message_words"] * 4 / 2**20
    for kind, count in frozen["loop"].items():
        result[f"loop.{kind}_per_msg"] = count / delivered
    if profiler is not None:
        profiler.create_stats()
        result.update(counted_metrics(profiler.stats, delivered))
    if ledger is not None:
        result.update(traced_metrics(frozen["ledger"], delivered, traffic_ns))
        result["missing_boundaries"] = ledger.missing
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="count")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the run's fixed work (smoke runs)")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.mode, args.scale)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
