"""The four workloads and the drivers that run them on ``repro.runtime``.

Drivers reach the runtime only through its public API (``Fabric``,
``Fabric.connect``, ``LiveFramedChannel``, ``SwimDetector``); every
piece of traffic stays inside one process on the loopback hub, so no OS
socket is involved.

Drivers run on the worker's virtual clock (``worker.VirtualClockLoop``):
the hub's delays, the protocols' timers and the open-loop schedule all
read ``loop.time()``, and every time the loop would sleep the clock
jumps to the next timer instead.  A repetition is therefore a
deterministic function of the seed and the code, however fast or slow
the machine runs it.

Every run covers a fixed amount of work: a faster program finishes
sooner but delivers the same messages.  That keeps memory comparable
across commits, because the runtime retains every delivered message and
a run sized by duration would retain more on a faster commit.
"""

from __future__ import annotations

import asyncio
import random
import struct
import time
import zlib
from typing import Any, Dict, List, Optional, Sequence

#: Retransmission schedule for the in-process hub: a 20 ms initial RTO,
#: the same policy the runtime's own loopback harness uses.
BACKOFF = {"initial": 0.02, "factor": 1.7, "ceiling": 0.3, "max_retries": 12}

#: Workload parameters, defined once: the workers read them from here.
#: ``messages`` sizes one repetition: a few seconds of CPU with the
#: call-counting profiler on, so a 30-second measurement holds several
#: repetitions, each on its own seed.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    # Per-message costs dominate and every CM-5 layer runs: codec,
    # batching (many frames per container), reorder buffer, cumulative
    # acks, the timer wheel and retransmits.
    "small-cm5": {
        "loop": "closed", "mode": "cm5", "peers": 4, "lanes": 16,
        "depth": 32, "message_words": 15, "packet_words": 16,
        "window": 32, "drop_rate": 0.01, "reorder_rate": 0.05,
        "messages": 16_000,
    },
    # The paper's Figure 6 control: the same shape on a lossless FIFO
    # hub, so ordering and reliability are bypassed and an optimisation
    # of those layers must show no change here.  With no acks to carry
    # the grants, flow control sends standalone CREDIT_UPDATEs.  Nothing
    # on this hub is random, so only the payloads depend on the seed.
    "small-cr": {
        "loop": "closed", "mode": "cr", "peers": 4, "lanes": 16,
        "depth": 32, "message_words": 15, "packet_words": 16,
        "window": 32, "messages": 12_000,
    },
    # Per-word costs dominate: CRC and struct work over 1 KiB frames,
    # fragmentation, word-by-word reassembly and receive-side copies.
    # Each frame is over half the 1200-byte flush MTU, so batching is
    # bypassed; this is where retained delivered data shows in memory.
    "bulk-cm5": {
        "loop": "closed", "mode": "cm5", "peers": 4, "lanes": 8,
        "depth": 4, "message_words": 1023, "packet_words": 256,
        "window": 32, "drop_rate": 0.01, "reorder_rate": 0.05,
        "messages": 800,
    },
    # Open loop with SWIM running: each lane sees only ~47 msgs/s, which
    # defeats batching and ack coalescing, so timers, event-loop
    # scheduling, loss recovery and membership traffic dominate.
    "rpc-open": {
        "loop": "open", "mode": "cm5", "peers": 16, "lanes": 32,
        "rate": 1500.0, "duration_s": 3.0,
        "message_words": 15, "packet_words": 16, "window": 32,
        "drop_rate": 0.01, "reorder_rate": 0.05, "swim": True,
    },
}

#: Virtual seconds a run may take to deliver everything before the rest
#: counts as failed.
DRAIN_DEADLINE_S = 60.0

_HEAD = struct.Struct("<II")


class Integrity:
    """Makes each message's payload from the seed and checks every
    delivery: right lane, next index (exactly once, in order), intact
    body.  Payload ``[lane, index, crc, *body]``; the CRC covers lane,
    index and body."""

    #: Distinct seeded bodies; message k of lane l uses one of them.
    POOL = 64

    def __init__(self, lanes: int, message_words: int, seed: int) -> None:
        if message_words < 4:
            raise ValueError("a message needs lane, index, crc and a body")
        rng = random.Random(seed)
        self.message_words = message_words
        self._body = struct.Struct(f"<{message_words - 3}I")
        self.bodies = [[rng.getrandbits(32) for _ in range(message_words - 3)]
                       for _ in range(self.POOL)]
        self._body_bytes = [self._body.pack(*body) for body in self.bodies]
        self.offered = 0
        self.ok = 0
        self.duplicates = 0
        self.misordered = 0
        self.corrupt = 0
        self._next = [0] * lanes

    def stamp(self, lane: int, index: int) -> List[int]:
        """The payload of message ``index`` on ``lane``."""
        slot = (lane * 7919 + index) % self.POOL
        crc = zlib.crc32(self._body_bytes[slot], zlib.crc32(_HEAD.pack(lane, index)))
        self.offered += 1
        return [lane, index, crc, *self.bodies[slot]]

    def check(self, lane: int, words: Sequence[int]) -> bool:
        """True for a fresh, intact, in-order delivery."""
        if len(words) != self.message_words or words[0] != lane:
            self.corrupt += 1
            return False
        index = words[1]
        try:
            crc = zlib.crc32(self._body.pack(*words[3:]),
                             zlib.crc32(_HEAD.pack(lane, index)))
        except struct.error:
            crc = None
        if crc != words[2]:
            self.corrupt += 1
            return False
        expected = self._next[lane]
        if index < expected:
            self.duplicates += 1
            return False
        self._next[lane] = index + 1
        if index > expected:
            self.misordered += 1
            return False
        self.ok += 1
        return True

    @property
    def failed(self) -> int:
        """Offered messages not delivered intact, exactly once and in
        order (a duplicate spoils the message it repeats)."""
        return min(self.offered, self.offered - self.ok + self.duplicates)


class Harness:
    """Benchmark-side state of one run: inputs, checks and timing marks.

    Drivers pass their own callbacks and tasks through :attr:`bench`,
    which a traced run replaces with a ledger boundary, so the harness
    is its own ``bench`` layer.  ``on_start``/``on_stop`` hooks run
    when traffic starts and when the last message lands.  The marks
    record the real wall and CPU clocks and the loop's virtual clock.
    """

    def __init__(self, params: Dict[str, Any], seed: int) -> None:
        self.params = params
        self.seed = seed
        self.integrity = Integrity(params["lanes"], params["message_words"], seed)
        self.bench = lambda fn: fn
        self.on_start: List = []
        self.on_stop: List = []
        self.start_s = 0.0
        self.cpu_start_ns = self.cpu_stop_ns = 0
        self.wall_start_ns = self.wall_stop_ns = 0
        self.virtual_start_s = self.virtual_stop_s = 0.0

    def start_traffic(self) -> None:
        self.start_s = time.perf_counter()
        for hook in self.on_start:
            hook()
        self.virtual_start_s = asyncio.get_running_loop().time()
        self.wall_start_ns = time.perf_counter_ns()
        self.cpu_start_ns = time.process_time_ns()

    def stop_traffic(self) -> None:
        self.cpu_stop_ns = time.process_time_ns()
        self.wall_stop_ns = time.perf_counter_ns()
        self.virtual_stop_s = asyncio.get_running_loop().time()
        for hook in self.on_stop:
            hook()


class _Lane:
    __slots__ = ("index", "framed", "inflight", "wake", "queue", "sent")

    def __init__(self, index: int, framed) -> None:
        self.index = index
        self.framed = framed
        self.inflight = 0
        self.sent = 0
        self.wake = asyncio.Event()
        self.queue = 0      # open loop: messages due but not yet sent


async def _build(rt, p: Dict[str, Any], seed: int):
    faults = {} if p["mode"] == "cr" else {
        "drop_rate": p["drop_rate"], "reorder_rate": p["reorder_rate"],
        "seed": seed & 0xFFFFFFFF}
    fabric = rt.Fabric(mode=p["mode"], backoff=rt.BackoffPolicy(**BACKOFF),
                       **faults)
    names = [f"p{i:02d}" for i in range(p["peers"])]
    for name in names:
        await fabric.add_peer(name)
    detector = None
    if p.get("swim"):
        detector = rt.SwimDetector(fabric, rt.SwimConfig(seed=seed & 0xFFFFFFFF))
        detector.start()
    # A credit window of four send windows: generous enough that credit
    # never throttles these loads, but every layer of it still runs.
    window = p["window"]
    flow = rt.FlowControlConfig(window_bytes=4 * window * 4 * p["packet_words"],
                                window_msgs=4 * window)
    channels = []
    for src, dst in rt.spread_pairs(names, p["lanes"]):
        conn = await fabric.connect(src, dst, window=window,
                                    packet_words=p["packet_words"],
                                    reorder_window=max(256, 2 * window),
                                    flow=flow)
        channels.append(rt.LiveFramedChannel(conn.channel))
    return fabric, detector, channels


async def _settle(tasks, done, errors: List[str]) -> None:
    """Wait for the last delivery (or a failure); then stop the tasks."""
    waiters = [done, *tasks]
    try:
        while not done.done():
            finished, _ = await asyncio.wait(
                waiters, timeout=DRAIN_DEADLINE_S,
                return_when=asyncio.FIRST_COMPLETED)
            if not finished:
                errors.append(f"not drained within {DRAIN_DEADLINE_S}s")
                break
            for task in finished:
                if task is not done and task.exception() is not None:
                    exc = task.exception()
                    errors.append(f"{type(exc).__name__}: {exc}")
            if errors:
                break
            waiters = [w for w in waiters if not w.done()] or [done]
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


def _counts(fabric, channels, p: Dict[str, Any], delivered: int,
            virtual_s: float) -> Dict[str, float]:
    """Counts read from the program's own public counters."""
    from repro.arch.attribution import Feature

    wire = fabric.wire_totals()
    peers = [fabric.peer(name) for name in fabric.peer_names]
    datagrams_sent = sum(ep.transport.datagrams_sent for ep in peers)
    bytes_sent = sum(ep.transport.bytes_sent for ep in peers)
    receivers = [framed.channel.receiver for framed in channels]
    arrivals = sum(r.arrivals for r in receivers)
    duplicates = sum(r.duplicates for r in receivers)
    retained = sum(len(f.channel.receiver.delivered)
                   + len(f.channel.receive_buffer.records)
                   + len(f.assembler.messages) for f in channels)
    spans = sum(ep.attribution.span_count(feature)
                for ep in peers for feature in Feature)
    features = fabric.attribution_totals()
    messaging_ns = sum(ns for feature, ns in features.items()
                       if feature is not Feature.USER)
    rtx, drops = wire["retransmissions"], wire.get("dropped", 0)
    data = wire["data_datagrams"]

    def per(value, base):
        return value / base if base else 0.0

    return {
        "datagrams_per_msg": per(wire.get("delivered", 0), delivered),
        "wire_bytes_per_msg": per(bytes_sent, delivered),
        "transport.drops": drops,
        "endpoint.frames_per_datagram": per(wire["frames_sent"], datagrams_sent),
        "channels.retained_items_per_msg": per(retained, delivered),
        "protocols.acks_per_data": per(wire["ack_datagrams"], data),
        "protocols.ooo_share": per(sum(r.ooo_arrivals for r in receivers),
                                   arrivals),
        "reliability.retransmissions": rtx,
        "reliability.rtx_per_drop": per(rtx, drops),
        "reliability.spurious_rtx_share": per(duplicates, rtx),
        "flowcontrol.credit_frames_per_msg": per(wire["credit_datagrams"],
                                                 delivered),
        "membership.frames_per_peer_per_s": per(
            wire["membership_datagrams"], len(peers) * virtual_s),
        "spans.per_msg": per(spans, delivered),
        "spans.ordering_fault_share": per(
            features[Feature.IN_ORDER] + features[Feature.FAULT_TOLERANCE],
            messaging_ns),
    }


async def closed_loop(rt, h: Harness, scale: float = 1.0) -> Dict[str, Any]:
    """Each lane keeps ``depth`` messages outstanding and submits the
    next one when a delivery frees a slot.

    Closed loops report no latency: on the virtual clock the processing
    itself takes no time, and by Little's law the latency of a closed
    loop is only its in-flight cap over its throughput anyway.
    """
    p = h.params
    fabric, detector, channels = await _build(rt, p, h.seed)
    lanes = [_Lane(i, framed) for i, framed in enumerate(channels)]
    per_lane = max(1, int(p["messages"] * scale) // len(lanes))
    total = per_lane * len(lanes)
    depth = p["depth"]
    loop = asyncio.get_running_loop()
    done = loop.create_future()
    delivered = 0
    check = h.integrity.check

    def on_message(lane: _Lane, words: List[int]) -> None:
        nonlocal delivered
        check(lane.index, words)
        delivered += 1
        lane.inflight -= 1
        lane.wake.set()
        if delivered == total and not done.done():
            done.set_result(None)

    on_message = h.bench(on_message)
    for lane in lanes:
        lane.framed.on_message(lambda words, lane=lane: on_message(lane, words))

    @h.bench
    async def pump(lane: _Lane) -> None:
        framed, stamp = lane.framed, h.integrity.stamp
        for k in range(per_lane):
            while lane.inflight >= depth:
                lane.wake.clear()
                await lane.wake.wait()
            payload = stamp(lane.index, k)
            lane.inflight += 1
            await framed.send_message(payload)

    errors: List[str] = []
    h.start_traffic()
    await _settle([loop.create_task(pump(lane)) for lane in lanes], done, errors)
    h.stop_traffic()
    result = _finish(h, fabric, channels, delivered, errors)
    await _teardown(fabric, detector)
    return result


def arrival_offsets(rng: random.Random, rate: float, duration: float) -> List[float]:
    """``rate * duration`` arrival times in ``[0, duration)``: a Poisson
    process conditioned on its count, so every repetition offers the
    same number of messages."""
    return sorted(rng.random() * duration for _ in range(round(rate * duration)))


async def open_loop(rt, h: Harness, scale: float = 1.0) -> Dict[str, Any]:
    """A seeded Poisson generator offers ``rate`` msgs/s in total, on
    lanes picked uniformly, into per-lane FIFO queues, so it never
    blocks on a lane.  The schedule runs on the loop's clock, so it is
    kept exactly however long the processing takes."""
    p = h.params
    fabric, detector, channels = await _build(rt, p, h.seed)
    lanes = [_Lane(i, framed) for i, framed in enumerate(channels)]
    rng = random.Random(h.seed)
    schedule = [(offset, rng.randrange(len(lanes))) for offset in
                arrival_offsets(rng, p["rate"], p["duration_s"] * scale)]
    loop = asyncio.get_running_loop()
    done = loop.create_future()
    delivered = 0
    check = h.integrity.check

    def on_message(lane: _Lane, words: List[int]) -> None:
        nonlocal delivered
        check(lane.index, words)
        delivered += 1
        if delivered == len(schedule) and not done.done():
            done.set_result(None)

    on_message = h.bench(on_message)
    for lane in lanes:
        lane.framed.on_message(lambda words, lane=lane: on_message(lane, words))

    generating = True

    @h.bench
    async def pump(lane: _Lane) -> None:
        framed, stamp = lane.framed, h.integrity.stamp
        while True:
            while not lane.queue:
                if not generating:
                    return
                lane.wake.clear()
                await lane.wake.wait()
            lane.queue -= 1
            payload = stamp(lane.index, lane.sent)
            lane.sent += 1
            await framed.send_message(payload)

    @h.bench
    async def generate() -> None:
        nonlocal generating
        for offset, index in schedule:
            delay = origin + offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lanes[index].queue += 1
            lanes[index].wake.set()
        generating = False
        for lane in lanes:
            lane.wake.set()

    errors: List[str] = []
    h.start_traffic()
    origin = loop.time()
    tasks = [loop.create_task(pump(lane)) for lane in lanes]
    tasks.append(loop.create_task(generate()))
    await _settle(tasks, done, errors)
    h.stop_traffic()
    result = _finish(h, fabric, channels, delivered, errors)
    false_dead = len(detector.dead_peers())
    if false_dead:
        errors.append(f"{false_dead} live peers declared DEAD")
    result["membership.false_dead"] = false_dead
    await _teardown(fabric, detector)
    return result


def _finish(h: Harness, fabric, channels, delivered: int,
            errors: List[str]) -> Dict[str, Any]:
    integrity = h.integrity
    result: Dict[str, Any] = {
        "attempted": integrity.offered,
        "failed": integrity.failed,
        "delivered": delivered,
        "duplicates": integrity.duplicates,
        "misordered": integrity.misordered,
        "corrupt": integrity.corrupt,
        "errors": errors,
        "virtual_s": h.virtual_stop_s - h.virtual_start_s,
        "membership.false_dead": 0,
    }
    result.update(_counts(fabric, channels, h.params, delivered,
                          result["virtual_s"]))
    return result


async def _teardown(fabric, detector: Optional[Any]) -> None:
    if detector is not None:
        await detector.stop()
    await fabric.close()


DRIVERS = {"closed": closed_loop, "open": open_loop}
