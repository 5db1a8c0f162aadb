"""Offered-load sweeps on the detailed network: the *benefit* side of the
paper's tension.

Section 5: "there is a tension between optimizing routing performance, and
improving end-to-end communication performance ... the benefits of
out-of-order delivery for the network must be weighed against the software
costs."  The software cost side is the calibrated protocol accounting;
this module measures the hardware benefit side: latency/throughput curves
under uniform random traffic, deterministic versus adaptive routing, with
the emergent out-of-order fraction reported alongside — the complete
trade, from one simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List

from repro.network.fattree import FatTree
from repro.network.packet import Packet, PacketType
from repro.network.router import DetailedNetwork
from repro.network.routing import (
    AdaptiveRouting,
    CongestionAwareRouting,
    DeterministicRouting,
    RoutingPolicy,
)
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class LoadPoint:
    """One (policy, offered-load) measurement."""

    policy: str
    offered_load: float        # injections per node per time unit
    delivered: int
    mean_latency: float
    p_max_latency: float
    makespan: float
    ooo_fraction_mean: float   # averaged over observed channels
    stalls: int

    @property
    def throughput(self) -> float:
        """Delivered packets per time unit (whole network)."""
        return self.delivered / self.makespan if self.makespan else 0.0


def _policy(name: str, seed: int) -> RoutingPolicy:
    if name == "deterministic":
        return DeterministicRouting()
    if name == "adaptive":
        return AdaptiveRouting(random.Random(seed))
    if name == "load-aware":
        return CongestionAwareRouting(random.Random(seed))
    raise KeyError(f"unknown policy {name!r}")


def measure_load_point(
    policy_name: str,
    offered_load: float,
    duration: float = 400.0,
    seed: int = 1,
    arity: int = 4,
    height: int = 2,
    parents: int = 2,
    service_time: float = 2.0,
) -> LoadPoint:
    """Uniform random traffic at ``offered_load`` injections/node/time."""
    if offered_load <= 0:
        raise ValueError("offered_load must be positive")
    sim = Simulator()
    topology = FatTree(arity=arity, height=height, parents=parents)
    net = DetailedNetwork(
        sim, topology, routing=_policy(policy_name, seed),
        service_time=service_time,
    )
    n = topology.n_leaves
    for node in range(n):
        net.attach(node, lambda p: None)

    rng = random.Random(seed * 7919 + 13)
    for src in range(n):
        t = 0.0
        while True:
            t += rng.expovariate(offered_load)
            if t >= duration:
                break
            dst = rng.randrange(n - 1)
            if dst >= src:
                dst += 1
            sim.schedule_at(
                t,
                lambda s=src, d=dst: net.inject(
                    Packet(src=s, dst=d, ptype=PacketType.STREAM_DATA)
                ),
                label="load.inject",
            )
    sim.run()

    trackers = net._order_trackers.values()
    ooo_mean = (
        sum(t.ooo_fraction for t in trackers) / len(trackers) if trackers else 0.0
    )
    return LoadPoint(
        policy=policy_name,
        offered_load=offered_load,
        delivered=net.counters.get("delivered"),
        mean_latency=net.latency_stats.mean,
        p_max_latency=net.latency_stats.max,
        makespan=sim.now,
        ooo_fraction_mean=ooo_mean,
        stalls=net.counters.get("stalls"),
    )


def load_sweep(
    loads: Iterable[float] = (0.02, 0.05, 0.1, 0.2),
    policies: Iterable[str] = ("deterministic", "adaptive"),
    **kwargs,
) -> List[LoadPoint]:
    """Latency/throughput/ooo across offered loads for each policy."""
    points = []
    for policy in policies:
        for load in loads:
            points.append(measure_load_point(policy, load, **kwargs))
    return points

