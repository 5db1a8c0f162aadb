"""repro — a reproduction of Karamcheti & Chien, "Software Overhead in
Messaging Layers: Where Does the Time Go?" (ASPLOS 1994).

The package rebuilds the paper's entire experimental apparatus as an
instruction-accounted simulation: the CM-5 network and network interface,
the CMAM active-messages layer, the three communication protocols whose
costs the paper decomposes, and the Compressionless-Routing-based
messaging layer that eliminates the software overhead.

Quickstart::

    from repro import quick_setup, run_finite_sequence

    sim, src, dst, net = quick_setup()
    result = run_finite_sequence(sim, src, dst, message_words=16)
    print(result)                      # costs split by feature
    print(result.src_costs.total)      # 173 — the paper's Table 2/3 value

See ``examples/`` for complete scenarios and ``repro.experiments`` for the
harness that regenerates every table and figure of the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro._lazy import exported_names, lazy_exports

if TYPE_CHECKING:
    from repro.network import CM5Network, CRNetwork, FaultInjector
    from repro.node import Node
    from repro.sim import Simulator

__version__ = "1.0.0"

# The simulator is imported on first use (see repro._lazy), so importing
# one subpackage — the live runtime above all — does not load the rest.
_EXPORTS = {
    "repro.sim": ("Simulator",),
    "repro.node": ("Node", "make_node_pair"),
    "repro.am.costs": ("CmamCosts", "CostBook"),
    "repro.arch": (
        "AbstractProcessor", "CostMatrix", "CostModel", "Feature",
        "InstrClass", "InstructionMix", "CM5_CYCLE_MODEL", "UNIT_COST_MODEL"),
    "repro.network": (
        "CM5Network", "CM5NetworkConfig", "CRNetwork", "CRNetworkConfig",
        "FaultInjector", "FaultPlan", "InOrderDelivery", "PairSwapReorder",
        "FractionReorder", "HeadDelayReorder"),
    "repro.protocols": (
        "GroupAck", "NoAck", "PerPacketAck", "ProtocolResult",
        "run_single_packet", "run_finite_sequence", "run_indefinite_sequence",
        "run_cr_finite_sequence", "run_cr_indefinite_sequence"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = ["quick_setup", "quick_cr_setup", *exported_names(_EXPORTS)]


def quick_setup(
    packet_size: int = 4,
    delivery_factory: Optional[Callable] = None,
    injector: Optional[FaultInjector] = None,
) -> Tuple[Simulator, Node, Node, CM5Network]:
    """A simulator, a source/destination node pair, and a CM-5 network —
    the configuration every paper measurement uses.

    The default delivery model reorders half of each data stream
    (the paper's indefinite-sequence assumption); pass
    ``delivery_factory=InOrderDelivery`` for a non-reordering channel.
    """
    from repro.network import CM5Network, CM5NetworkConfig
    from repro.node import make_node_pair
    from repro.sim import Simulator

    sim = Simulator()
    network = CM5Network(
        sim,
        CM5NetworkConfig(packet_size=packet_size),
        delivery_factory=delivery_factory,
        injector=injector,
    )
    src, dst = make_node_pair(sim, network, packet_size=packet_size)
    return sim, src, dst, network


def quick_cr_setup(
    packet_size: int = 4,
    injector: Optional[FaultInjector] = None,
) -> Tuple[Simulator, Node, Node, CRNetwork]:
    """Like :func:`quick_setup` but on a Compressionless Routing network."""
    from repro.network import CRNetwork, CRNetworkConfig
    from repro.node import make_node_pair
    from repro.sim import Simulator

    sim = Simulator()
    network = CRNetwork(
        sim,
        CRNetworkConfig(packet_size=packet_size),
        injector=injector,
    )
    src, dst = make_node_pair(sim, network, packet_size=packet_size)
    return sim, src, dst, network
