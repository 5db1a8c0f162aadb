"""Machine presets.

Bundles the hardware parameters the study varies — packet size and the
Appendix A cycle weighting — into named machines:

* ``CM5`` — the paper's platform: 4 data words per packet, dev = 5 cycles.
* ``CM5E`` — the follow-on NI the paper mentions in Section 5 ("even the
  CM-5E network interface support[s] larger packet sizes"): 16-word
  packets, same cycle weighting.
* ``INTEGRATED`` — a Section 5 what-if: 16-word packets with an on-chip
  NI (dev accesses at register cost).

``setup`` builds a measured node pair for a preset on either substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.am.costs import CmamCosts
from repro.arch.costmodel import CM5_CYCLE_MODEL, CostModel
from repro.network.cm5 import CM5Network, CM5NetworkConfig
from repro.network.cr import CRNetwork, CRNetworkConfig
from repro.node import Node, make_node_pair
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class MachinePreset:
    """A named hardware configuration."""

    name: str
    packet_size: int
    cycle_model: CostModel
    description: str

    def costs(self) -> CmamCosts:
        return CmamCosts(n=self.packet_size)


CM5 = MachinePreset(
    name="cm5",
    packet_size=4,
    cycle_model=CM5_CYCLE_MODEL,
    description="Thinking Machines CM-5: 5-word packets, memory-mapped NI",
)

CM5E = MachinePreset(
    name="cm5e",
    packet_size=16,
    cycle_model=CM5_CYCLE_MODEL,
    description="CM-5E-class NI: 16-word data packets (Section 5)",
)

INTEGRATED = MachinePreset(
    name="integrated",
    packet_size=16,
    cycle_model=CostModel(name="integrated", dev_weight=1.0),
    description="On-chip NI what-if: device accesses at register cost",
)

PRESETS = {preset.name: preset for preset in (CM5, CM5E, INTEGRATED)}


def setup(
    preset: MachinePreset = CM5,
    substrate: str = "cm5",
    delivery_factory=None,
    injector=None,
) -> Tuple[Simulator, Node, Node, object, CmamCosts]:
    """A measured node pair under a machine preset.

    ``substrate`` selects the network service level: ``"cm5"`` (the
    feature-poor network the preset's messaging layer must bridge) or
    ``"cr"`` (the Section 4 network).
    """
    sim = Simulator()
    if substrate == "cm5":
        network = CM5Network(
            sim,
            CM5NetworkConfig(packet_size=preset.packet_size),
            delivery_factory=delivery_factory,
            injector=injector,
        )
    elif substrate == "cr":
        network = CRNetwork(
            sim,
            CRNetworkConfig(packet_size=preset.packet_size),
            injector=injector,
        )
    else:
        raise KeyError(f"unknown substrate {substrate!r}")
    src, dst = make_node_pair(sim, network, packet_size=preset.packet_size)
    return sim, src, dst, network, preset.costs()
