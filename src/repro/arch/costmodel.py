"""Weighted cycle models over instruction-class counts.

Appendix A of the paper proposes converting the (reg, mem, dev) counts into
cycle estimates with a simple weighted model, e.g. on the CM-5 ``reg`` and
``mem`` instructions cost 1 cycle while a ``dev`` access costs 5.  A
:class:`CostModel` captures one such weighting; :data:`UNIT_COST_MODEL` is
the paper's default (all weights 1) used for every number in the body of
the paper, and :data:`CM5_CYCLE_MODEL` is the CM-5 example from Appendix A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.arch.counters import CostMatrix
from repro.arch.isa import InstrClass, InstructionMix


@dataclass(frozen=True)
class CostModel:
    """Per-class cycle weights.

    Weights may be fractional to model, e.g., amortized cache behaviour.
    """

    name: str
    reg_weight: float = 1.0
    mem_weight: float = 1.0
    dev_weight: float = 1.0

    def __post_init__(self) -> None:
        for label, weight in (
            ("reg", self.reg_weight),
            ("mem", self.mem_weight),
            ("dev", self.dev_weight),
        ):
            if weight < 0:
                raise ValueError(f"{label} weight must be non-negative, got {weight}")

    def weight(self, klass: InstrClass) -> float:
        return {
            InstrClass.REG: self.reg_weight,
            InstrClass.MEM: self.mem_weight,
            InstrClass.DEV: self.dev_weight,
        }[klass]

    def cycles(self, mix: InstructionMix) -> float:
        """Weighted cycle estimate for one instruction mix."""
        return (
            mix.reg * self.reg_weight
            + mix.mem * self.mem_weight
            + mix.dev * self.dev_weight
        )

    def matrix_cycles(self, matrix: CostMatrix) -> float:
        """Weighted cycle estimate across all features of a cost matrix."""
        return self.cycles(matrix.total_mix)

    def feature_cycles(self, matrix: CostMatrix) -> Dict:
        """Per-feature cycle estimates."""
        return {feature: self.cycles(mix) for feature, mix in matrix.items()}

    def scaled(self, dev_weight: float) -> "CostModel":
        """A copy with a different ``dev`` weight (ablation sweeps)."""
        return CostModel(
            name=f"{self.name}(dev={dev_weight:g})",
            reg_weight=self.reg_weight,
            mem_weight=self.mem_weight,
            dev_weight=dev_weight,
        )


#: The model used throughout the body of the paper: every instruction costs 1.
UNIT_COST_MODEL = CostModel(name="unit", reg_weight=1.0, mem_weight=1.0, dev_weight=1.0)

#: Appendix A's CM-5 example: reg and mem cost 1 cycle, dev accesses cost 5.
CM5_CYCLE_MODEL = CostModel(name="cm5", reg_weight=1.0, mem_weight=1.0, dev_weight=5.0)
