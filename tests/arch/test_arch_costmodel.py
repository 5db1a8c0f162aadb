"""Unit tests for weighted cycle models."""

import pytest

from repro.arch.attribution import Feature
from repro.arch.costmodel import (
    CM5_CYCLE_MODEL,
    CostModel,
    UNIT_COST_MODEL,
)
from repro.arch.counters import CostMatrix
from repro.arch.isa import InstrClass, mix


class TestCostModel:
    def test_unit_model_equals_total(self):
        m = mix(reg=10, mem=5, dev=3)
        assert UNIT_COST_MODEL.cycles(m) == m.total

    def test_cm5_model_weights_dev_by_five(self):
        assert CM5_CYCLE_MODEL.cycles(mix(reg=1, mem=1, dev=1)) == 7.0

    def test_weight_lookup(self):
        assert CM5_CYCLE_MODEL.weight(InstrClass.DEV) == 5.0
        assert CM5_CYCLE_MODEL.weight(InstrClass.REG) == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CostModel(name="bad", dev_weight=-1.0)

    def test_matrix_cycles(self):
        matrix = CostMatrix({
            Feature.BASE: mix(reg=10, dev=2),
            Feature.IN_ORDER: mix(mem=4),
        })
        assert CM5_CYCLE_MODEL.matrix_cycles(matrix) == 10 + 10 + 4

    def test_feature_cycles(self):
        matrix = CostMatrix({Feature.BASE: mix(dev=2)})
        per = CM5_CYCLE_MODEL.feature_cycles(matrix)
        assert per[Feature.BASE] == 10.0

    def test_scaled(self):
        scaled = CM5_CYCLE_MODEL.scaled(2.0)
        assert scaled.dev_weight == 2.0
        assert scaled.reg_weight == CM5_CYCLE_MODEL.reg_weight
        assert "dev=2" in scaled.name

    def test_cm5_example_from_appendix(self):
        # Appendix A: 16-word finite source = (128, 10, 35); under the CM-5
        # model that is 128 + 10 + 175 = 313 cycles.
        assert CM5_CYCLE_MODEL.cycles(mix(128, 10, 35)) == 313.0
