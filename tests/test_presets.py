"""Tests for machine presets."""

import pytest

from repro import InOrderDelivery, run_finite_sequence, run_indefinite_sequence
from repro.presets import CM5, CM5E, INTEGRATED, PRESETS, setup


class TestPresets:
    def test_registry(self):
        assert PRESETS["cm5"] is CM5
        assert PRESETS["cm5e"] is CM5E
        assert PRESETS["integrated"] is INTEGRATED
        assert "cm6" not in PRESETS

    def test_cm5_reproduces_paper(self):
        sim, src, dst, _net, costs = setup(CM5, delivery_factory=InOrderDelivery)
        result = run_finite_sequence(sim, src, dst, 16, costs=costs)
        assert result.total == 397

    def test_cm5e_larger_packets_cut_cost(self):
        sim, src, dst, _net, costs = setup(CM5E, delivery_factory=InOrderDelivery)
        cm5e = run_finite_sequence(sim, src, dst, 1024, costs=costs)
        sim2, src2, dst2, _net2, costs2 = setup(CM5, delivery_factory=InOrderDelivery)
        cm5 = run_finite_sequence(sim2, src2, dst2, 1024, costs=costs2)
        assert cm5e.completed and cm5.completed
        assert cm5e.total < cm5.total
        # ... but the overhead fraction falls only modestly (Figure 8).
        assert cm5e.overhead_fraction > 0.08

    def test_cm5e_stream_overhead_still_large(self):
        sim, src, dst, _net, costs = setup(CM5E)
        result = run_indefinite_sequence(sim, src, dst, 1024, costs=costs)
        assert result.overhead_fraction > 0.5

    def test_integrated_cycle_model(self):
        assert INTEGRATED.cycle_model.dev_weight == 1.0
        assert CM5.cycle_model.dev_weight == 5.0

    def test_cr_substrate(self):
        from repro import run_cr_finite_sequence

        sim, src, dst, net, costs = setup(CM5, substrate="cr")
        assert net.provides_in_order
        result = run_cr_finite_sequence(sim, src, dst, 16, costs=costs)
        assert result.completed

    def test_unknown_substrate(self):
        with pytest.raises(KeyError):
            setup(CM5, substrate="ethernet")
