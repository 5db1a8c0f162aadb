"""Tests for the offered-load contention study."""

import pytest

from repro.analysis.contention import load_sweep, measure_load_point


class TestLoadPoints:
    def test_light_load_low_latency(self):
        point = measure_load_point("deterministic", 0.02, duration=150.0)
        assert point.delivered > 0
        assert point.mean_latency < 30.0
        assert point.ooo_fraction_mean == 0.0

    def test_deterministic_never_reorders_under_any_load(self):
        """FIFO backpressure: single-path routing preserves order even at
        saturation."""
        point = measure_load_point("deterministic", 0.15, duration=150.0)
        assert point.stalls > 0  # genuinely saturated
        assert point.ooo_fraction_mean == 0.0

    def test_adaptive_saturates_later(self):
        det = measure_load_point("deterministic", 0.1, duration=200.0)
        ada = measure_load_point("adaptive", 0.1, duration=200.0)
        assert ada.throughput > det.throughput
        assert ada.mean_latency < det.mean_latency

    def test_latency_grows_with_load(self):
        points = load_sweep(
            loads=(0.02, 0.1), policies=("deterministic",), duration=150.0
        )
        assert points[0].mean_latency < points[1].mean_latency

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            measure_load_point("psychic", 0.1)

    def test_invalid_load(self):
        with pytest.raises(ValueError):
            measure_load_point("adaptive", 0.0)

    def test_deterministic_given_seed(self):
        a = measure_load_point("adaptive", 0.05, duration=100.0, seed=3)
        b = measure_load_point("adaptive", 0.05, duration=100.0, seed=3)
        assert (a.delivered, a.mean_latency) == (b.delivered, b.mean_latency)

