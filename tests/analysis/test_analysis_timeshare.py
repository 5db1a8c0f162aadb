"""Edge-case tests for the wall-clock time-share tables."""

import pytest

from repro.arch.attribution import FEATURE_LABELS, Feature
from repro.analysis.timeshare import (
    fabric_collapse,
    render_mode_comparison,
    render_time_table,
)
from repro.runtime.loadgen import LoadResult, protocol_cell
from repro.runtime.tracing import LatencyHistogram


def result(protocol="single", mode="cm5", src=None, dst=None, wire=None):
    """A two-peer load result with the given per-peer nanoseconds (the
    rest zero, as a peer's attribution snapshot has them)."""
    peers = {name: {feature: (given or {}).get(feature, 0)
                    for feature in Feature}
             for name, given in (("p000", src), ("p001", dst))}
    totals = {feature: sum(by_feature.get(feature, 0)
                           for by_feature in peers.values())
              for feature in Feature}
    return LoadResult(
        config=protocol_cell(protocol, 4, mode=mode), completed=True,
        wall_ns=0, messages_sent=0, messages_delivered=0,
        corrupt_messages=0, latency=LatencyHistogram(), feature_ns=totals,
        peer_feature_ns=peers, wire=wire or {})


def build(**kwargs):
    return result(**kwargs).to_record()


class TestBuildEdgeCases:
    def test_missing_features_default_to_zero(self):
        record = build(src={Feature.BASE: 100})
        assert set(record["features"]) == {f.value for f in Feature}
        assert record["peer_features"]["p000"]["base"] == 100
        assert record["features"]["fault_tolerance"]["ns"] == 0
        assert sum(cell["ns"] for cell in record["features"].values()) == 100

    def test_zero_total_shares_are_zero_not_nan(self):
        empty = result()
        assert empty.total_ns == 0
        assert empty.share(Feature.BASE) == 0.0
        assert empty.ordering_fault_share == 0.0
        assert all(cell["share"] == 0.0
                   for cell in empty.to_record()["features"].values())

    def test_overhead_excludes_base(self):
        record = build(src={Feature.BASE: 600, Feature.IN_ORDER: 300},
                       dst={Feature.FAULT_TOLERANCE: 100})
        assert record["ordering_fault_share"] == pytest.approx(0.4)
        assert record["features"]["base"]["share"] == pytest.approx(0.6)

    def test_to_dict_round_trips_shape(self):
        record = build(src={Feature.BASE: 10})
        assert record["protocol"] == "single"
        assert set(record["peer_features"]) == {"p000", "p001"}
        assert set(record["peer_features"]["p001"]) == {
            feature.value for feature in Feature}


class TestRenderingEdgeCases:
    def test_time_table_with_zero_total(self):
        out = render_time_table(build())
        assert "0.0" in out
        assert "100%" in out  # total row renders even when empty
        assert "p000 (us)" in out and "p001 (us)" in out

    def test_mode_comparison_with_zero_cr_total(self):
        cm5 = build(mode="cm5", src={Feature.BASE: 500,
                                     Feature.IN_ORDER: 500})
        cr = build(mode="cr")
        out = render_mode_comparison(cm5, cr)
        assert "CM-5 vs CR transport" in out
        assert "nan" not in out.lower()

    def test_mode_comparison_includes_every_feature_row(self):
        cm5 = build(src={feature: 100 for feature in Feature})
        cr = build(mode="cr", src={Feature.BASE: 100})
        out = render_mode_comparison(cm5, cr)
        for feature in Feature:
            assert FEATURE_LABELS[feature] in out
        assert "Total" in out


class TestOverheadCollapse:
    def test_collapse_ratio(self):
        cm5 = build(src={Feature.BASE: 500, Feature.IN_ORDER: 300,
                         Feature.FAULT_TOLERANCE: 200})
        cr = build(mode="cr", src={Feature.BASE: 500})
        collapse = fabric_collapse([cm5, cr])
        assert set(collapse) == {("single", 2)}
        cell = collapse[("single", 2)]
        assert cell["cm5_ordering_fault_share"] == pytest.approx(0.5)
        assert cell["cr_ordering_fault_share"] == 0.0
        assert cell["collapse_ratio"] == 0.0

    def test_zero_cm5_share_avoids_division_by_zero(self):
        quiet = build(src={Feature.BASE: 100})
        quiet_cr = dict(quiet, mode="cr")
        collapse = fabric_collapse([quiet, quiet_cr])
        assert collapse[("single", 2)]["collapse_ratio"] == 0.0

    def test_protocols_and_peer_counts_stay_apart(self):
        records = [build(protocol=protocol, mode=mode)
                   for protocol in ("single", "finite")
                   for mode in ("cm5", "cr")]
        assert set(fabric_collapse(records)) == {("single", 2), ("finite", 2)}
        assert fabric_collapse(records[:1]) == {}


class TestAcksPerDataEdgeCases:
    def test_zero_data_datagrams(self):
        assert result().acks_per_data == 0.0
        assert result(wire={"ack_datagrams": 3}).acks_per_data == 0.0
