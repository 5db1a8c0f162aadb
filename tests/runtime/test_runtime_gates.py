"""Tests for the runtime acceptance gates (``repro.runtime.gates``).

The committed ``benchmarks/BENCH_runtime.json`` must pass every family
gate, and each gate must report a record mutated to break its rule —
including the rules the CLI used to skip or apply more loosely than the
bench test.
"""

import json
from pathlib import Path

import pytest

from repro.runtime import gates

BENCH_JSON = (Path(__file__).resolve().parents[2] / "benchmarks"
              / "BENCH_runtime.json")


@pytest.fixture
def payload():
    return json.loads(BENCH_JSON.read_text())


class TestCommittedPayload:
    @pytest.mark.parametrize("family", sorted(gates.FAMILIES))
    def test_every_family_passes(self, payload, family):
        assert gates.FAMILIES[family](payload[family]) == []

    def test_whole_payload_passes(self, payload):
        assert gates.check_payload(payload) == []

    def test_missing_cell_is_reported(self, payload):
        del payload["coll"]["coll/partition/cr"]
        assert gates.check_payload(payload) == [
            "coll row coll/partition/cr is missing"]


class TestChaosGate:
    CELL = "latency-spike-no-false-dead/cm5"

    def test_false_dead_is_reported(self, payload):
        record = payload["chaos"][self.CELL]
        record["false_dead"] = ["p03"]
        problems = gates.chaos({self.CELL: record})
        assert len(problems) == 1 and "['p03']" in problems[0]

    def test_zero_refutations_are_reported(self, payload):
        record = payload["chaos"][self.CELL]
        record["refutations"] = 0
        problems = gates.chaos({self.CELL: record})
        assert len(problems) == 1 and "never refuted" in problems[0]

    def test_missed_crash_is_reported(self, payload):
        record = payload["chaos"]["crash-restart/cr"]
        record["detection_latency_s"] = None
        assert gates.chaos({"crash-restart/cr": record}) == [
            "chaos crash-restart/cr: the failure detector missed the crash"]


class TestOverloadGate:
    CELL = "overload/cm5/10x"

    def test_tracked_beyond_send_window_is_reported(self, payload):
        record = payload["overload"][self.CELL]
        record["peaks"]["tracked"] = record["peaks"]["send_window"] + 1
        problems = gates.overload({self.CELL: record})
        assert len(problems) == 1 and "tracked" in problems[0]

    def test_missing_audit_is_reported(self, payload):
        record = payload["overload"][self.CELL]
        record["audit"] = None
        assert gates.overload({self.CELL: record}) == [
            f"overload {self.CELL} carries no audit verdict"]

    def test_collapsed_throughput_is_reported(self, payload):
        rows = payload["overload"]
        rows[self.CELL]["throughput_msgs_per_s"] = (
            0.4 * rows["overload/cm5/1x"]["throughput_msgs_per_s"])
        problems = gates.overload(rows)
        assert len(problems) == 1 and "retained only 40%" in problems[0]


class TestCollapseGates:
    def test_zero_cm5_share_is_not_a_collapse(self):
        problems = gates.collapse({"indefinite": {
            "cm5_ordering_fault_share": 0.0,
            "cr_ordering_fault_share": 0.0}})
        assert problems == [
            "indefinite: CM-5 measured no ordering+fault overhead"]

    def test_cr_share_at_the_ratio_fails(self):
        assert gates.collapse({"single": {
            "cm5_ordering_fault_share": 0.4,
            "cr_ordering_fault_share": 0.4 * gates.COLLAPSE_RATIO}})

    def test_fabric_cr_share_must_be_exactly_zero(self, payload):
        rows = payload["fabric"]
        rows["cr/p8"]["ordering_fault_share"] = 0.01
        problems = gates.fabric(rows)
        assert len(problems) == 1 and "CR ran" in problems[0]

    def test_protocol_cr_share_must_be_exactly_zero(self, payload):
        record = payload["protocols"]["finite/cr"]
        record["ordering_fault_share"] = 0.01
        problems = gates.protocols({"finite/cr": record})
        assert len(problems) == 1 and "CR ran" in problems[0]

    def test_single_packet_acks_are_not_held_to_the_coalescing_bound(
            self, payload):
        rows = {cell: payload["protocols"][cell]
                for cell in ("single/cm5", "finite/cm5")}
        assert rows["single/cm5"]["acks_per_data"] >= gates.ACKS_PER_DATA_BOUND
        assert gates.protocols(rows) == []
        rows["finite/cm5"]["acks_per_data"] = 1.0
        problems = gates.protocols(rows)
        assert len(problems) == 1 and "acks per data" in problems[0]


class TestMemberGate:
    def test_growing_control_rate_is_reported(self, payload):
        rows = {cell: record for cell, record in payload["member"].items()
                if record["mode"] == "cr"}
        small = rows["cr/p8"]["control_frames_per_peer_per_period"]
        rows["cr/p64"]["control_frames_per_peer_per_period"] = 2 * small
        problems = gates.member(rows)
        assert len(problems) == 1 and "grew from" in problems[0]

    def test_single_size_skips_the_flatness_gate(self, payload):
        assert gates.member({"cm5/p8": payload["member"]["cm5/p8"]}) == []

