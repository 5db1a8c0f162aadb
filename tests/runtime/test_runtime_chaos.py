"""Tests for the chaos engine: scripted faults, failure detection,
epoch recovery, and the end-to-end exactly-once audit.

The scenario tests are small soaks — a few peers, a few lanes — but
every one of them ends the only way a chaos run is allowed to end: a
clean audit (exactly-once, in-order), with permanently dead peers
surfacing as *typed* ``ChannelBroken`` lanes rather than silent loss
or a hang.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.runtime.chaos import ChaosInjector, SCENARIOS
from repro.runtime.fabric import Fabric
from repro.runtime.loadgen import CHAOS, run_load, spread_pairs
from repro.runtime.protocols import RecoveryPolicy
from repro.runtime.tracing import EventType, Tracer

#: Scenario soak ceiling — each cell runs scripted sleeps totalling
#: around a second, plus settle time.
SOAK_TIMEOUT = 25.0


def small_config(mode: str):
    return replace(CHAOS, mode=mode, peers=4, channels=4, messages=18,
                   send_interval=0.008)


class TestInjector:
    def test_partition_suppresses_both_directions(self, drive):
        async def body():
            fabric = Fabric(mode="cm5", reorder_rate=0.0)
            hub = fabric.hub
            a, b = hub.attach("a"), hub.attach("b")
            got = []
            b.set_receiver(lambda datagrams, src: got.extend(datagrams))
            injector = ChaosInjector(fabric)
            injector.partition_link("a", "b")
            a.send_now("b", b"lost")
            await asyncio.sleep(0.02)
            injector.heal_all()
            a.send_now("b", b"through")
            await asyncio.sleep(0.02)
            return got, hub.partitioned

        got, partitioned = drive(body())
        assert got == [b"through"]
        assert partitioned == 1

    def test_asymmetric_block_passes_reverse_direction(self, drive):
        async def body():
            fabric = Fabric(mode="cm5", reorder_rate=0.0)
            hub = fabric.hub
            a, b = hub.attach("a"), hub.attach("b")
            at_a, at_b = [], []
            a.set_receiver(lambda datagrams, src: at_a.extend(datagrams))
            b.set_receiver(lambda datagrams, src: at_b.extend(datagrams))
            injector = ChaosInjector(fabric)
            injector.block_link("a", "b")
            a.send_now("b", b"blocked")
            b.send_now("a", b"fine")
            await asyncio.sleep(0.02)
            return at_a, at_b

        at_a, at_b = drive(body())
        assert at_a == [b"fine"]
        assert at_b == []

    def test_reliable_hub_holds_and_replays_in_order(self, drive):
        """On a CR hub, a partition must not lose data: the injector
        holds the bytes and replays them FIFO on heal — the reliable
        network keeps its delivery contract across scripted outages."""

        async def body():
            fabric = Fabric(mode="cr")
            hub = fabric.hub
            a, b = hub.attach("a"), hub.attach("b")
            got = []
            b.set_receiver(lambda datagrams, src: got.extend(datagrams))
            injector = ChaosInjector(fabric)
            injector.isolate("b")
            for i in range(5):
                a.send_now("b", bytes([i]))
            await asyncio.sleep(0.02)
            got_mid_outage = list(got)
            injector.heal_node("b")
            await asyncio.sleep(0.02)
            return got, got_mid_outage, injector.replayed

        got, got_mid_outage, replayed = drive(body())
        assert got_mid_outage == []
        assert replayed == 5
        assert got == [bytes([i]) for i in range(5)]

    def test_bursts_are_noops_on_reliable_hub(self, drive):
        async def body():
            fabric = Fabric(mode="cr")
            hub = fabric.hub
            a, b = hub.attach("a"), hub.attach("b")
            got = []
            b.set_receiver(lambda datagrams, src: got.extend(datagrams))
            injector = ChaosInjector(fabric)
            injector.set_burst(drop=1.0, corrupt=1.0)
            for i in range(10):
                a.send_now("b", bytes([i]))
            await asyncio.sleep(0.02)
            return got

        assert drive(body()) == [bytes([i]) for i in range(10)]

    def test_burst_drop_suppresses_on_cm5(self, drive):
        async def body():
            fabric = Fabric(mode="cm5", reorder_rate=0.0)
            hub = fabric.hub
            a, b = hub.attach("a"), hub.attach("b")
            got = []
            b.set_receiver(lambda datagrams, src: got.extend(datagrams))
            injector = ChaosInjector(fabric)
            injector.set_burst(drop=1.0)
            a.send_now("b", b"gone")
            injector.set_burst()  # clear
            a.send_now("b", b"kept")
            await asyncio.sleep(0.02)
            return got, hub.dropped

        got, dropped = drive(body())
        assert got == [b"kept"]
        assert dropped == 1

    def test_burst_rates_validated(self):
        injector = ChaosInjector(Fabric())
        with pytest.raises(ValueError):
            injector.set_burst(drop=1.5)
        with pytest.raises(ValueError):
            injector.spike_latency(-0.1)


def _marks(tracer):
    return [e for e in tracer.events() if e.etype is EventType.MARK]


class TestFaultAnnotations:
    def _injector_with_log(self):
        tracer = Tracer(label="chaos-test")
        fabric = Fabric(mode="cm5", reorder_rate=0.0, tracer=tracer)
        for name in "abc":
            fabric.hub.attach(name)
        return ChaosInjector(fabric), tracer

    def test_fault_schedule_changes_are_narrated(self):
        injector, tracer = self._injector_with_log()
        injector.block_link("a", "b")
        injector.partition_link("a", "b")
        injector.heal_link("a", "b")
        injector.heal_all()
        assert [e.kind for e in _marks(tracer)] == [
            "block a->b",
            "partition a<->b",
            "heal a->b",
            "heal all",
        ]

    def test_group_partition_and_isolation_name_the_nodes(self):
        injector, tracer = self._injector_with_log()
        injector.partition_groups(["a"], ["b", "c"])
        injector.isolate("c")
        injector.heal_node("c")
        assert [e.kind for e in _marks(tracer)] == [
            "partition groups a | b/c", "isolate c", "heal c"]

    def test_without_observer_faults_are_silent(self):
        fabric = Fabric(mode="cm5", reorder_rate=0.0)
        fabric.hub.attach("a"), fabric.hub.attach("b")
        injector = ChaosInjector(fabric)
        injector.partition_link("a", "b")  # must not raise
        injector.heal_all()

    def test_recorder_receives_marks_directly(self):
        """The fabric's tracer is the one recorder: each note is a MARK
        event on it, stamped and labelled like every other event."""
        injector, tracer = self._injector_with_log()
        injector.partition_link("a", "b")
        injector.heal_all()
        marks = _marks(tracer)
        assert [e.kind for e in marks] == ["partition a<->b", "heal all"]
        assert {(e.label, e.endpoint) for e in marks} == {
            ("chaos-test", "chaos")}
        assert marks[0].ts_ns <= marks[1].ts_ns


class TestChaosPairs:
    def test_needs_two_peers(self):
        with pytest.raises(ValueError):
            spread_pairs(["only"], 2, victim="only")


class TestScenarios:
    """Every scripted scenario, both modes, must end with a clean audit."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("mode", ["cm5", "cr"])
    def test_scenario_audit_is_clean(self, drive, scenario, mode):
        result = drive(run_load(small_config(mode), scenario),
                       timeout=SOAK_TIMEOUT)
        assert result.errors == []
        report = result.audit
        assert report.clean, report.to_dict()
        assert report.duplicates == 0
        assert report.misordered == 0
        assert report.checksum_failures == 0
        assert report.missing == 0  # loss is only legal on broken lanes
        if SCENARIOS[scenario].expects_detection:
            assert result.detection_latency is not None
            assert result.detection_within_bound

    def test_crash_restart_resumes_without_duplicates(self, drive):
        """The tentpole recovery path: crash mid-traffic, restart under
        the same address, and the epoch renegotiation resumes from the
        receiver's durable delivery point — everything delivered exactly
        once, nothing broken."""
        config = replace(small_config("cm5"), messages=40,
                         send_interval=0.01)
        result = drive(run_load(config, "crash-restart"),
                       timeout=SOAK_TIMEOUT)
        assert result.errors == []
        assert result.broken_lanes == []
        report = result.audit
        assert report.clean, report.to_dict()
        assert report.delivered == report.offered
        assert report.duplicates == 0
        # The crash interrupted live traffic, so the sender facing the
        # restarted peer must actually have renegotiated an epoch.
        assert result.recoveries >= 1

    def test_permanent_crash_breaks_typed_not_silent(self, drive):
        """A permanently dead peer must surface as ChannelBroken on the
        lanes into it — and the audit books their missing messages under
        the broken-lane contract, not as violations."""
        config = replace(small_config("cm5"), messages=40,
                         send_interval=0.01)
        result = drive(run_load(config, "crash-permanent"),
                       timeout=SOAK_TIMEOUT)
        assert result.broken_lanes, "expected at least one broken lane"
        for _cid, reason in result.broken_lanes:
            assert reason  # a typed, human-readable failure
        report = result.audit
        assert report.clean, report.to_dict()
        assert report.missing == 0
        assert report.missing_on_broken > 0
        assert result.detection_within_bound

    def test_unknown_scenario_rejected(self, drive):
        with pytest.raises(ValueError):
            drive(run_load(small_config("cm5"), "no-such-scenario"))

    def test_scenario_needs_the_loopback_hub(self, drive):
        with pytest.raises(ValueError, match="loopback"):
            drive(run_load(replace(small_config("cm5"), transport="udp"),
                           "partition-heal"))

    def test_fault_tolerance_share_is_nonzero_under_chaos(self, drive):
        """Even in CR mode — where the *transport* is lossless — the
        failure detector and recovery machinery cost real time; chaos
        runs must show it in the timeshare (which is why the Figure 6
        collapse gate does not apply to chaos rows)."""
        result = drive(run_load(small_config("cr"), "partition-heal"),
                       timeout=SOAK_TIMEOUT)
        assert result.audit.clean
        assert result.fault_tolerance_share > 0.0

    def test_broken_lane_into_a_live_peer_is_an_error(self, drive):
        """Only a crashed destination excuses a broken lane.  Trimmed
        recovery breaks lanes during a partition whose peers are all
        alive at the end: each break is an error, and whatever those
        lanes lost counts as missing, never as excused loss."""
        config = replace(small_config("cm5"), recovery=RecoveryPolicy(
            max_epochs=1, probe_retries=1, probe_interval=0.01))
        result = drive(run_load(config, "partition-heal"),
                       timeout=SOAK_TIMEOUT)
        assert result.broken_lanes, "trimmed recovery broke no lane"
        assert not result.completed
        broke = [error for error in result.errors if " broke: " in error]
        assert len(broke) == len(result.broken_lanes)
        assert result.audit.missing_on_broken == 0
        assert result.audit.broken_lanes == 0

    def test_config_validated(self):
        with pytest.raises(ValueError):
            replace(CHAOS, peers=1)
        with pytest.raises(ValueError):
            replace(CHAOS, message_words=2)
        with pytest.raises(ValueError):
            replace(CHAOS, send_interval=-0.01)
