"""Tests for SWIM gossip membership: the incarnation update algebra,
the gossip codec and piggyback buffer, and the live detector — crash
detection within the configured bound, graceful leave with zero false
accusations, refutation under latency spikes, and restart rejoining
past absorbing DEAD verdicts.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.runtime.fabric import Fabric
from repro.runtime.frames import (
    FrameError,
    GOSSIP_ALIVE,
    GOSSIP_DEAD,
    GOSSIP_JOIN,
    GOSSIP_LEFT,
    GOSSIP_REFUTE,
    GOSSIP_SUSPECT,
    GOSSIP_UPDATE_WORDS,
    decode_gossip,
    encode_gossip,
)
from repro.runtime.loadgen import CHAOS, run_load
from repro.runtime.membership import (
    GossipBuffer,
    MemberState,
    MembershipView,
    SwimConfig,
    SwimDetector,
    member_id,
    run_membership_soak,
)
from repro.runtime.tracing import EventType, Tracer

#: Detector soaks run scripted sleeps totalling well under a second.
SOAK_TIMEOUT = 25.0


def quick_config() -> SwimConfig:
    """Fast protocol periods so detector soaks finish in ~100s of ms."""
    return SwimConfig(period=0.02, suspect_timeout=0.06)


class TestIncarnationAlgebra:
    """MembershipView.apply is the whole SWIM update algebra; these are
    the incarnation edge cases, exercised without any I/O."""

    def test_unknown_member_installs_at_rumored_state(self):
        view = MembershipView()
        assert view.apply("a", GOSSIP_SUSPECT, 3, 0.0) is MemberState.SUSPECT
        rec = view.record("a")
        assert rec.incarnation == 3

    def test_stale_incarnation_is_ignored(self):
        view = MembershipView()
        view.seed("a", 2, 0.0)
        assert view.apply("a", GOSSIP_DEAD, 1, 0.0) is None
        assert view.state("a") is MemberState.ALIVE
        assert view.record("a").incarnation == 2

    def test_refutation_beats_same_incarnation_suspect(self):
        view = MembershipView()
        view.seed("a", 1, 0.0)
        assert view.apply("a", GOSSIP_SUSPECT, 1, 0.0) is MemberState.SUSPECT
        # Second-hand ALIVE at the same incarnation cannot clear it...
        assert view.apply("a", GOSSIP_ALIVE, 1, 0.0) is None
        assert view.state("a") is MemberState.SUSPECT
        # ...but the accused's first-hand refutation can.
        assert view.apply("a", GOSSIP_REFUTE, 1, 0.0) is MemberState.ALIVE

    def test_refute_is_a_noop_when_already_alive(self):
        view = MembershipView()
        view.seed("a", 1, 0.0)
        assert view.apply("a", GOSSIP_REFUTE, 1, 0.0) is None
        assert view.state("a") is MemberState.ALIVE

    def test_dead_is_absorbing_per_incarnation(self):
        view = MembershipView()
        view.seed("a", 1, 0.0)
        assert view.apply("a", GOSSIP_DEAD, 1, 0.0) is MemberState.DEAD
        for code in (GOSSIP_ALIVE, GOSSIP_SUSPECT, GOSSIP_REFUTE,
                     GOSSIP_LEFT):
            assert view.apply("a", code, 1, 0.0) is None
        assert view.state("a") is MemberState.DEAD

    def test_higher_incarnation_rejoins_past_dead(self):
        view = MembershipView()
        view.seed("a", 1, 0.0)
        view.apply("a", GOSSIP_DEAD, 1, 0.0)
        # The restarted peer announces itself under a bumped
        # incarnation; that must clear the absorbing verdict.
        assert view.apply("a", GOSSIP_JOIN, 2, 1.0) is MemberState.ALIVE
        assert view.record("a").incarnation == 2

    def test_left_is_absorbing_and_severity_orders_same_incarnation(self):
        view = MembershipView()
        view.seed("a", 1, 0.0)
        assert view.apply("a", GOSSIP_LEFT, 1, 0.0) is MemberState.LEFT
        assert view.apply("a", GOSSIP_DEAD, 1, 0.0) is None
        view.seed("b", 1, 0.0)
        assert view.apply("b", GOSSIP_SUSPECT, 1, 0.0) is MemberState.SUSPECT
        assert view.apply("b", GOSSIP_SUSPECT, 1, 0.0) is None  # no re-fire
        assert view.apply("b", GOSSIP_DEAD, 1, 0.0) is MemberState.DEAD


class TestGossipCodec:
    def test_roundtrip(self):
        updates = [(member_id("a"), GOSSIP_SUSPECT, 4),
                   (member_id("b"), GOSSIP_REFUTE, 5)]
        words = encode_gossip(updates)
        assert len(words) == GOSSIP_UPDATE_WORDS * len(updates)
        assert decode_gossip(words) == updates

    def test_ragged_payload_raises(self):
        with pytest.raises(FrameError):
            decode_gossip((1, 2))

    def test_unknown_code_raises(self):
        with pytest.raises(FrameError):
            decode_gossip((member_id("a"), 250, 1))

    def test_buffer_prefers_least_disseminated_and_spends_budget(self):
        cfg = SwimConfig(gossip_piggyback=1, gossip_lambda=1.0)
        buf = GossipBuffer(cfg)
        buf.post("old", (member_id("old"), GOSSIP_SUSPECT, 1), fanout=2)
        buf.take()  # spends one of old's budget
        buf.post("new", (member_id("new"), GOSSIP_DEAD, 1), fanout=2)
        # The fresher rumor has more budget left, so it goes first.
        assert decode_gossip(buf.take()) == [(member_id("new"),
                                              GOSSIP_DEAD, 1)]

    def test_buffer_drops_entry_once_budget_is_spent(self):
        cfg = SwimConfig(gossip_lambda=1.0)
        buf = GossipBuffer(cfg)
        buf.post("a", (member_id("a"), GOSSIP_ALIVE, 1), fanout=2)
        budget = cfg.retransmit_budget(2)
        for _ in range(budget):
            assert buf.take() != ()
        assert buf.take() == ()
        assert len(buf) == 0

    def test_repost_resets_budget(self):
        cfg = SwimConfig(gossip_lambda=1.0)
        buf = GossipBuffer(cfg)
        buf.post("a", (member_id("a"), GOSSIP_SUSPECT, 1), fanout=2)
        buf.take()
        buf.post("a", (member_id("a"), GOSSIP_REFUTE, 1), fanout=2)
        # Replacement rumor, full budget again.
        assert decode_gossip(buf.take()) == [(member_id("a"),
                                              GOSSIP_REFUTE, 1)]


class TestSwimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SwimConfig(period=0.0)
        with pytest.raises(ValueError):
            SwimConfig(probes=0)
        with pytest.raises(ValueError):
            SwimConfig(suspect_timeout=0.0)

    def test_bounds_are_constants_of_the_config(self):
        cfg = SwimConfig()
        assert cfg.detection_bound == pytest.approx(
            6 * cfg.period + 2 * cfg.suspect_timeout)
        assert cfg.control_bound_per_period == pytest.approx(
            4 * cfg.probes + 3 * cfg.proxies + 4)
        assert cfg.retransmit_budget(2) >= 1
        assert cfg.retransmit_budget(64) > cfg.retransmit_budget(4)


class TestSwimDetector:
    def test_crash_detected_within_bound(self, drive):
        async def body():
            cfg = quick_config()
            fabric = Fabric(mode="cm5", transport="loopback")
            detector = SwimDetector(fabric, cfg)
            try:
                names = [f"p{i}" for i in range(5)]
                for name in names:
                    await fabric.add_peer(name)
                detector.start()
                await asyncio.sleep(4 * cfg.period)
                loop = asyncio.get_running_loop()
                await fabric.crash_peer("p4")
                crashed_at = loop.time()
                deadline = crashed_at + 3 * cfg.detection_bound
                while "p4" not in detector.dead_at and loop.time() < deadline:
                    await asyncio.sleep(cfg.period / 2)
                latency = (detector.dead_at["p4"] - crashed_at
                           if "p4" in detector.dead_at else None)
                false = detector.false_dead({"p4"})
            finally:
                await detector.stop()
                await fabric.close()
            return cfg, latency, false

        cfg, latency, false = drive(body(), timeout=SOAK_TIMEOUT)
        assert latency is not None, "crash was never detected"
        assert latency <= cfg.detection_bound
        assert false == []

    def test_graceful_leave_is_left_not_dead(self, drive):
        async def body():
            cfg = quick_config()
            tracer = Tracer()
            fabric = Fabric(mode="cm5", transport="loopback", tracer=tracer)
            detector = SwimDetector(fabric, cfg)
            try:
                names = [f"p{i}" for i in range(5)]
                for name in names:
                    await fabric.add_peer(name)
                detector.start()
                await asyncio.sleep(4 * cfg.period)
                await fabric.remove_peer("p0")
                # Linger past the suspicion machinery's horizon: a false
                # accusation would need this long to surface.
                await asyncio.sleep(cfg.detection_bound)
                states = {obs: detector.state(obs, "p0")
                          for obs in names[1:]}
                assert tracer.overwritten == 0
                lefts = [e for e in tracer.events()
                         if e.etype is EventType.PEER_LEFT
                         and e.kind == "p0"]
                assert lefts, "no observer recorded the leave"
                accusations = [e for e in tracer.events()
                               if e.kind == "p0"
                               and e.etype in (EventType.PEER_SUSPECT,
                                               EventType.PEER_DEAD)]
            finally:
                await detector.stop()
                await fabric.close()
            return states, accusations, detector.dead_at

        states, accusations, dead_at = drive(body(), timeout=SOAK_TIMEOUT)
        assert all(s is MemberState.LEFT for s in states.values()), states
        assert accusations == []
        assert "p0" not in dead_at

    def test_restart_rejoins_under_higher_incarnation(self, drive):
        async def body():
            cfg = quick_config()
            fabric = Fabric(mode="cm5", transport="loopback")
            detector = SwimDetector(fabric, cfg)
            try:
                names = [f"p{i}" for i in range(5)]
                for name in names:
                    await fabric.add_peer(name)
                detector.start()
                await asyncio.sleep(4 * cfg.period)
                loop = asyncio.get_running_loop()
                await fabric.crash_peer("p4")
                deadline = loop.time() + 3 * cfg.detection_bound
                while "p4" not in detector.dead_at and loop.time() < deadline:
                    await asyncio.sleep(cfg.period / 2)
                assert "p4" in detector.dead_at, "crash never detected"
                await fabric.restart_peer("p4")
                deadline = loop.time() + 3 * cfg.detection_bound
                rejoined = False
                while loop.time() < deadline:
                    rejoined = all(
                        detector.state(obs, "p4") is MemberState.ALIVE
                        for obs in names[:4])
                    if rejoined:
                        break
                    await asyncio.sleep(cfg.period)
                incarnation = detector.incarnations.get("p4", 0)
            finally:
                await detector.stop()
                await fabric.close()
            return rejoined, incarnation

        rejoined, incarnation = drive(body(), timeout=SOAK_TIMEOUT)
        assert rejoined, "restarted peer never rejoined everywhere"
        assert incarnation >= 1

    def test_control_frames_flat_per_peer(self, drive):
        async def body():
            cfg = quick_config()
            fabric = Fabric(mode="cm5", transport="loopback")
            detector = SwimDetector(fabric, cfg)
            try:
                for i in range(8):
                    await fabric.add_peer(f"p{i}")
                detector.start()
                await asyncio.sleep(3 * cfg.period)
                frames0, ticks0 = (detector.control_frames_sent(),
                                   detector.ticks)
                await asyncio.sleep(8 * cfg.period)
                frames1, ticks1 = (detector.control_frames_sent(),
                                   detector.ticks)
            finally:
                await detector.stop()
                await fabric.close()
            periods = max(1, ticks1 - ticks0)
            return (frames1 - frames0) / 8 / periods, cfg

        per_peer, cfg = drive(body(), timeout=SOAK_TIMEOUT)
        assert 0 < per_peer <= cfg.control_bound_per_period


class TestProtocolPeriodOnTheWheel:
    """The protocol period is one timer on the fabric's wheel, re-armed
    every round, not a task sleeping on the loop."""

    def test_ticks_once_per_period_and_stop_leaves_no_timer(self, drive):
        async def body():
            cfg = quick_config()
            loop = asyncio.get_running_loop()
            fabric = Fabric(mode="cr")
            detector = SwimDetector(fabric, cfg)
            rounds = []
            real_tick = detector._tick

            def tick():
                ticks = detector.ticks
                real_tick()
                rounds.append((detector.ticks - ticks, loop.time(),
                               detector._timer.when()))

            detector._tick = tick
            try:
                for i in range(3):
                    await fabric.add_peer(f"p{i}")
                detector.start()
                while len(rounds) < 4:
                    await asyncio.sleep(cfg.period / 4)
                await detector.stop()
                ticks = detector.ticks
                await asyncio.sleep(3 * cfg.period)
                return (rounds, detector._timer, fabric.timers.live,
                        detector.ticks - ticks)
            finally:
                await fabric.close()

        rounds, timer, live, after_stop = drive(body(), timeout=SOAK_TIMEOUT)
        period = quick_config().period
        for advanced, ran_at, next_at in rounds:
            assert advanced == 1
            assert 0 < next_at - ran_at <= period  # re-armed one period on
        for (_, _, due), (_, ran_at, _) in zip(rounds, rounds[1:]):
            assert ran_at >= due  # never before its period is up
        assert timer is None and live == 0
        assert after_stop == 0

    def test_one_round_of_probes_leaves_in_one_flush_pass(self, drive):
        """Every observer's probes of a round are posted while the wheel
        fires, so each endpoint's flush runs inside that same pass."""

        async def body():
            fabric = Fabric(mode="cr")
            detector = SwimDetector(fabric, SwimConfig(period=60.0))
            wheel = fabric.timers
            passes, active, flushes = [], [], []
            real_run = wheel._run

            def counted_run():
                passes.append(1)
                active.append(True)
                real_run()
                active.pop()

            wheel._run = counted_run
            try:
                for i in range(16):
                    endpoint = await fabric.add_peer(f"p{i}")
                    real = endpoint._flush
                    endpoint._flush = (lambda real=real: (
                        flushes.append((len(passes), bool(active))), real()))
                detector.start()  # the first round runs on the next pass
                while detector.ticks == 0:
                    await asyncio.sleep(0)
                pings = sum(fabric.peer(f"p{i}").counters["membership.pings"]
                            for i in range(16))
                return flushes, pings
            finally:
                await detector.stop()
                await fabric.close()

        flushes, pings = drive(body(), timeout=SOAK_TIMEOUT)
        assert pings == 32  # k = 2 probes from each of 16 observers
        # The first 16 flushes are the probes', all in the first pass;
        # the acks that answer them flush on later loop turns.
        assert flushes[:16] == [(1, True)] * 16
        assert (1, True) not in flushes[16:]


class TestSoakEvents:
    """The lifecycle soak reads and exports the tracer's PEER_* events."""

    def test_exported_events_are_the_peer_trace_events(self, drive):
        tracer = Tracer()
        soak = drive(run_membership_soak(4, tracer=tracer),
                     timeout=SOAK_TIMEOUT)
        assert soak["ok"], soak["problems"]
        peer = [e for e in tracer.events()
                if e.etype.value.startswith("PEER_")]
        assert soak["events"] == [
            {"ts_ns": e.ts_ns, "observer": e.endpoint, "subject": e.kind,
             "event": e.etype.value, "incarnation": e.seq} for e in peer]
        kinds = {e["event"] for e in soak["events"]}
        assert {"PEER_LEFT", "PEER_DEAD", "PEER_ALIVE"} <= kinds

    def test_a_wrapped_ring_fails_the_soak(self, drive):
        """With events lost the leave phase cannot prove the leaver was
        never accused, so the soak must not pass."""
        soak = drive(run_membership_soak(4, tracer=Tracer(capacity=64)),
                     timeout=SOAK_TIMEOUT)
        assert not soak["ok"]
        assert any("overwrote" in problem for problem in soak["problems"])


class TestLatencySpikeScenario:
    """The new chaos row's semantics beyond the generic clean-audit
    gate: a 600 ms latency spike must produce zero DEAD verdicts and at
    least one incarnation-bump refutation."""

    @pytest.mark.parametrize("mode", ["cm5", "cr"])
    def test_spike_refutes_instead_of_killing(self, drive, mode):
        config = replace(CHAOS, mode=mode, peers=4, channels=4, messages=18,
                         send_interval=0.008)
        result = drive(run_load(config, "latency-spike-no-false-dead"),
                       timeout=SOAK_TIMEOUT)
        assert result.errors == []
        assert result.audit.clean, result.audit.to_dict()
        assert result.false_dead == []
        assert result.refutations >= 1
        assert result.refutation_expected


class TestLivenessFromTraffic:
    """A direct probe is skipped only for a peer the observer heard from
    in the last period, that its view holds ALIVE, while the observer has
    no gossip to piggyback."""

    @staticmethod
    async def one_round(prepare):
        """Run one probe round of ``a`` (two peers, one probe target)
        after ``prepare(detector, a)``; returns ``a``'s counters and
        what ``a.heard`` holds after the round."""
        fabric = Fabric(mode="cm5", transport="loopback")
        detector = SwimDetector(fabric, replace(quick_config(), probes=1))
        try:
            a = await fabric.add_peer("a")
            await fabric.add_peer("b")
            detector.start()  # the period task has not run yet
            prepare(detector, a)
            detector._probe_round(a, asyncio.get_running_loop().time())
            return a.counters.to_dict(), set(a.heard)
        finally:
            await detector.stop()
            await fabric.close()

    def test_heard_alive_target_with_empty_buffer_is_skipped(self, drive):
        def prepare(detector, a):
            a.heard.add("b")

        counters, heard = drive(self.one_round(prepare))
        assert counters.get("membership.pings_skipped") == 1
        assert counters.get("membership.pings", 0) == 0
        assert heard == set()  # the round swapped the set out

    def test_unheard_target_is_probed(self, drive):
        counters, _ = drive(self.one_round(lambda detector, a: None))
        assert counters.get("membership.pings") == 1
        assert counters.get("membership.pings_skipped", 0) == 0

    def test_suspect_target_is_never_skipped(self, drive):
        def prepare(detector, a):
            a.heard.add("b")
            now = asyncio.get_running_loop().time()
            detector.views["a"].apply("b", GOSSIP_SUSPECT, 0, now)

        counters, _ = drive(self.one_round(prepare))
        assert counters.get("membership.pings") == 1
        assert counters.get("membership.pings_skipped", 0) == 0

    def test_pending_gossip_disables_skipping(self, drive):
        def prepare(detector, a):
            a.heard.add("b")
            detector._buffers["a"].post(
                "b", (member_id("b"), GOSSIP_ALIVE, 0), 2)

        counters, _ = drive(self.one_round(prepare))
        assert counters.get("membership.pings") == 1
        assert counters.get("membership.pings_skipped", 0) == 0

    def test_nothing_is_recorded_without_a_detector(self, drive):
        async def body():
            fabric = Fabric(mode="cm5", transport="loopback")
            detector = SwimDetector(fabric, quick_config())
            try:
                a = await fabric.add_peer("a")
                await fabric.add_peer("b")
                before = a.heard
                detector.start()
                during = a.heard
                await detector.stop()
                return before, during, a.heard
            finally:
                await fabric.close()

        before, during, after = drive(body())
        assert before is None and after is None
        assert during == set()

    def test_crash_with_traffic_in_flight_is_detected_within_bound(
            self, drive):
        """The victim's last datagrams still arrive after it died, so
        observers skip it for a period — and must still declare it DEAD
        within the configured bound."""

        async def body():
            cfg = quick_config()
            # A small fraction of a period: frames stay in flight
            # without round trips stretching to the probe timeout.
            fabric = Fabric(mode="cm5", transport="loopback",
                            latency=cfg.period / 10, reorder_rate=0.0)
            detector = SwimDetector(fabric, cfg)
            names = [f"p{i}" for i in range(5)]
            try:
                for name in names:
                    await fabric.add_peer(name)
                conns = [await fabric.connect("p4", obs)
                         for obs in names[:4]]
                detector.start()
                loop = asyncio.get_running_loop()
                # Four protocol periods of traffic, counted in probe
                # rounds rather than wall clock: a loaded CPU stretches
                # the window instead of cutting rounds out of it.
                while detector.ticks < 4:
                    for conn in conns:
                        await conn.send([1, 2, 3])
                    await asyncio.sleep(cfg.period / 8)
                skipped = sum(
                    fabric.peer(obs).counters.get("membership.pings_skipped")
                    for obs in names[:4])
                # Crash with the victim's last frames still on the wire.
                await fabric.crash_peer("p4")
                crashed_at = loop.time()
                deadline = crashed_at + 3 * cfg.detection_bound
                while "p4" not in detector.dead_at and loop.time() < deadline:
                    await asyncio.sleep(cfg.period / 2)
                latency = (detector.dead_at["p4"] - crashed_at
                           if "p4" in detector.dead_at else None)
                false = detector.false_dead({"p4"})
            finally:
                await detector.stop()
                await fabric.close()
            return cfg, skipped, latency, false

        cfg, skipped, latency, false = drive(body(), timeout=SOAK_TIMEOUT)
        assert skipped > 0  # the traffic did stand in for probes
        assert latency is not None, "crash was never detected"
        assert latency <= cfg.detection_bound
        assert false == []
