"""Tests for the concurrent load generator over the fabric."""

import asyncio
from collections import Counter
from dataclasses import replace

import pytest

from repro.analysis.journey import reconstruct_journeys
from repro.runtime.loadgen import (
    AuditLedger,
    LoadConfig,
    measure_load,
    message_checksum,
    run_load,
    spread_pairs,
)
from repro.runtime.tracing import EventType, Tracer

#: Small but real: 4 peers, 6 channels, 3 messages each.
SMALL = LoadConfig(peers=4, channels=6, messages=3, message_words=8,
                   packet_words=4, drop_rate=0.05, reorder_rate=0.1,
                   deadline=20.0)


class TestSpreadPairs:
    def test_even_distribution_of_sources_and_sinks(self):
        names = [f"p{i}" for i in range(4)]
        pairs = spread_pairs(names, 8)
        srcs = Counter(src for src, _ in pairs)
        dsts = Counter(dst for _, dst in pairs)
        assert set(srcs.values()) == {2}
        assert set(dsts.values()) == {2}

    def test_no_self_pairs_and_distinct_strides(self):
        names = [f"p{i}" for i in range(3)]
        pairs = spread_pairs(names, 6)
        assert all(src != dst for src, dst in pairs)
        # 3 peers admit 6 distinct directed pairs; all must appear.
        assert len(set(pairs)) == 6

    def test_rejects_fewer_than_two_names(self):
        with pytest.raises(ValueError):
            spread_pairs(["solo"], 2)

    def test_victim_never_sources_but_always_sinks(self):
        names = [f"p{i}" for i in range(5)]
        pairs = spread_pairs(names, 6, victim="p4")
        assert all(src != "p4" for src, _dst in pairs)
        assert any(dst == "p4" for _src, dst in pairs)
        assert all(src != dst for src, dst in pairs)

    def test_victim_gets_a_lane_even_when_the_rings_miss_it(self):
        names = [f"p{i}" for i in range(5)]
        assert spread_pairs(names, 2) == [("p0", "p1"), ("p1", "p2")]
        assert spread_pairs(names, 2, victim="p4") == [
            ("p0", "p4"), ("p1", "p2")]

    def test_bench_small_cm5_lanes_are_pinned(self):
        """The benchmark's 4-peer, 16-lane shape must keep its lanes:
        three stride rings, then the stride-1 ring again."""
        names = [f"p{i:02d}" for i in range(4)]
        ring1 = [("p00", "p01"), ("p01", "p02"), ("p02", "p03"),
                 ("p03", "p00")]
        ring2 = [("p00", "p02"), ("p01", "p03"), ("p02", "p00"),
                 ("p03", "p01")]
        ring3 = [("p00", "p03"), ("p01", "p00"), ("p02", "p01"),
                 ("p03", "p02")]
        assert spread_pairs(names, 16) == ring1 + ring2 + ring3 + ring1


class TestConfigValidation:
    def test_needs_two_peers(self):
        with pytest.raises(ValueError):
            LoadConfig(peers=1)

    def test_needs_positive_channels_and_messages(self):
        with pytest.raises(ValueError):
            LoadConfig(channels=0)
        with pytest.raises(ValueError):
            LoadConfig(messages=0)

    def test_needs_room_for_the_integrity_header(self):
        with pytest.raises(ValueError):
            LoadConfig(message_words=1)


class TestAuditLedger:
    """Unit tests for the exactly-once bookkeeping itself."""

    def stamped(self, ledger, cid, index, filler=(7, 8)):
        return ledger.stamp(cid, index, list(filler))

    def test_clean_lane_audits_clean(self):
        ledger = AuditLedger()
        for k in range(5):
            ledger.record_delivery(1, self.stamped(ledger, 1, k))
        report = ledger.verdict()
        assert report.clean
        assert (report.offered, report.delivered) == (5, 5)

    def test_duplicate_detected(self):
        ledger = AuditLedger()
        words = self.stamped(ledger, 1, 0)
        ledger.record_delivery(1, words)
        ledger.record_delivery(1, words)
        report = ledger.verdict()
        assert report.duplicates == 1
        assert not report.clean

    def test_gap_counts_one_misorder_then_resyncs(self):
        ledger = AuditLedger()
        w0 = self.stamped(ledger, 1, 0)
        w1 = self.stamped(ledger, 1, 1)
        w2 = self.stamped(ledger, 1, 2)
        ledger.record_delivery(1, w0)
        ledger.record_delivery(1, w2)  # skipped 1: one violation...
        report = ledger.verdict()
        assert report.misordered == 1
        # ...and the books resync so the lane stays auditable: index 1
        # arriving late now reads as out of order (a duplicate of the
        # past), not as a fresh clean delivery.
        ledger.record_delivery(1, w1)
        assert ledger.verdict().violations >= 2

    def test_checksum_failure_detected(self):
        ledger = AuditLedger()
        words = self.stamped(ledger, 1, 0)
        words[-1] ^= 1  # corrupt the filler after stamping
        ledger.record_delivery(1, words)
        report = ledger.verdict()
        assert report.checksum_failures == 1

    def test_missing_is_a_violation_unless_lane_broke(self):
        ledger = AuditLedger()
        self.stamped(ledger, 1, 0)  # offered, never delivered
        assert ledger.verdict().missing == 1
        assert not ledger.verdict().clean
        broken = ledger.verdict(broken_lanes=[1])
        assert broken.missing == 0
        assert broken.missing_on_broken == 1
        assert broken.clean  # loss on a broken lane is the contract

    def test_checksum_covers_cid_index_and_filler(self):
        base = message_checksum(3, 1, [5, 6])
        assert message_checksum(4, 1, [5, 6]) != base
        assert message_checksum(3, 2, [5, 6]) != base
        assert message_checksum(3, 1, [5, 7]) != base

    def test_stamp_enforces_sequential_indices(self):
        ledger = AuditLedger()
        ledger.stamp(1, 0, [9])
        with pytest.raises(ValueError):
            ledger.stamp(1, 2, [9])


class TestLoadRuns:
    def test_cm5_load_delivers_everything_through_faults(self, drive):
        result = measure_load(SMALL)
        assert result.completed
        assert result.errors == []
        assert result.messages_sent == 6 * 3
        assert result.lost_messages == 0
        assert result.corrupt_messages == 0
        # Every delivered message contributed one latency sample.
        assert result.latency.count == 18
        # Faults were actually exercised somewhere in the sweep.
        assert result.wire["data_datagrams"] > 0

    def test_cr_load_skips_the_machinery_entirely(self, drive):
        result = measure_load(replace(SMALL, mode="cr",
                                      drop_rate=0.0, reorder_rate=0.0))
        assert result.completed and result.lost_messages == 0
        assert result.ordering_fault_share == 0.0
        assert result.wire["ack_datagrams"] == 0
        assert result.wire["retransmissions"] == 0

    def test_cm5_overhead_share_collapses_against_cr(self, drive):
        cm5 = measure_load(SMALL)
        cr = measure_load(replace(SMALL, mode="cr",
                                  drop_rate=0.0, reorder_rate=0.0))
        assert cm5.ordering_fault_share > 0.0
        assert cr.ordering_fault_share <= cm5.ordering_fault_share * 0.5

    def test_run_load_composes_with_a_running_loop(self, drive):
        async def body():
            return await run_load(replace(SMALL, channels=2, messages=2))

        result = drive(body())
        assert result.completed and result.lost_messages == 0

    def test_deadline_expiry_reports_instead_of_hanging(self, drive):
        config = replace(SMALL, deadline=0.001, channels=4, messages=8)
        result = measure_load(config)
        assert not result.completed
        assert any("deadline" in err for err in result.errors)

    def test_to_record_round_trips_through_json(self, drive):
        import json

        result = measure_load(replace(SMALL, channels=2, messages=2))
        record = json.loads(json.dumps(result.to_record()))
        assert record["mode"] == "cm5"
        assert record["peers"] == 4
        assert record["lost_messages"] == 0
        assert record["latency"]["count"] == result.latency.count
        assert 0.0 <= record["ordering_fault_share"] <= 1.0
        assert set(record["features"]) >= {"base", "in_order"}

    def test_audited_load_proves_exactly_once(self, drive):
        result = measure_load(replace(SMALL, audit=True))
        assert result.completed
        assert result.audit is not None
        assert result.audit.clean, result.audit.to_dict()
        assert result.audit.delivered == result.audit.offered
        record = result.to_record()
        assert record["audit"]["violations"] == 0

    def test_unaudited_load_has_no_audit_report(self, drive):
        result = measure_load(replace(SMALL, channels=2, messages=2))
        assert result.audit is None
        assert result.to_record()["audit"] is None

    def test_runs_sharing_a_tracer_stay_apart(self, drive):
        """Each run labels a shared tracer with its own cell, so later
        runs, which reuse channel ids and peer names, never fold onto
        the first run's journey keys or Perfetto tracks."""
        tracer = Tracer()
        config = LoadConfig(peers=3, channels=4, messages=4,
                            message_words=16, deadline=20.0)
        for mode in ("cm5", "cr"):
            result = measure_load(replace(config, mode=mode), tracer=tracer)
            assert result.completed
        events = tracer.events()
        delivers = sum(1 for e in events if e.etype is EventType.DELIVER)
        journeys = reconstruct_journeys(events)
        assert delivers == 64
        assert len(journeys) == delivers
        assert all(j.complete for j in journeys)
        assert {j.label for j in journeys} == {"load/cm5/p3/x1",
                                               "load/cr/p3/x1"}

    def test_no_tasks_leak_after_a_load_run(self, drive):
        async def body():
            baseline = set(asyncio.all_tasks())
            await run_load(replace(SMALL, channels=2, messages=2))
            await asyncio.sleep(0.05)
            return [t for t in asyncio.all_tasks() - baseline
                    if not t.done()]

        assert drive(body()) == []


class TestSendStampReservoir:
    """The bounded latency sampler (regression for the unbounded
    ``_send_ts`` deque: peak memory grew with offered load, and one
    lost message skewed every later sample by a position)."""

    def test_peak_memory_does_not_scale_with_offered_load(self):
        from repro.runtime.loadgen import SendStampReservoir

        res = SendStampReservoir(limit=64)
        # A 100x-overload backlog: vastly more sends than deliveries.
        for k in range(100_000):
            res.stamp(k, k)
        assert len(res) == 64
        assert res.peak == 64
        assert res.unsampled == 100_000 - 64

    def test_latency_samples_stay_index_matched_under_loss(self):
        from repro.runtime.loadgen import SendStampReservoir

        res = SendStampReservoir(limit=8)
        res.stamp(0, 100)
        res.stamp(1, 200)
        res.stamp(2, 300)
        # Message 1 goes missing for a while: 0 and 2 must resolve
        # against their *own* stamps, not positionally shifted ones.
        assert res.resolve(0, 150) == 50
        assert res.resolve(2, 360) == 60
        assert res.resolve(1, 999) == 799  # late delivery, still exact
        assert res.resolve(3, 1) is None   # unsampled -> no bogus sample

    def test_rejects_a_nonpositive_limit(self):
        from repro.runtime.loadgen import SendStampReservoir

        with pytest.raises(ValueError):
            SendStampReservoir(limit=0)

    def test_overload_run_reports_bounded_stamp_peak(self, drive):
        result = measure_load(replace(SMALL, overload=10.0, audit=True))
        assert result.completed
        peaks = result.peaks
        assert 0 < peaks["send_stamps"] <= peaks["send_stamp_limit"]
