"""Unit and end-to-end tests for the runtime event tracer."""

import asyncio
import cProfile
import io
import json

import pytest

from repro.arch.attribution import Feature
from repro.runtime.protocols import OrderedChannelReceiver, OrderedChannelSender
from repro.runtime.loadgen import measure_load, protocol_cell
from repro.runtime.reliability import BackoffPolicy
from repro.runtime.tracing import (
    DEFAULT_CAPACITY,
    HISTOGRAM_BUCKETS,
    NULL_TRACER,
    Counters,
    EventType,
    LatencyHistogram,
    TraceEvent,
    Tracer,
    export_chrome_trace,
    export_jsonl,
)

FAST = BackoffPolicy(initial=0.01, factor=1.5, ceiling=0.05, max_retries=8)


class TestTracer:
    def test_emit_records_events_in_order(self):
        tracer = Tracer(capacity=16)
        tracer.emit(EventType.SEND, endpoint="src", channel=1, seq=7,
                    kind="DATA", feature=Feature.BASE)
        tracer.emit(EventType.RECV, endpoint="dst", channel=1, seq=7,
                    kind="DATA")
        events = tracer.events()
        assert [e.etype for e in events] == [EventType.SEND, EventType.RECV]
        assert events[0].ts_ns <= events[1].ts_ns
        assert events[0].seq == 7
        assert events[0].feature is Feature.BASE
        assert len(tracer) == 2

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(capacity=8, enabled=False)
        tracer.emit(EventType.SEND, endpoint="src")
        assert tracer.events() == []
        assert tracer.recorded == 0

    def test_null_tracer_is_disabled_and_shared(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.emit(EventType.SEND, endpoint="src")
        assert NULL_TRACER.recorded == 0

    def test_empty_tracer_is_falsy_but_still_usable(self):
        """len()==0 makes a fresh tracer falsy — consumers must test
        `is not None`, never truthiness (regression guard)."""
        tracer = Tracer(capacity=8)
        assert not tracer  # empty ring
        assert tracer.enabled

    def test_enabled_tracer_needs_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0, enabled=True)

    def test_ring_wraps_keeping_newest(self):
        tracer = Tracer(capacity=4)
        for seq in range(10):
            tracer.emit(EventType.SEND, endpoint="src", seq=seq)
        events = tracer.events()
        assert len(events) == 4
        assert [e.seq for e in events] == [6, 7, 8, 9]
        assert tracer.recorded == 10
        assert tracer.overwritten == 6

    def test_clear_resets_ring(self):
        tracer = Tracer(capacity=4)
        tracer.emit(EventType.SEND, endpoint="src")
        tracer.clear()
        assert tracer.events() == []
        assert tracer.recorded == 0

    def test_default_capacity_is_sane(self):
        assert Tracer().recorded == 0
        assert DEFAULT_CAPACITY >= 1024


class TestCounters:
    def test_inc_and_get(self):
        counters = Counters()
        counters["x"] += 1
        assert counters["x"] == 1
        counters["x"] += 4
        assert counters["x"] == 5
        assert counters.get("x") == 5
        assert counters.get("missing") == 0

    def test_scoped_view_prefixes_into_the_root(self):
        root = Counters()
        rx = root.scoped("stream_rx")
        rx["acks_sent"] += 2
        nested = rx.scoped("rtx")
        nested["retransmissions"] += 1
        assert root.get("stream_rx.acks_sent") == 2
        assert root.get("stream_rx.rtx.retransmissions") == 1
        assert rx.to_dict() == {"acks_sent": 2, "rtx.retransmissions": 1}
        assert root.to_dict() == {
            "stream_rx.acks_sent": 2,
            "stream_rx.rtx.retransmissions": 1,
        }

    def test_each_scope_is_a_registry_of_its_own(self):
        root = Counters()
        first, second = root.scoped("stream_tx"), root.scoped("stream_tx")
        first["packets_released"] += 10
        second["packets_released"] += 3
        first.scoped("rtx")["retransmissions"] += 2
        second.scoped("rtx")["retransmissions"] += 1
        root["stream_tx.packets_released"] += 1
        assert first.get("packets_released") == 10
        assert second.get("packets_released") == 3
        assert second.to_dict() == {"packets_released": 3,
                                    "rtx.retransmissions": 1}
        assert root.get("stream_tx.packets_released") == 14
        assert root.get("stream_tx.rtx.retransmissions") == 3
        assert root.get("stream_tx.missing", -1) == -1
        assert root.to_dict() == {
            "stream_tx.packets_released": 14,
            "stream_tx.rtx.retransmissions": 3,
        }

    def test_bumps_after_the_first_make_no_call(self):
        """A bump is a dict subscript: once a name exists, bumping it on
        a root or on a nested scope adds no profiled call."""
        root = Counters()
        nested = root.scoped("stream_rx").scoped("rtx")
        root["frames_sent"] += 1
        nested["retransmissions"] += 1

        def bumps():
            for _ in range(1000):
                root["frames_sent"] += 1
                nested["retransmissions"] += 2

        profiler = cProfile.Profile()
        profiler.runcall(bumps)
        profiler.create_stats()
        calls = [key for key in profiler.stats
                 if key[2] != "bumps" and "disable" not in key[2]]
        assert calls == []
        assert root.get("frames_sent") == 1001
        assert root.get("stream_rx.rtx.retransmissions") == 2001


class TestLatencyHistogram:
    def test_records_exact_totals(self):
        hist = LatencyHistogram()
        for ns in (100, 200, 400, 800):
            hist.record(ns)
        assert hist.count == 4
        assert hist.total_ns == 1500
        assert hist.min_ns == 100
        assert hist.max_ns == 800

    def test_percentiles_bracket_the_data(self):
        hist = LatencyHistogram()
        for ns in range(1000, 2000, 10):
            hist.record(ns)
        assert 1000 <= hist.p50 <= 2000
        assert hist.p50 <= hist.p90 <= hist.p99 <= hist.max_ns
        assert hist.percentile(1.0) == hist.max_ns
        assert hist.percentile(0.0) >= hist.min_ns

    def test_zero_and_huge_values_clamp_to_the_bucket_range(self):
        hist = LatencyHistogram()
        hist.record(0)
        hist.record(1 << 50)  # beyond the last bucket boundary
        assert hist.count == 2
        assert hist.max_ns == 1 << 50
        assert sum(hist._counts) == 2
        assert len(hist._counts) == HISTOGRAM_BUCKETS

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1)

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.p50 == 0
        assert hist.to_dict()["count"] == 0

    def test_empty_percentiles_are_zero_at_every_quantile(self):
        hist = LatencyHistogram()
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert hist.percentile(q) == 0

    def test_single_sample_is_every_percentile(self):
        hist = LatencyHistogram()
        hist.record(777)
        assert hist.p50 == 777
        assert hist.p90 == 777
        assert hist.p99 == 777
        assert hist.min_ns == hist.max_ns == 777

    def test_overflow_bucket_collects_everything_past_the_top(self):
        # Bucket index is clamped at HISTOGRAM_BUCKETS - 1, so any value
        # with bit_length > HISTOGRAM_BUCKETS shares the last bucket.
        hist = LatencyHistogram()
        top = 1 << (HISTOGRAM_BUCKETS - 1)
        for ns in (top, top * 2, top * 1000):
            hist.record(ns)
        assert hist._counts[-1] == 3
        assert sum(hist._counts[:-1]) == 0
        # Interpolation caps at the overflow bucket's upper edge, so
        # percentiles stay bounded even when the data does not.
        assert hist.min_ns <= hist.p50 <= hist.max_ns
        assert hist.percentile(1.0) == 1 << HISTOGRAM_BUCKETS
        assert hist.percentile(1.0) <= hist.max_ns

    def test_percentile_rejects_out_of_range_quantiles(self):
        hist = LatencyHistogram()
        hist.record(10)
        with pytest.raises(ValueError):
            hist.percentile(-0.01)
        with pytest.raises(ValueError):
            hist.percentile(1.01)


class TestExporters:
    def _events(self):
        tracer = Tracer(capacity=8, label="finite/cm5")
        tracer.emit(EventType.SEND, endpoint="src", channel=2, seq=1,
                    aux=0, kind="DATA", feature=Feature.BASE)
        tracer.emit(EventType.RETRANSMIT, endpoint="src", channel=2, seq=1,
                    aux=0, attempt=1, kind="data",
                    feature=Feature.FAULT_TOLERANCE)
        tracer.emit(EventType.RECV, endpoint="dst", channel=2, seq=1,
                    aux=0, kind="DATA")
        return tracer.events()

    def test_jsonl_round_trips(self):
        buffer = io.StringIO()
        count = export_jsonl(self._events(), buffer)
        lines = buffer.getvalue().splitlines()
        assert count == len(lines) == 3
        first = json.loads(lines[0])
        assert first["event"] == "SEND"
        assert first["label"] == "finite/cm5"
        assert first["feature"] == "base"
        assert json.loads(lines[1])["attempt"] == 1

    def test_chrome_trace_structure(self):
        buffer = io.StringIO()
        spans = [{"name": "rtt ch2 seq 1+0", "track": "finite/cm5:src",
                  "start_ns": self._events()[0].ts_ns, "dur_ns": 5000,
                  "args": {"seq": 1}}]
        export_chrome_trace(self._events(), buffer, spans=spans)
        payload = json.loads(buffer.getvalue())
        events = payload["traceEvents"]
        phases = [e["ph"] for e in events]
        assert phases.count("i") == 3
        assert phases.count("X") == 1
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == {"finite/cm5:src", "finite/cm5:dst"}
        # Timestamps are relative microseconds: all non-negative.
        assert all(e["ts"] >= 0 for e in events if e["ph"] != "M")
        duration = next(e for e in events if e["ph"] == "X")
        assert duration["dur"] == pytest.approx(5.0)

    def test_chrome_trace_of_nothing_is_still_loadable(self):
        buffer = io.StringIO()
        export_chrome_trace([], buffer)
        payload = json.loads(buffer.getvalue())
        assert payload["traceEvents"]  # process_name metadata at least


class TestEndToEnd:
    def test_traced_single_packet_run_yields_lifecycle_events(self):
        tracer = Tracer()
        result = measure_load(protocol_cell(
            "single", 2, drop_rate=0.0, reorder_rate=0.0, backoff=FAST),
            tracer=tracer)
        assert result.completed
        etypes = {e.etype for e in tracer.events()}
        assert {EventType.SEND, EventType.RECV, EventType.DELIVER,
                EventType.ACK_TX, EventType.ACK_RX} <= etypes
        sends = [e for e in tracer.events() if e.etype is EventType.SEND]
        assert all(e.kind == "DATA" and e.label == "load/single/cm5/p2/x1"
                   for e in sends)

    def test_traced_lossy_run_emits_retransmit_and_timer_events(self):
        tracer = Tracer()
        result = measure_load(protocol_cell(
            "finite", 8, drop_rate=0.4, reorder_rate=0.0, seed=7,
            backoff=FAST), tracer=tracer)
        assert result.completed
        etypes = [e.etype for e in tracer.events()]
        assert EventType.RETRANSMIT in etypes
        assert EventType.TIMER_FIRE in etypes
        rtx = next(e for e in tracer.events()
                   if e.etype is EventType.RETRANSMIT)
        assert rtx.attempt >= 1
        assert rtx.feature is Feature.FAULT_TOLERANCE

    def test_traced_blackhole_run_emits_give_up(self):
        tracer = Tracer()
        result = measure_load(protocol_cell(
            "single", 1, drop_rate=1.0, reorder_rate=0.0, deadline=5.0,
            backoff=FAST), tracer=tracer)
        assert not result.completed
        assert "ProtocolFailure" in result.errors[0]
        give_ups = [e for e in tracer.events()
                    if e.etype is EventType.GIVE_UP]
        assert give_ups
        assert give_ups[0].feature is Feature.FAULT_TOLERANCE

    def test_traced_reordered_stream_emits_park_and_unpark(self):
        tracer = Tracer()
        # 1024 words / seed 7: enough container datagrams in flight
        # that the seeded reorder pattern delays one container past
        # its successor (frames inside one container never reorder).
        result = measure_load(protocol_cell(
            "indefinite", 64, drop_rate=0.0, reorder_rate=0.5, seed=7,
            backoff=FAST), tracer=tracer)
        assert result.completed
        etypes = [e.etype for e in tracer.events()]
        assert EventType.PARK in etypes
        assert EventType.UNPARK in etypes
        parks = [e.seq for e in tracer.events()
                 if e.etype is EventType.PARK]
        unparks = [e.seq for e in tracer.events()
                   if e.etype is EventType.UNPARK]
        assert set(parks) == set(unparks)

    def test_untraced_run_keeps_null_tracer(self):
        """A run without a tracer records into the shared disabled
        tracer, which stays disabled and empty."""
        assert measure_load(protocol_cell("single", 1, mode="cr")).completed
        assert not NULL_TRACER.enabled
        assert len(NULL_TRACER.events()) == 0

    def test_endpoint_counters_cover_protocol_scopes(self, drive, two_peers):
        """One endpoint registry dump names every component's tallies."""
        async def body():
            fabric, src, dst = await two_peers("cm5", reorder_rate=0.5, seed=5)
            try:
                arrival = asyncio.get_running_loop().create_future()
                seen = []

                def deliver(seq, payload):
                    seen.append(seq)
                    if len(seen) == 8:
                        arrival.set_result(None)

                receiver = OrderedChannelReceiver(dst, window=64,
                                                  deliver=deliver)
                sender = OrderedChannelSender(src, "dst", window=8,
                                              backoff=FAST)
                for i in range(8):
                    await sender.send([i])
                await sender.drain(timeout=10.0)
                await arrival
                await sender.close()
                receiver.close()
                return src.counters.to_dict(), dst.counters.to_dict()
            finally:
                await fabric.close()

        src_counts, dst_counts = drive(body())
        assert src_counts["frames_sent"] >= 8
        assert dst_counts["stream_rx.arrivals"] >= 8
        assert dst_counts["stream_rx.acks_sent"] >= 1
        assert "frames_received" in dst_counts
