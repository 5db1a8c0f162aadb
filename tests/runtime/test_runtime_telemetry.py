"""Unit tests for the timeline derived from trace events.

Every test builds its events by hand, so the rates are exact: no clock,
no event loop.
"""

import io
import json

from repro.analysis.timeline import BIN_NS, build_timeline
from repro.runtime.tracing import EventType, TraceEvent, Tracer

BASE_NS = 1_000_000
PER_SECOND = 1e9 / BIN_NS


def event(etype, at_ns=0, endpoint="p0", label="load/cm5", kind=""):
    return TraceEvent(ts_ns=BASE_NS + at_ns, etype=etype, label=label,
                      endpoint=endpoint, channel=16, seq=0, aux=-1,
                      attempt=0, kind=kind, feature=None)


def sends_and_flushes(endpoint, sent, flushed, at_ns=0, label="load/cm5"):
    return ([event(EventType.SEND, at_ns, endpoint, label)] * sent
            + [event(EventType.FLUSH, at_ns, endpoint, label)] * flushed)


class TestSampling:
    def test_counter_sampled_as_rate(self):
        events = ([event(EventType.SEND)] * 5
                  + [event(EventType.ACK_TX)] * 2
                  + [event(EventType.CREDIT_TX)]
                  + [event(EventType.RECV, 1)] * 3
                  + [event(EventType.ACK_RX, 2)]
                  + [event(EventType.CREDIT_RX, 3)]
                  + [event(EventType.DELIVER, 4)])
        (_ts, values), = build_timeline(events).samples
        assert values["p0/tx"] == 8 * PER_SECOND
        assert values["p0/rx"] == 5 * PER_SECOND

    def test_gauge_sampled_as_read(self):
        """``pending`` is a level (enqueued minus flushed at the end of
        the bin), never divided by the bin width."""
        events = (sends_and_flushes("p0", sent=3, flushed=1)
                  + sends_and_flushes("p0", sent=0, flushed=2,
                                      at_ns=BIN_NS))
        first, second = build_timeline(events).samples
        assert first[1]["p0/pending"] == 2.0
        assert second[1]["p0/pending"] == 0.0

    def test_retransmission_is_queued_until_its_flush(self):
        """A retransmission joins the flush queue and gets a FLUSH of
        its own, so it counts as queued (not as a first send) and
        ``pending`` comes back to zero, not below."""
        events = (sends_and_flushes("p0", sent=1, flushed=1)
                  + [event(EventType.RETRANSMIT, BIN_NS),
                     event(EventType.FLUSH, 2 * BIN_NS)])
        samples = build_timeline(events).samples
        assert [values["p0/pending"] for _ts, values in samples] == [
            0.0, 1.0, 0.0]
        assert [values["p0/tx"] for _ts, values in samples] == [
            PER_SECOND, 0.0, 0.0]

    def test_empty_bins_between_events_read_zero(self):
        events = [event(EventType.SEND), event(EventType.FLUSH),
                  event(EventType.SEND, 3 * BIN_NS)]
        samples = build_timeline(events).samples
        assert [ts - BASE_NS for ts, _values in samples] == [
            0, BIN_NS, 2 * BIN_NS, 3 * BIN_NS]
        assert [values["p0/tx"] for _ts, values in samples] == [
            PER_SECOND, 0.0, 0.0, PER_SECOND]

    def test_new_run_label_resets_pending(self):
        """Sweeps reuse peer names across cells: a frame a crashed peer
        never flushed must not read as pending in the next cell."""
        events = (sends_and_flushes("p0", sent=4, flushed=1, label="a")
                  + sends_and_flushes("p0", sent=1, flushed=0,
                                      at_ns=BIN_NS, label="b"))
        first, second = build_timeline(events).samples
        assert first[1]["p0/pending"] == 3.0
        assert second[1]["p0/pending"] == 1.0

    def test_endpoint_events_make_standard_series(self):
        events = (sends_and_flushes("p7", sent=2, flushed=2)
                  + [event(EventType.RECV, endpoint="p3"),
                     event(EventType.MARK, endpoint="chaos", kind="heal all"),
                     event(EventType.PEER_ALIVE, endpoint="p9", kind="p7")])
        (_ts, values), = build_timeline(events).samples
        assert set(values) == {"p3/tx", "p3/rx", "p3/pending",
                               "p7/tx", "p7/rx", "p7/pending"}

    def test_ring_wraps_and_counts_dropped(self):
        tracer = Tracer(capacity=3, label="load/cm5")
        for _ in range(5):
            tracer.emit(EventType.SEND, endpoint="p0")
        timeline = build_timeline(tracer.events(), tracer.overwritten)
        assert timeline.overwritten == 2
        assert sum(values["p0/tx"] for _ts, values in timeline.samples) \
            == 3 * PER_SECOND


class TestMarksAndSeries:
    def test_annotate_stamps_now(self):
        """A MARK keeps the stamp the tracer gave it when emitted."""
        tracer = Tracer(label="load/cm5")
        tracer.emit(EventType.MARK, endpoint="chaos", kind="partition start")
        (mark,) = tracer.events()
        assert build_timeline([mark]).marks[-1] == (mark.ts_ns,
                                                    "partition start")

    def test_label_change_marks_each_run_start(self):
        events = [event(EventType.SEND, 0, label="a"),
                  event(EventType.SEND, 5, label="a"),
                  event(EventType.SEND, 9, label="b"),
                  event(EventType.SEND, 12, label="")]
        assert build_timeline(events).marks == [
            (BASE_NS, "a start"), (BASE_NS + 9, "b start"),
            (BASE_NS + 12, "run start")]

    def test_aggregated_series_sums_by_suffix(self):
        events = (sends_and_flushes("p0", sent=2, flushed=0)
                  + sends_and_flushes("p1", sent=3, flushed=0))
        agg = build_timeline(events).aggregated_series()
        assert agg["pending"] == [(0.0, 5.0)]
        assert agg["tx"] == [(0.0, 5 * PER_SECOND)]
        assert agg["rx"] == [(0.0, 0.0)]

    def test_series_points_are_seconds_since_start(self):
        events = [event(EventType.SEND), event(EventType.SEND, 50 * BIN_NS)]
        points = build_timeline(events).aggregated_series()["tx"]
        assert points[0][0] == 0.0
        assert points[-1][0] == 50 * BIN_NS / 1e9
        assert len(points) == 51


class TestExports:
    def _loaded(self, timeline):
        buf = io.StringIO()
        count = timeline.export_jsonl(buf)
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert count == len(records)
        return records

    def test_jsonl_merges_samples_and_marks_in_time_order(self):
        events = [event(EventType.SEND),
                  event(EventType.MARK, BIN_NS + 5, kind="fault injected"),
                  event(EventType.SEND, 2 * BIN_NS)]
        records = self._loaded(build_timeline(events))
        assert [("series" in r, "mark" in r) for r in records] == [
            (False, True), (True, False), (True, False), (False, True),
            (True, False)]
        assert [r["ts_ns"] for r in records] == sorted(
            r["ts_ns"] for r in records)
        assert records[0]["mark"] == "load/cm5 start"
        assert records[3]["mark"] == "fault injected"

    def test_counter_tracks_shape(self):
        events = (sends_and_flushes("p0", sent=4, flushed=0)
                  + [event(EventType.RECV, BIN_NS)])
        tracks = build_timeline(events).counter_tracks()
        assert [track["name"] for track in tracks] == [
            "p0/pending", "p0/rx", "p0/tx"]
        pending = tracks[0]
        assert pending["points"] == [(BASE_NS, 4.0),
                                     (BASE_NS + BIN_NS, 4.0)]

    def test_render_timeline_includes_marks_and_wrap_warning(self):
        events = [event(EventType.SEND, i * BIN_NS) for i in range(4)]
        events.append(event(EventType.MARK, 3 * BIN_NS, kind="heal all"))
        text = build_timeline(events, overwritten=2).render()
        assert "heal all" in text
        assert "load/cm5 start" in text
        assert "2 events overwritten" in text

    def test_render_timeline_empty(self):
        assert "no samples" in build_timeline([]).render()
