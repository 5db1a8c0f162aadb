"""Unit + integration tests for cross-peer journey reconstruction."""

import io
import json

import pytest

from repro.analysis.journey import (
    STAGE_ORDER,
    export_journeys_jsonl,
    journey_flows,
    journey_spans,
    journey_stats,
    origin_id,
    reconstruct_journeys,
    render_journey_table,
    render_stage_summary,
)
from repro.runtime.runner import measure_live
from repro.runtime.tracing import (
    EventType,
    TraceEvent,
    Tracer,
    export_chrome_trace,
)


def ev(etype, endpoint, ts_ns, *, label="run", channel=1, seq=0, aux=-1,
       kind="", dur_ns=0, origin=-1, origin_ts_ns=-1):
    return TraceEvent(
        ts_ns=ts_ns, etype=etype, label=label, endpoint=endpoint,
        channel=channel, seq=seq, aux=aux, attempt=0, kind=kind,
        feature=None, dur_ns=dur_ns, origin=origin,
        origin_ts_ns=origin_ts_ns,
    )


def synthetic_chain(*, send=1_000, queue=100, flush=50, wire=400, decode=30,
                    park=0, deliver=80, seq=0, aux=-1, label="run"):
    """One complete src->dst DATA chain with exact stage durations."""
    flush_end = send + queue + flush
    arrival = flush_end + wire
    events = [
        ev(EventType.SEND, "src", send, label=label, seq=seq, aux=aux,
           kind="DATA"),
        ev(EventType.FLUSH, "src", flush_end, label=label, seq=seq, aux=aux,
           kind="DATA", dur_ns=flush),
        ev(EventType.RECV, "dst", arrival, label=label, seq=seq, aux=aux,
           kind="DATA", dur_ns=decode, origin=origin_id("src"),
           origin_ts_ns=send),
    ]
    if park:
        events.append(ev(EventType.PARK, "dst", arrival + decode,
                         label=label, seq=seq, aux=aux))
        events.append(ev(EventType.UNPARK, "dst", arrival + decode + park,
                         label=label, seq=seq, aux=aux))
    events.append(ev(EventType.DELIVER, "dst",
                     arrival + decode + park + deliver,
                     label=label, seq=seq, aux=aux))
    return events


class TestReconstruction:
    def test_stage_decomposition_is_exact(self):
        journeys = reconstruct_journeys(synthetic_chain(park=60))
        (j,) = journeys
        assert j.complete
        assert j.context_matched
        assert j.src == "src" and j.dst == "dst"
        assert j.stages == {"queue": 100, "flush": 50, "wire": 400,
                            "decode": 30, "park": 60, "deliver": 80}
        assert j.total_ns == 100 + 50 + 400 + 30 + 60 + 80
        assert j.stage_sum_ns == j.total_ns

    def test_unsorted_input_is_stitched_in_order(self):
        """First-wins matching follows timestamps, not input order: a
        late duplicate arrival and a second ack must not win."""
        events = synthetic_chain(park=60)  # delivers at 1720
        events += [
            ev(EventType.RECV, "dst", 9_000, seq=0, kind="DATA", dur_ns=1,
               origin=origin_id("src"), origin_ts_ns=1_000),
            ev(EventType.ACK_RX, "src", 2_000, seq=0, kind="ACK"),
            ev(EventType.ACK_RX, "src", 3_000, seq=0, kind="ACK"),
        ]
        (j,) = reconstruct_journeys(list(reversed(events)))
        assert j.complete and j.context_matched
        assert j.stages == {"queue": 100, "flush": 50, "wire": 400,
                            "decode": 30, "park": 60, "deliver": 80}
        assert j.ack_return_ns == 2_000 - 1_720

    def test_stage_sum_telescopes_to_end_to_end(self):
        events = synthetic_chain(queue=7, flush=3, wire=11, decode=5,
                                 park=13, deliver=2)
        (j,) = reconstruct_journeys(events)
        assert j.stage_sum_ns == j.total_ns

    def test_missing_send_yields_incomplete_unmatched_journey(self):
        events = [e for e in synthetic_chain()
                  if e.etype is not EventType.SEND]
        (j,) = reconstruct_journeys(events)
        assert not j.complete
        assert not j.context_matched
        assert j.dst == "dst"

    def test_foreign_context_does_not_match(self):
        """A RECV whose context names a different send (ring overwrote
        the real one) still yields a journey, flagged unmatched."""
        events = synthetic_chain()
        recv = [e for e in events if e.etype is EventType.RECV][0]
        idx = events.index(recv)
        events[idx] = ev(EventType.RECV, "dst", recv.ts_ns, seq=0,
                         kind="DATA", dur_ns=recv.dur_ns,
                         origin=recv.origin, origin_ts_ns=recv.origin_ts_ns - 1)
        (j,) = reconstruct_journeys(events)
        assert j.complete  # timeline is still whole...
        assert not j.context_matched  # ...but the anchor is not trusted

    def test_retransmit_counted(self):
        events = synthetic_chain()
        events.append(ev(EventType.RETRANSMIT, "src", 2_000, seq=0,
                         kind="data"))
        (j,) = reconstruct_journeys(events)
        assert j.retransmits == 1

    def test_control_plane_retransmits_stay_out(self):
        """Data retransmits (kind "" or "data") accumulate on the
        journey; alloc/dealloc ones are control-plane traffic."""
        events = synthetic_chain()
        for ts, kind in ((1_200, ""), (1_300, "alloc"), (1_400, "dealloc"),
                         (1_500, "data")):
            events.append(ev(EventType.RETRANSMIT, "src", ts, seq=0,
                             kind=kind))
        (j,) = reconstruct_journeys(events)
        assert j.retransmits == 2

    def test_give_up_sets_gave_up(self):
        events = [
            ev(EventType.SEND, "src", 1_000, seq=5, aux=0, kind="DATA"),
            ev(EventType.GIVE_UP, "src", 8_000, seq=5, aux=0, kind=""),
        ]
        (j,) = reconstruct_journeys(events)
        assert j.gave_up
        assert not j.complete
        assert j.to_dict()["gave_up"] is True
        (healthy,) = reconstruct_journeys(synthetic_chain())
        assert not healthy.gave_up

    def test_bulk_offsets_are_distinct_journeys(self):
        events = [ev(EventType.SEND, "src", 1_000 + offset, seq=7,
                     aux=offset, kind="DATA") for offset in (0, 16)]
        keys = {j.key for j in reconstruct_journeys(events)}
        assert keys == {("run", 1, 7, 0), ("run", 1, 7, 16)}

    def test_duplicate_recv_keeps_first(self):
        events = synthetic_chain()
        events.append(ev(EventType.RECV, "dst", 99_999, seq=0, kind="DATA",
                         dur_ns=1, origin=origin_id("src"),
                         origin_ts_ns=1_000))
        (j,) = reconstruct_journeys(events)
        assert j.stages["wire"] == 400  # first arrival wins

    def test_ack_return_leg(self):
        events = synthetic_chain()  # delivers at 1660
        events.append(ev(EventType.ACK_RX, "src", 2_160, seq=0, kind="ACK"))
        (j,) = reconstruct_journeys(events)
        assert j.ack_return_ns == 500

    def test_cum_ack_covers_lower_seqs_only(self):
        events = synthetic_chain(seq=3)
        events.append(ev(EventType.ACK_RX, "src", 5_000, seq=3,
                         kind="CUM_ACK"))  # == seq: not past it
        events.append(ev(EventType.ACK_RX, "src", 6_000, seq=4,
                         kind="CUM_ACK"))
        (j,) = reconstruct_journeys(events)
        assert j.ack_return_ns == 6_000 - j.deliver_ns

    def test_final_ack_covers_offsets_below_mark(self):
        events = []
        for index, offset in enumerate((0, 16, 32)):
            events += synthetic_chain(send=1_000 * (index + 1), seq=4,
                                      aux=offset)
        events.append(ev(EventType.ACK_RX, "src", 9_000, seq=4, aux=32,
                         kind="FINAL_ACK"))
        by_offset = {j.offset: j for j in reconstruct_journeys(events)}
        assert by_offset[0].ack_return_ns == 9_000 - by_offset[0].deliver_ns
        assert by_offset[16].ack_return_ns == 9_000 - by_offset[16].deliver_ns
        assert by_offset[32].ack_return_ns is None  # at the mark, not below

    def test_ack_before_deliver_is_never_matched(self):
        events = synthetic_chain()  # delivers at 1660
        events.append(ev(EventType.ACK_RX, "src", 1_500, seq=0, kind="ACK"))
        (j,) = reconstruct_journeys(events)
        assert j.ack_return_ns is None

    def test_ack_on_another_channel_is_ignored(self):
        events = synthetic_chain()  # channel 1, delivers at 1660
        events.append(ev(EventType.ACK_RX, "src", 2_000, channel=2, seq=0,
                         kind="ACK"))
        events.append(ev(EventType.ACK_RX, "src", 2_500, seq=0, kind="ACK"))
        (j,) = reconstruct_journeys(events)
        assert j.ack_return_ns == 2_500 - j.deliver_ns

    def test_journeys_sorted_by_send_time(self):
        events = (synthetic_chain(send=5_000, seq=1)
                  + synthetic_chain(send=1_000, seq=0))
        headless = [e for e in synthetic_chain(send=500, seq=2)
                    if e.etype is not EventType.SEND]
        seqs = [j.seq for j in reconstruct_journeys(events + headless)]
        assert seqs == [0, 1, 2]  # a journey with no SEND sorts last


class TestStatsAndRendering:
    def test_stats_coverage_and_stage_histograms(self):
        events = (synthetic_chain(send=1_000, seq=0)
                  + synthetic_chain(send=10_000, seq=1, park=40))
        stats = journey_stats(reconstruct_journeys(events))
        assert stats.delivered == 2
        assert stats.complete == 2
        assert stats.coverage == 1.0
        assert stats.worst_stage_error == 0.0
        assert stats.stage_hists["queue"].count == 2
        assert set(stats.stage_hists) == set(STAGE_ORDER)

    def test_coverage_drops_with_incomplete_journeys(self):
        complete = synthetic_chain(seq=0)
        headless = [e for e in synthetic_chain(send=9_000, seq=1)
                    if e.etype is not EventType.SEND]
        stats = journey_stats(reconstruct_journeys(complete + headless))
        assert stats.delivered == 2
        assert stats.complete == 1
        assert stats.coverage == 0.5

    def test_renderings_mention_the_key_facts(self):
        journeys = reconstruct_journeys(synthetic_chain(park=60))
        table = render_journey_table(journeys)
        summary = render_stage_summary(journey_stats(journeys))
        assert "src->dst" in table
        assert "coverage" in summary
        assert "end-to-end" in summary

    def test_journey_table_truncates(self):
        events = [e for seq in range(5)
                  for e in synthetic_chain(send=1_000 * (seq + 1), seq=seq)]
        table = render_journey_table(reconstruct_journeys(events), limit=2)
        assert "(3 more journeys not shown)" in table

    def test_flows_and_jsonl_export(self):
        journeys = reconstruct_journeys(synthetic_chain())
        (flow,) = journey_flows(journeys)
        assert flow["from_track"] == "run:src"
        assert flow["to_track"] == "run:dst"
        assert flow["to_ts_ns"] > flow["from_ts_ns"]
        buf = io.StringIO()
        assert export_journeys_jsonl(journeys, buf) == 1
        record = json.loads(buf.getvalue())
        assert record["complete"] is True
        assert set(record["stages"]) <= set(STAGE_ORDER)

    def test_stage_spans_lie_end_to_end(self):
        (j,) = reconstruct_journeys(synthetic_chain(park=60))
        spans = {span["name"].split()[0]: span
                 for span in journey_spans([j])}
        assert set(spans) == {"queue", "flush", "decode", "park", "deliver"}
        for stage in ("queue", "flush"):
            assert spans[stage]["track"] == "run:src"
        for stage in ("decode", "park", "deliver"):
            assert spans[stage]["track"] == "run:dst"
        assert spans["queue"]["start_ns"] == j.send_ns
        assert (spans["flush"]["start_ns"]
                == spans["queue"]["start_ns"] + spans["queue"]["dur_ns"])
        for earlier, later in (("decode", "park"), ("park", "deliver")):
            assert (spans[earlier]["start_ns"] + spans[earlier]["dur_ns"]
                    == spans[later]["start_ns"])
        deliver = spans["deliver"]
        assert deliver["start_ns"] + deliver["dur_ns"] == j.deliver_ns
        assert {name: span["dur_ns"] for name, span in spans.items()} == {
            name: j.stages[name] for name in spans}

    def test_spans_skip_empty_and_missing_stages(self):
        (in_order,) = reconstruct_journeys(synthetic_chain())
        names = [span["name"].split()[0]
                 for span in journey_spans([in_order])]
        assert "park" not in names  # a zero dwell gets no span
        (sent_only,) = reconstruct_journeys(synthetic_chain()[:1])
        assert journey_spans([sent_only]) == []

    def test_chrome_flow_finishes_land_in_spans(self):
        """Each flow finish binds to its enclosing slice (``bp: e``);
        the deliver span on the receiver's track must supply it."""
        events = (synthetic_chain(send=1_000, seq=0)
                  + synthetic_chain(send=3_000, seq=1, park=90)
                  + synthetic_chain(send=5_000, seq=2, label="other"))
        journeys = reconstruct_journeys(events)
        buf = io.StringIO()
        export_chrome_trace(events, buf, spans=journey_spans(journeys),
                            flows=journey_flows(journeys))
        records = json.loads(buf.getvalue())["traceEvents"]
        assert flow_finishes_outside_spans(records) == []
        assert sum(1 for r in records if r["ph"] == "f") == 3


def flow_finishes_outside_spans(records):
    """Flow finish records no ``"X"`` span on the same track encloses."""
    spans = [r for r in records if r["ph"] == "X"]
    eps = 1e-6  # microsecond floats: allow the rounding of start + dur
    return [
        f for f in records if f["ph"] == "f"
        and not any(s["tid"] == f["tid"]
                    and s["ts"] - eps <= f["ts"] <= s["ts"] + s["dur"] + eps
                    for s in spans)
    ]


class TestLiveIntegration:
    @pytest.mark.parametrize("mode", ["cm5", "cr"])
    def test_live_loopback_reconstructs_with_tight_stage_sums(self, mode):
        """The tentpole acceptance, in miniature: a traced live run in
        each mode must reconstruct >= 95% of delivered messages into
        complete journeys whose stage sum matches end-to-end within
        10% (exactly, on the shared loopback clock)."""
        tracer = Tracer()
        kwargs = (dict(drop_rate=0.05, reorder_rate=0.25, seed=7)
                  if mode == "cm5" else {})
        result = measure_live(
            "indefinite", mode=mode, transport="loopback",
            message_words=256, packet_words=16, deadline=30.0,
            tracer=tracer, **kwargs,
        )
        assert result.completed
        journeys = reconstruct_journeys(tracer.events())
        stats = journey_stats(journeys)
        assert stats.delivered >= 16
        assert stats.coverage >= 0.95
        assert stats.worst_stage_error <= 0.10
        matched = [j for j in journeys if j.complete]
        assert all(j.context_matched for j in matched)
        assert all(j.stages[name] >= 0 for j in matched
                   for name in j.stages)
