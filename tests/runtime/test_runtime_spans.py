"""Unit tests for wall-clock feature attribution."""

import cProfile
import time

import pytest

from repro.arch.attribution import Feature
from repro.runtime import spans
from repro.runtime.spans import NullTimeAttribution, TimeAttribution


def spin(ns: int) -> None:
    """Busy-wait for roughly ``ns`` nanoseconds."""
    deadline = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < deadline:
        pass


class TestSpans:
    def test_span_charges_its_feature(self):
        attr = TimeAttribution()
        with attr.spans[Feature.IN_ORDER]:
            spin(200_000)
        assert attr.ns(Feature.IN_ORDER) >= 200_000
        assert attr.ns(Feature.BASE) == 0
        assert attr.span_count(Feature.IN_ORDER) == 1

    def test_nested_span_is_exclusive(self):
        attr = TimeAttribution()
        with attr.spans[Feature.BASE]:
            spin(200_000)
            with attr.spans[Feature.FAULT_TOLERANCE]:
                spin(200_000)
            spin(200_000)
        base = attr.ns(Feature.BASE)
        inner = attr.ns(Feature.FAULT_TOLERANCE)
        assert base >= 400_000
        assert inner >= 200_000
        # No double counting: the parent was paused while the child ran.
        assert attr.total_ns == base + inner

    def test_time_outside_spans_is_uncharged(self):
        attr = TimeAttribution()
        with attr.spans[Feature.BASE]:
            pass
        before = attr.total_ns
        spin(500_000)
        assert attr.total_ns == before

    def test_non_feature_rejected(self):
        attr = TimeAttribution()
        with pytest.raises(TypeError):
            attr.spans["base"]

    def test_exception_safe(self):
        attr = TimeAttribution()
        with pytest.raises(ValueError):
            with attr.spans[Feature.BASE]:
                raise ValueError("boom")
        # The stack unwound; a new span still works.
        with attr.spans[Feature.IN_ORDER]:
            pass
        assert attr.span_count(Feature.IN_ORDER) == 1


class TestAccounting:
    def test_overhead_excludes_base_and_user(self):
        attr = TimeAttribution()
        attr.charge_ns(Feature.BASE, 600)
        attr.charge_ns(Feature.IN_ORDER, 250)
        attr.charge_ns(Feature.FAULT_TOLERANCE, 150)
        attr.charge_ns(Feature.USER, 1000)
        assert attr.total_ns == 1000
        assert attr.overhead_ns == 400
        assert attr.overhead_fraction == pytest.approx(0.4)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            TimeAttribution().charge_ns(Feature.BASE, -1)

    def test_merge_folds_totals_and_counts(self):
        first, second = TimeAttribution(), TimeAttribution()
        first.charge_ns(Feature.BASE, 100)
        with second.spans[Feature.BASE]:
            pass
        second.charge_ns(Feature.BASE, 50)
        first.merge(second)
        assert first.ns(Feature.BASE) >= 150
        assert first.span_count(Feature.BASE) == 1

    def test_snapshot_is_detached(self):
        attr = TimeAttribution()
        attr.charge_ns(Feature.BASE, 10)
        snap = attr.snapshot()
        attr.charge_ns(Feature.BASE, 10)
        assert snap[Feature.BASE] == 10

    def test_reset(self):
        attr = TimeAttribution()
        attr.charge_ns(Feature.BASE, 10)
        attr.reset()
        assert attr.total_ns == 0

    def test_reset_inside_span_names_the_leaked_feature(self):
        """reset() with live spans must fail loudly, naming what leaked
        (innermost last) — the drain()-style assertion."""
        attr = TimeAttribution()
        with pytest.raises(RuntimeError) as exc:
            with attr.spans[Feature.BASE]:
                with attr.spans[Feature.FAULT_TOLERANCE]:
                    attr.reset()
        message = str(exc.value)
        assert "base -> fault_tolerance" in message
        # The failed reset must not have corrupted the stack: once the
        # spans unwind normally, reset succeeds.
        attr.reset()
        assert attr.total_ns == 0

    def test_crashed_coroutine_unwinds_spans(self):
        """A protocol coroutine that raises inside a span must unwind
        via __exit__ — afterwards the stack is empty and reset() works."""
        import asyncio

        attr = TimeAttribution()

        async def crashing_protocol():
            with attr.spans[Feature.IN_ORDER]:
                with attr.spans[Feature.FAULT_TOLERANCE]:
                    raise OSError("transport blew up mid-span")

        with pytest.raises(OSError):
            asyncio.run(crashing_protocol())
        assert attr.current is None
        assert attr.span_count(Feature.FAULT_TOLERANCE) == 1
        attr.reset()  # would raise if the crash leaked a span
        assert attr.total_ns == 0


class TestSpanCost:
    def test_span_call_budget(self):
        """A span costs ``__enter__``, ``__exit__`` and two clock reads:
        the feature lookup and the stack make no call, and nothing
        calls into ``enum``."""
        attr = TimeAttribution()
        table, outer, inner = attr.spans, Feature.BASE, Feature.IN_ORDER

        def nested_pairs():
            for _ in range(500):
                with table[outer]:
                    with table[inner]:
                        pass

        profiler = cProfile.Profile()
        profiler.runcall(nested_pairs)
        profiler.create_stats()
        calls = {
            key: entry[1] for key, entry in profiler.stats.items()
            if key[2] != "nested_pairs" and "disable" not in key[2]
        }
        assert attr.span_count(outer) == attr.span_count(inner) == 500
        assert sum(calls.values()) <= 4 * 1000
        assert not [key for key in calls if key[0].endswith("enum.py")]
        assert not [key for key in calls
                     if "append" in key[2] or "pop" in key[2]]

    def test_null_spans_map_every_feature_to_the_shared_no_op(self):
        attr = NullTimeAttribution()
        for feature in Feature:
            assert attr.spans[feature] is spans._NULL_SPAN
            with attr.spans[feature]:
                pass
        assert attr.total_ns == 0
        assert attr.span_count(Feature.BASE) == 0
        with pytest.raises(TypeError):
            attr.spans["base"]

    def test_same_span_nested_in_itself_is_exclusive(self, monkeypatch):
        ticks = iter([0, 10, 30, 60])
        monkeypatch.setattr(spans, "_now", lambda: next(ticks))
        attr = TimeAttribution()
        with attr.spans[Feature.BASE] as outer:
            with attr.spans[Feature.BASE] as inner:
                assert inner is outer
        assert attr.span_count(Feature.BASE) == 2
        # 10 before the inner span, 20 inside it, 30 after: each
        # nanosecond once, so the total is the outer span's duration.
        assert attr.ns(Feature.BASE) == 60
        assert attr.current is None
