"""Unit tests for wall-clock feature attribution."""

import cProfile
import time

import pytest

from repro.arch.attribution import Feature
from repro.runtime import spans
from repro.runtime.spans import EXACT_ACTIVATIONS, SAMPLE_EVERY, TimeAttribution


#: Calls per span: a timed span reads the clock in its ``__enter__`` and
#: its ``__exit__``, an untimed one does neither.
SPAN_CALL_BUDGETS = {"timed": 4, "untimed": 2}
#: Past the exact prefix, the timed activations' clock reads spread over
#: every span.
SAMPLED_SLACK = 0.05


def spin(ns: int) -> None:
    """Busy-wait for roughly ``ns`` nanoseconds."""
    deadline = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < deadline:
        pass


class FakeClock:
    """A clock the test advances by hand; counts its reads."""

    def __init__(self):
        self.now = 0
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans, "_now", fake)
    return fake


def run_exact_prefix(attr):
    for _ in range(EXACT_ACTIVATIONS):
        with attr.spans[Feature.USER]:
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
    def test_snapshot_is_detached(self, clock):
        attr = TimeAttribution()
        with attr.spans[Feature.BASE]:
            clock.now += 10
        snap = attr.snapshot()
        with attr.spans[Feature.BASE]:
            clock.now += 10
        assert snap[Feature.BASE] == 10
        assert attr.ns(Feature.BASE) == 20

    def test_reset(self, clock):
        attr = TimeAttribution()
        run_exact_prefix(attr)
        attr.reset()
        assert attr.total_ns == 0
        assert attr.span_count(Feature.USER) == 0
        # The exact prefix restarts: every activation is timed again.
        reads = clock.reads
        for _ in range(EXACT_ACTIVATIONS):
            with attr.spans[Feature.BASE]:
                clock.now += 3
        assert attr.ns(Feature.BASE) == 3 * EXACT_ACTIVATIONS
        assert clock.reads - reads == 2 * EXACT_ACTIVATIONS

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


class TestSampling:
    ACTIVATIONS = 64 * 1024

    @pytest.mark.parametrize("period", [2, 64])
    def test_sampled_totals_estimate_the_exact_ones(self, clock, period):
        """Past the exact prefix each feature's total is an estimate
        within 5% of the exact one, on periodic traffic that a fixed
        stride would alias with; counts and the stack stay exact."""
        attr = TimeAttribution()
        run_exact_prefix(attr)
        outer, inner = Feature.IN_ORDER, Feature.FAULT_TOLERANCE
        exact = {outer: 0, inner: 0}
        timed = 0
        for i in range(self.ACTIVATIONS):
            # The two features' costs swap halfway through each period.
            low, high = (10, 30) if i % period < period // 2 else (30, 10)
            reads = clock.reads
            with attr.spans[outer]:
                assert attr.current is outer
                clock.now += low
                with attr.spans[inner]:
                    assert attr.current is inner
                    clock.now += high
            assert attr.current is None
            exact[outer] += low
            exact[inner] += high
            # An activation reads the clock at all four boundaries or
            # at none.
            assert clock.reads - reads in (0, 4)
            timed += clock.reads > reads
        for feature, ns in exact.items():
            assert attr.ns(feature) == pytest.approx(ns, rel=0.05)
            assert attr.span_count(feature) == self.ACTIVATIONS
        assert attr.span_count(Feature.USER) == EXACT_ACTIVATIONS
        assert timed == pytest.approx(self.ACTIVATIONS / SAMPLE_EVERY, rel=0.05)


def profiled_nested_pairs(attr):
    """Calls made by 500 activations of two nested spans, keyed by
    ``cProfile`` key."""
    table, outer, inner = attr.spans, Feature.BASE, Feature.IN_ORDER

    def nested_pairs():
        for _ in range(500):
            with table[outer]:
                with table[inner]:
                    pass

    before = attr.span_count(outer), attr.span_count(inner)
    profiler = cProfile.Profile()
    profiler.runcall(nested_pairs)
    profiler.create_stats()
    assert attr.span_count(outer) - before[0] == 500
    assert attr.span_count(inner) - before[1] == 500
    return {
        key: entry[1] for key, entry in profiler.stats.items()
        if key[2] != "nested_pairs" and "disable" not in key[2]
    }


class TestSpanCost:
    def test_span_call_budget(self):
        """Inside the exact prefix a span costs ``__enter__``,
        ``__exit__`` and two clock reads: the feature lookup and the
        stack make no call, and nothing calls into ``enum``."""
        calls = profiled_nested_pairs(TimeAttribution())
        assert sum(calls.values()) <= SPAN_CALL_BUDGETS["timed"] * 1000
        assert not [key for key in calls if key[0].endswith("enum.py")]
        assert not [key for key in calls
                     if "append" in key[2] or "pop" in key[2]]

    def test_untimed_span_call_budget(self):
        """Past the exact prefix an untimed span costs its
        ``__enter__`` and ``__exit__`` only; the one activation in
        ``SAMPLE_EVERY`` that is timed adds its clock reads, and the
        gap draw makes no call."""
        attr = TimeAttribution()
        run_exact_prefix(attr)
        calls = profiled_nested_pairs(attr)
        assert sum(calls.values()) <= (
            SPAN_CALL_BUDGETS["untimed"] + SAMPLED_SLACK) * 1000

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
