"""Wall-clock attribution: the paper's feature buckets, measured in time.

The simulator attributes *instruction counts* to the four messaging
features via :class:`repro.arch.attribution.AttributionStack`.  The live
runtime attributes *elapsed nanoseconds* the same way: protocol code
wraps each stretch of feature work in ``attribution.span(feature)`` and a
``perf_counter_ns`` delta lands in that feature's bucket.

Semantics mirror the instruction-count stack exactly:

* spans nest, and the *innermost* span receives the charge — a parent
  span is paused while a child runs, so no nanosecond is counted twice;
* code that runs outside any span (event-loop idle time, transport
  latency, user handlers not wrapped) is charged to nothing — the
  breakdown is CPU time *spent by the messaging layer*, the quantity the
  paper's instruction counts approximate.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.arch.attribution import Feature, FEATURE_ORDER, OVERHEAD_FEATURES

#: Module-level binding: one global load instead of two attribute
#: lookups on every span boundary.
_now = time.perf_counter_ns


class TimeAttribution:
    """Per-feature nanosecond accumulator with a re-entrant span stack.

    Each feature's bucket lives on the :class:`_Span` that :meth:`span`
    hands out, so a span costs two clock reads, a push and a pop.
    """

    def __init__(self) -> None:
        self._stack: List[_Span] = []
        self._mark: int = 0
        # One reusable span per feature.  A span keeps no per-entry state
        # (the stack lives here), so handing out the same object, even
        # nested inside itself, is safe and the hot path allocates nothing.
        self._spans: Dict[Feature, _Span] = {
            feature: _Span(self, feature) for feature in Feature
        }

    def span(self, feature: Feature) -> "_Span":
        """Context manager charging its (exclusive) duration to ``feature``."""
        try:
            return self._spans[feature]
        except (KeyError, TypeError):
            raise TypeError(f"expected a Feature, got {feature!r}") from None

    @property
    def current(self) -> Optional[Feature]:
        """The feature charges currently land in (``None`` outside spans)."""
        return self._stack[-1].feature if self._stack else None

    def charge_ns(self, feature: Feature, ns: int) -> None:
        """Manually add ``ns`` to a bucket (merging external measurements)."""
        if ns < 0:
            raise ValueError("cannot charge negative time")
        self._spans[feature].ns += ns

    # -- results ------------------------------------------------------------------

    def ns(self, feature: Feature) -> int:
        return self._spans[feature].ns

    def span_count(self, feature: Feature) -> int:
        return self._spans[feature].count

    def snapshot(self) -> Dict[Feature, int]:
        """A copy of the per-feature totals (safe to keep after more runs)."""
        return {feature: span.ns for feature, span in self._spans.items()}

    @property
    def total_ns(self) -> int:
        return sum(self._spans[feature].ns for feature in FEATURE_ORDER)

    @property
    def overhead_ns(self) -> int:
        return sum(self._spans[feature].ns for feature in OVERHEAD_FEATURES)

    @property
    def overhead_fraction(self) -> float:
        total = self.total_ns
        return self.overhead_ns / total if total else 0.0

    def merge(self, other: "TimeAttribution") -> None:
        """Fold another accumulator's totals into this one."""
        for feature, theirs in other._spans.items():
            ours = self._spans[feature]
            ours.ns += theirs.ns
            ours.count += theirs.count

    def reset(self) -> None:
        if self._stack:
            # Name the leaked feature(s), innermost last, so the error
            # pinpoints which span failed to unwind (cf. a queue's
            # drain() assertion naming what was left behind).
            leaked = " -> ".join(span.feature.value for span in self._stack)
            raise RuntimeError(
                f"cannot reset while spans are active: leaked [{leaked}] — "
                "a span's __exit__ never ran (or reset raced a live run)"
            )
        for span in self._spans.values():
            span.ns = span.count = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{feature.value}={self.ns(feature) / 1e3:.1f}us"
            for feature in FEATURE_ORDER
            if self.ns(feature)
        )
        return f"TimeAttribution({parts or 'empty'})"


class _Span:
    """One feature's bucket, and the context manager that fills it.

    ``__enter__`` banks the running parent's slice and pushes this span;
    ``__exit__`` pops it and banks its own slice.  Either way the shared
    mark moves to now, so the span on top of the stack is the only one
    whose clock runs.
    """

    __slots__ = ("_attr", "feature", "ns", "count")

    def __init__(self, attr: TimeAttribution, feature: Feature) -> None:
        self._attr = attr
        self.feature = feature
        self.ns = 0
        self.count = 0

    def __enter__(self) -> "_Span":
        now = _now()
        attr = self._attr
        stack = attr._stack
        if stack:
            # Pause the parent: bank what it has accrued so far.
            stack[-1].ns += now - attr._mark
        stack.append(self)
        self.count += 1
        attr._mark = now
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        now = _now()
        attr = self._attr
        if attr._stack.pop() is not self:  # pragma: no cover - defensive
            raise RuntimeError(f"span stack corrupted at {self.feature}")
        self.ns += now - attr._mark
        # Resume the parent's clock (if any).
        attr._mark = now


class _NullSpan:
    """A shared no-op context manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTimeAttribution(TimeAttribution):
    """Attribution compiled down to nothing.

    ``span()`` hands back one shared no-op context manager and manual
    charges are dropped, so a run that only wants raw throughput (or a
    microbenchmark isolating the cost of attribution itself) pays two
    empty C-level calls per span instead of two clock reads plus
    bucket arithmetic.  All query surfaces stay valid and report zero.
    """

    def span(self, feature: Feature) -> "_NullSpan":  # type: ignore[override]
        return _NULL_SPAN

    def charge_ns(self, feature: Feature, ns: int) -> None:
        return None
