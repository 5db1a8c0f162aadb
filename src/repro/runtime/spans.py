"""Wall-clock attribution: the paper's feature buckets, measured in time.

The simulator attributes *instruction counts* to the four messaging
features via :class:`repro.arch.attribution.AttributionStack`.  The live
runtime attributes *elapsed nanoseconds* the same way: protocol code
wraps each stretch of feature work in ``with attribution.spans[feature]:``
and a ``perf_counter_ns`` delta lands in that feature's bucket.

Semantics mirror the instruction-count stack exactly:

* spans nest, and the *innermost* span receives the charge — a parent
  span is paused while a child runs, so no nanosecond is counted twice;
* code that runs outside any span (event-loop idle time, transport
  latency, user handlers not wrapped) is charged to nothing — the
  breakdown is CPU time *spent by the messaging layer*, the quantity the
  paper's instruction counts approximate.

A span costs what it measures and no more: its ``__enter__``, its
``__exit__`` and one clock read in each.  The feature lookup is a dict
hit and the span stack is a chain of ``(span, parent)`` tuples, so
neither makes a call.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.arch.attribution import Feature, FEATURE_ORDER, OVERHEAD_FEATURES

#: Module-level binding: one global load instead of two attribute
#: lookups on every span boundary.
_now = time.perf_counter_ns


class _SpanMap(dict):
    """``Feature -> span``; a hit costs no call, anything else is a
    :class:`TypeError` (a typo'd feature must not open a silent span)."""

    __slots__ = ()

    def __missing__(self, feature):
        raise TypeError(f"expected a Feature, got {feature!r}")


class TimeAttribution:
    """Per-feature nanosecond accumulator with a re-entrant span stack.

    :attr:`spans` maps each feature to the :class:`_Span` that owns its
    bucket: ``with attribution.spans[Feature.IN_ORDER]:`` charges the
    block's exclusive duration to ``IN_ORDER``.
    """

    def __init__(self) -> None:
        # The active spans, innermost first: ``(span, parent)`` links
        # ending in None.  Pushing builds a tuple and popping unpacks
        # one, so neither is a call.
        self._top: Optional[Tuple[_Span, object]] = None
        self._mark: int = 0
        # One reusable span per feature.  A span keeps no per-entry state
        # (the stack lives here), so handing out the same object, even
        # nested inside itself, is safe and the hot path allocates only
        # the stack link.
        self._buckets: Dict[Feature, _Span] = _SpanMap(
            (feature, _Span(self, feature)) for feature in Feature
        )
        #: ``Feature -> context manager`` charging its (exclusive)
        #: duration to that feature.
        self.spans: Dict[Feature, object] = self._buckets

    @property
    def current(self) -> Optional[Feature]:
        """The feature charges currently land in (``None`` outside spans)."""
        return self._top[0].feature if self._top is not None else None

    def charge_ns(self, feature: Feature, ns: int) -> None:
        """Manually add ``ns`` to a bucket (merging external measurements)."""
        if ns < 0:
            raise ValueError("cannot charge negative time")
        self._buckets[feature].ns += ns

    # -- results ------------------------------------------------------------------

    def ns(self, feature: Feature) -> int:
        return self._buckets[feature].ns

    def span_count(self, feature: Feature) -> int:
        return self._buckets[feature].count

    def snapshot(self) -> Dict[Feature, int]:
        """A copy of the per-feature totals (safe to keep after more runs)."""
        return {feature: span.ns for feature, span in self._buckets.items()}

    @property
    def total_ns(self) -> int:
        return sum(self._buckets[feature].ns for feature in FEATURE_ORDER)

    @property
    def overhead_ns(self) -> int:
        return sum(self._buckets[feature].ns for feature in OVERHEAD_FEATURES)

    @property
    def overhead_fraction(self) -> float:
        total = self.total_ns
        return self.overhead_ns / total if total else 0.0

    def merge(self, other: "TimeAttribution") -> None:
        """Fold another accumulator's totals into this one."""
        for feature, theirs in other._buckets.items():
            ours = self._buckets[feature]
            ours.ns += theirs.ns
            ours.count += theirs.count

    def reset(self) -> None:
        if self._top is not None:
            # Name the leaked feature(s), innermost last, so the error
            # pinpoints which span failed to unwind (cf. a queue's
            # drain() assertion naming what was left behind).
            leaked = []
            link = self._top
            while link is not None:
                leaked.append(link[0].feature.value)
                link = link[1]
            raise RuntimeError(
                f"cannot reset while spans are active: leaked "
                f"[{' -> '.join(reversed(leaked))}] — "
                "a span's __exit__ never ran (or reset raced a live run)"
            )
        for span in self._buckets.values():
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

    ``__enter__`` banks the running parent's slice and links this span
    on top of it; ``__exit__`` unlinks it and banks its own slice.
    Either way the shared mark moves to now, so the span on top of the
    stack is the only one whose clock runs.
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
        top = attr._top
        if top is not None:
            # Pause the parent: bank what it has accrued so far.
            top[0].ns += now - attr._mark
        attr._top = (self, top)
        self.count += 1
        attr._mark = now
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        now = _now()
        attr = self._attr
        span, attr._top = attr._top
        if span is not self:  # pragma: no cover - defensive
            raise RuntimeError(f"span stack corrupted at {self.feature}")
        self.ns += now - attr._mark
        # Resume the parent's clock (if any).
        attr._mark = now

