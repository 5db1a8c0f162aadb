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

The clock is sampled by *activation*, a span entered on an empty
stack.  The first :data:`EXACT_ACTIVATIONS` activations of an
accumulator are all timed, so short runs (unit tests, the demo cells)
get exact totals.  After that, one activation in :data:`SAMPLE_EVERY`
is timed and each slice it banks is multiplied by ``SAMPLE_EVERY``,
so the totals become unbiased estimates of the exact ones.  The gap
to the next timed activation is drawn uniform on
``1 .. 2 * SAMPLE_EVERY - 1`` from an integer LCG with a constant seed,
so a run repeats its choices and periodic traffic cannot alias with a
fixed stride.  The span stack, every span count and
:attr:`TimeAttribution.current` stay exact in every activation.

A timed span costs its ``__enter__``, its ``__exit__`` and one clock
read in each; an untimed one costs the first two only.  The feature
lookup is a dict hit, the span stack is a chain of ``(span, parent)``
tuples and the gap draw is integer arithmetic, so none makes a call.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.arch.attribution import Feature, FEATURE_ORDER

#: Module-level binding: one global load instead of two attribute
#: lookups on every span boundary.
_now = time.perf_counter_ns

#: Activations timed with weight 1 before sampling starts.
EXACT_ACTIVATIONS = 1024
#: Past the exact prefix, one activation in this many is timed, and
#: its slices are weighted by it.
SAMPLE_EVERY = 64

# The gap draw: Knuth's MMIX LCG.  Its low bits repeat with short
# periods, so the gap comes from the top 31.
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1
_LCG_SEED = 1
_GAPS = 2 * SAMPLE_EVERY - 1


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
        # The running activation's weight: 0 when it is untimed (no
        # clock read), else what each slice it banks is multiplied by.
        self._weight: int = 0
        self._restart_sampling()
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

    def _restart_sampling(self) -> None:
        # Activations left in the exact prefix, untimed activations
        # before the next timed one, and the gap generator's state.
        self._exact = EXACT_ACTIVATIONS
        self._skip = 0
        self._lcg = _LCG_SEED

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

    def reset(self) -> None:
        """Zero every bucket and restart the exact prefix."""
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
        self._restart_sampling()

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
    stack is the only one whose clock runs.  In an untimed activation
    both only keep the stack and the count.
    """

    __slots__ = ("_attr", "feature", "ns", "count")

    def __init__(self, attr: TimeAttribution, feature: Feature) -> None:
        self._attr = attr
        self.feature = feature
        self.ns = 0
        self.count = 0

    def __enter__(self) -> "_Span":
        attr = self._attr
        top = attr._top
        attr._top = (self, top)
        self.count += 1
        if top is None:
            # An activation starts: the countdown decides if it is timed.
            skip = attr._skip
            if skip:
                attr._skip = skip - 1
                attr._weight = 0
                return self
            if attr._exact:
                attr._exact -= 1
                attr._weight = 1
            else:
                lcg = (attr._lcg * _LCG_MUL + _LCG_INC) & _LCG_MASK
                attr._lcg = lcg
                attr._skip = (lcg >> 33) % _GAPS
                attr._weight = SAMPLE_EVERY
            attr._mark = _now()
        elif attr._weight:
            # Pause the parent: bank what it has accrued so far.
            now = _now()
            top[0].ns += (now - attr._mark) * attr._weight
            attr._mark = now
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        attr = self._attr
        if attr._weight:
            now = _now()
            self.ns += (now - attr._mark) * attr._weight
            # Resume the parent's clock (if any).
            attr._mark = now
        span, attr._top = attr._top
        if span is not self:  # pragma: no cover - defensive
            raise RuntimeError(f"span stack corrupted at {self.feature}")

