"""Unit tests for sequence generation and the reorder window."""

import pytest
from hypothesis import given, strategies as st

from repro.protocols.sequencing import ReorderWindow, SequenceError, SequenceGenerator


class TestSequenceGenerator:
    def test_monotone(self):
        gen = SequenceGenerator()
        assert [gen.next() for _ in range(4)] == [0, 1, 2, 3]
        assert gen.issued == 4

    def test_custom_start(self):
        assert SequenceGenerator(start=10).next() == 10


class TestReorderWindow:
    def test_in_order_passthrough(self):
        window = ReorderWindow(window=4)
        for i in range(5):
            assert window.accept(i, f"p{i}") == [(i, f"p{i}")]
        assert window.ooo_accepted == 0

    def test_out_of_order_parks_then_drains(self):
        window = ReorderWindow(window=4)
        assert window.accept(1, "b") == []
        assert window.parked_now == 1
        run = window.accept(0, "a")
        assert run == [(0, "a"), (1, "b")]
        assert window.parked_now == 0
        assert window.ooo_accepted == 1

    def test_long_gap_drains_in_sequence(self):
        window = ReorderWindow(window=8)
        for seq in (3, 1, 2):
            assert window.accept(seq, seq) == []
        run = window.accept(0, 0)
        assert [s for s, _v in run] == [0, 1, 2, 3]

    def test_duplicate_of_delivered(self):
        window = ReorderWindow(window=4)
        window.accept(0, "a")
        assert window.accept(0, "a-again") == []
        assert window.duplicates == 1

    def test_duplicate_of_parked(self):
        window = ReorderWindow(window=4)
        window.accept(2, "c")
        assert window.accept(2, "c-again") == []
        assert window.duplicates == 1
        assert window.parked_now == 1

    def test_window_overflow_raises(self):
        window = ReorderWindow(window=4)
        with pytest.raises(SequenceError):
            window.accept(4, "too far")

    def test_peak_tracking(self):
        window = ReorderWindow(window=8)
        for seq in (5, 3, 1):
            window.accept(seq, seq)
        assert window.parked_peak == 3

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ReorderWindow(window=0)


@given(
    p=st.integers(1, 200),
    seed=st.integers(0, 1000),
)
def test_any_permutation_delivers_in_order(p, seed):
    """Whatever the arrival permutation, the window's output is 0..p-1 in
    order — the in-order delivery invariant of the stream protocol."""
    import random

    order = list(range(p))
    random.Random(seed).shuffle(order)
    window = ReorderWindow(window=p + 1)
    delivered = []
    for seq in order:
        delivered.extend(s for s, _v in window.accept(seq, seq))
    assert delivered == list(range(p))
    assert window.parked_now == 0


class _GeneralReorderWindow(ReorderWindow):
    """The reorder window without its in-order fast path: every
    acceptance takes the general route (window checks, drain), as
    ``accept`` did before the fast path existed."""

    def accept(self, seq, item):
        if seq < self.expected:
            self.duplicates += 1
            return []
        if seq >= self.expected + self.window:
            raise SequenceError(f"seq {seq} outside window")
        if seq == self.expected:
            delivered = [(seq, item)]
            self.expected += 1
            delivered.extend(self._drain())
            return delivered
        slot = self._slot(seq)
        if self._occupied[slot]:
            self.duplicates += 1
            return []
        self._slots[slot] = item
        self._occupied[slot] = True
        self.parked_now += 1
        self.parked_peak = max(self.parked_peak, self.parked_now)
        self.ooo_accepted += 1
        return []


def _walk(steps):
    """Arrivals that wander around the stream: mostly the next few
    sequence numbers, with gaps, repeats and steps back."""
    seq, arrivals = 0, []
    for step in steps:
        seq = max(seq + step, 0)
        arrivals.append(seq)
    return arrivals


@given(
    window=st.integers(1, 12),
    start=st.integers(0, 5),
    arrivals=st.one_of(
        st.lists(st.integers(-3, 4), max_size=80).map(_walk),
        st.permutations(list(range(24))),
        st.lists(st.integers(0, 30), max_size=80),
    ),
)
def test_fast_path_matches_the_general_path(window, start, arrivals):
    """On any arrival order — in order, parked, duplicated, past the
    window — the fast path returns the same runs, raises on the same
    arrivals and keeps the same counters as the general path."""
    fast = ReorderWindow(window=window, start=start)
    general = _GeneralReorderWindow(window=window, start=start)
    for seq in arrivals:
        outcomes = []
        for reorder in (fast, general):
            try:
                outcomes.append(reorder.accept(seq, f"p{seq}"))
            except SequenceError:
                outcomes.append(SequenceError)
        assert outcomes[0] == outcomes[1]
        assert (fast.expected, fast.parked_now, fast.parked_peak,
                fast.duplicates, fast.ooo_accepted) == (
            general.expected, general.parked_now, general.parked_peak,
            general.duplicates, general.ooo_accepted)
