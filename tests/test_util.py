"""Tests for shared utilities."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.util import PickTable, apportion, percentage, stable_hash
from tests.oracles import weighted_choice


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)

    def test_differs_by_part(self):
        assert stable_hash("a", 1) != stable_hash("a", 2)
        assert stable_hash("a") != stable_hash("b")

    def test_known_value_pinned(self):
        # Guards against accidental algorithm changes breaking
        # reproducibility of published runs.
        assert stable_hash("1.2.3.4", "facebook.com") == 4275522930

    @given(st.text(), st.text())
    def test_range(self, a, b):
        assert 0 <= stable_hash(a, b) <= 0xFFFFFFFF


class TestWeightedChoice:
    """``PickTable``: the weighted choice of every draw of a world."""

    def test_respects_weights(self):
        rng = random.Random(1)
        table = PickTable([("a", 3.0), ("b", 1.0)])
        counts = {"a": 0, "b": 0}
        for __ in range(2000):
            counts[table.pick(rng)] += 1
        assert 0.6 < counts["a"] / 2000 < 0.9

    def test_single_item(self):
        assert PickTable([("x", 1.0)]).pick(random.Random(1)) == "x"

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            PickTable([("x", 0.0)])

    def test_zero_weight_item_never_chosen(self):
        rng = random.Random(1)
        table = PickTable([("a", 0.0), ("b", 1.0)])
        for __ in range(200):
            assert table.pick(rng) == "b"


class _FixedPoint:
    """An RNG whose ``random()`` is always ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


WEIGHTS = st.one_of(
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    st.sampled_from((0, 0.0, 0.1, 0.2, 0.3, 1e-300, 0.427, 0.188)))


class TestPickTableAgainstLoop:
    """A pick equals the loop over running sums it replaced
    (``tests.oracles.weighted_choice``), for the same RNG state."""

    @given(st.lists(WEIGHTS, min_size=1, max_size=12), st.integers(0, 2**32))
    def test_same_pick_for_same_state(self, weights, seed):
        items = [("item%d" % index, weight)
                 for index, weight in enumerate(weights)]
        if sum(weight for __, weight in items) <= 0:
            with pytest.raises(ValueError):
                PickTable(items)
            with pytest.raises(ValueError):
                weighted_choice(random.Random(seed), items)
            return
        table = PickTable(items)
        ours, theirs = random.Random(seed), random.Random(seed)
        for __ in range(20):
            assert table.pick(ours) == weighted_choice(theirs, items)
        assert ours.getstate() == theirs.getstate()

    @given(st.lists(WEIGHTS, min_size=1, max_size=12),
           st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_same_pick_at_every_point(self, weights, value):
        items = [(index, weight) for index, weight in enumerate(weights)]
        if sum(weight for __, weight in items) > 0:
            assert PickTable(items).pick(_FixedPoint(value)) \
                == weighted_choice(_FixedPoint(value), items)

    def test_single_item(self):
        for value in (0.0, 0.5, 0.999999):
            assert PickTable([("x", 7)]).pick(_FixedPoint(value)) == "x"

    def test_point_at_or_past_the_last_running_sum(self):
        # From Python 3.12, sum() of ten 0.1s is 1.0 while the running
        # sum stops at 0.9999999999999999, so a point just below 1.0
        # lands past the last running sum; the table must still agree
        # with the loop.
        for weights in ([0.1] * 10, [0.7, 0.2, 0.1], [0.1, 0.2, 0.7],
                        [0.427, 0.046, 0.188, 0.339], [3, 1, 0]):
            items = list(zip("abcdefghij", weights))
            for value in (0.0, 0.5, 1.0 - 2 ** -53):
                assert PickTable(items).pick(_FixedPoint(value)) \
                    == weighted_choice(_FixedPoint(value), items)
        # A point past the last sum picks the last item, even one of
        # zero weight.
        table = PickTable([("a", 1), ("b", 0)])
        assert table.pick(_FixedPoint(1.0)) == "b"
        assert weighted_choice(_FixedPoint(1.0), [("a", 1), ("b", 0)]) \
            == "b"

    def test_total_is_sum_not_running_sum(self):
        # sum() adds the leading ints exactly (2**53 + 2), the running
        # sum rounds after each one (2**53), on every Python version.
        # Scaled by the running sum, this point would pick "a".
        items = [("a", 2 ** 53), ("b", 1), ("c", 1), ("d", 0.5)]
        point = _FixedPoint(1.0 - 2 ** -53)
        assert weighted_choice(point, items) == "d"
        assert PickTable(items).pick(point) == "d"

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PickTable([("a", 2.0), ("b", -1.0)])

    def test_int_weights(self):
        items = [("a", 3), ("b", 0), ("c", 1)]
        ours, theirs = random.Random(5), random.Random(5)
        table = PickTable(items)
        assert [table.pick(ours) for __ in range(100)] \
            == [weighted_choice(theirs, items) for __ in range(100)]


class TestPercentage:
    def test_basic(self):
        assert percentage(1, 4) == 25.0

    def test_zero_whole(self):
        assert percentage(5, 0) == 0.0


class TestApportion:
    def test_sums_exactly(self):
        assert sum(apportion(100, [0.62, 0.26, 0.12])) == 100

    def test_independent_rounding_bug_case(self):
        # int(round(...)) per share gives 2+1+0 = 3 for a 4-host
        # country — one host silently lost.  Hamilton's method never
        # drifts (the broadband shares drift on ~24% of all counts).
        shares = [0.62, 0.26, 0.12]
        assert sum(int(round(4 * share)) for share in shares) == 3
        counts = apportion(4, shares)
        assert counts == [3, 1, 0]

    def test_largest_remainder_gets_leftover(self):
        # Quotas 1.5 / 1.5 / 1.0: both .5 remainders beat .0, tie
        # broken by position.
        assert apportion(4, [1.5, 1.5, 1.0]) == [2, 1, 1]

    def test_deterministic_tie_break(self):
        assert apportion(1, [1.0, 1.0]) == [1, 0]
        assert apportion(3, [1.0, 1.0]) == [2, 1]

    def test_minimums_clamp_after_apportionment(self):
        counts = apportion(5, [0.9, 0.05, 0.05], minimums=[2, 2, 2])
        assert counts == [5, 2, 2]      # sum may exceed the total

    def test_zero_total(self):
        assert apportion(0, [0.62, 0.26, 0.12]) == [0, 0, 0]

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            apportion(-1, [1.0])

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            apportion(10, [0.0, 0.0])

    @given(st.integers(min_value=0, max_value=10**6),
           st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                    max_size=8).filter(lambda ws: sum(ws) > 0.01))
    def test_always_sums_to_total(self, total, weights):
        counts = apportion(total, weights)
        assert sum(counts) == total
        assert all(count >= 0 for count in counts)
