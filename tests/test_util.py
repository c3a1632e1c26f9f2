"""Tests for shared utilities."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import util
from repro.scanner.delta import _SALT_AUDIT, audit_sample
from repro.util import (M64, PickTable, apportion, fate_counts,
                        fate_threshold, mix64, percentage, stable_hash)
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


class TestFateThreshold:
    """The kernel's integer compare against the per-draw float compare."""

    RATES = [0.0, 1e-9, 0.002, 0.05, 0.25, 0.5, 1.0]

    def test_rates_scale_to_integral_and_non_integral_values(self):
        assert {(rate * 2.0 ** 64).is_integer() for rate in self.RATES} \
            == {True, False}

    @pytest.mark.parametrize("rate", RATES)
    def test_same_verdict_around_the_threshold(self, rate):
        threshold = fate_threshold(rate)
        for draw in (threshold - 1, threshold, threshold + 1):
            if 0 <= draw <= M64:
                assert (draw < rate * (M64 + 1)) == (draw < threshold)


def draws_oracle(values, rules, draws):
    """:func:`fate_counts`, one ``mix64`` draw per (value, occurrence)."""
    columns = [bytearray(len(values)) for __ in rules]
    for position, value in enumerate(values):
        for occurrence in range(draws[position]):
            for column, (base, multiplier, threshold) in zip(columns, rules):
                if mix64((base ^ value * multiplier) & M64
                         ^ mix64(occurrence + 1)) < threshold:
                    column[position] += 1
                    break
    return columns


# Thresholds: mostly a rate's, sometimes at the draw space's edges
# (never, draw 0 only, all but M64, always).
RULES = st.lists(st.tuples(
    st.integers(0, 1 << 72), st.sampled_from([1, 0x85EBCA77, 0x9E3779B1]),
    st.one_of(st.floats(0.0, 1.0).map(fate_threshold),
              st.sampled_from([-1, 0, 1, M64, 1 << 64, (1 << 64) + 5]))),
    min_size=1, max_size=3)


class TestFateCounts:
    """The lane kernel against one draw per (value, occurrence), across
    the chunk boundaries (the chunk patched down to 8 lanes)."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rules=RULES,
           length=st.sampled_from([0, 1, 7, 8, 9, 19]))
    def test_equals_one_draw_per_occurrence(self, data, rules, length):
        values = data.draw(st.lists(st.integers(0, 0xFFFFFFFF),
                                    min_size=length, max_size=length))
        draws = bytes(data.draw(st.lists(
            st.one_of(st.integers(1, 6), st.just(0)), min_size=length,
            max_size=length)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(util, "LANE_CHUNK", 8)
            got = fate_counts(values, rules, draws)
        assert got == draws_oracle(values, rules, draws)

    def test_every_lane_of_three_chunks(self):
        rng = random.Random(5)
        values = [rng.getrandbits(32) for __ in range(19)]
        rules = [(rng.getrandbits(64), 0x85EBCA77, fate_threshold(0.3)),
                 (rng.getrandbits(64), 1, 1 << 63)]
        draws = bytes(rng.randrange(5) for __ in values)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(util, "LANE_CHUNK", 8)
            got = fate_counts(values, rules, draws)
        assert got == draws_oracle(values, rules, draws)

    @settings(max_examples=50, deadline=None)
    @given(identity=st.integers(0, 1 << 70), epoch=st.integers(0, 1 << 60),
           values=st.lists(st.integers(0, 0xFFFFFFFF), max_size=40),
           fraction=st.sampled_from([0.0, 1e-20, 0.2, 0.25, 0.9, 1.0, 1.5]))
    def test_audit_sample_equals_one_draw_per_value(self, identity, epoch,
                                                    values, fraction):
        salt = (_SALT_AUDIT << 56) ^ (identity & M64) ^ ((epoch & M64) << 8)
        threshold = int(fraction * float(1 << 64))
        assert audit_sample(identity, epoch, values, fraction) == {
            value for value in values
            if mix64(salt ^ (value * 0x9E3779B1)) < threshold}


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
