"""Tests for the LFSR scan-order permutation and batch plumbing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.inetmodel import PrefixAllocator
from repro.scanner.ipv4scan import ScanTargetSpace, retry_schedule
from repro.scanner.lfsr import (
    LFSR,
    MAXIMAL_TAPS,
    TargetBatchIterator,
    permutation,
)


class TestMaximality:
    @pytest.mark.parametrize("order", list(range(3, 17)))
    def test_full_period_small_orders(self, order):
        lfsr = LFSR(order, seed=1)
        values = list(lfsr.sequence())
        assert len(values) == (1 << order) - 1
        assert set(values) == set(range(1, 1 << order))

    @pytest.mark.parametrize("order", [17, 18, 19, 20])
    def test_no_short_cycle_spot_check(self, order):
        lfsr = LFSR(order, seed=1)
        first = lfsr.state
        # A maximal LFSR must not return to the seed early.
        for __ in range(100000):
            if lfsr.step() == first:
                pytest.fail("short cycle for order %d" % order)

    @pytest.mark.parametrize("order", [3, 8, 13, 16])
    def test_sequence_is_the_stepped_register(self, order):
        lfsr = LFSR(order, seed=5)
        stepper = LFSR(order, seed=5)
        assert list(lfsr.sequence()) == [stepper.state] + [
            stepper.step() for __ in range((1 << order) - 2)]

    def test_all_documented_orders_have_taps(self):
        assert set(MAXIMAL_TAPS) == set(range(3, 33))


class TestApi:
    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            LFSR(8, seed=0)

    def test_unknown_order_without_taps_rejected(self):
        with pytest.raises(ValueError):
            LFSR(2)

    def test_custom_taps_accepted(self):
        lfsr = LFSR(2, seed=1, taps=0b11)
        assert len(list(lfsr.sequence())) == 3

    def test_seed_masked(self):
        lfsr = LFSR(4, seed=0x1F)
        assert lfsr.state <= 0xF

    def test_period_property(self):
        assert LFSR(8).period == 255

    @given(st.integers(min_value=1, max_value=10 ** 6))
    def test_order_for_covers_count(self, count):
        order = LFSR.order_for(count)
        assert (1 << order) - 1 >= count
        assert order == 3 or (1 << (order - 1)) - 1 < count

    def test_different_seeds_same_set(self):
        first = set(LFSR(6, seed=1).sequence())
        second = set(LFSR(6, seed=33).sequence())
        assert first == second

    def test_permutation_not_sequential(self):
        values = list(LFSR(10, seed=1).sequence())[:50]
        assert values != sorted(values)


class TestPermutation:
    def test_matches_sequence(self):
        walk = permutation(10, seed=77)
        assert list(walk) == list(LFSR(10, seed=77).sequence())

    def test_full_period_every_state_once(self):
        walk = permutation(9, seed=5)
        assert len(walk) == (1 << 9) - 1
        assert set(walk) == set(range(1, 1 << 9))

    def test_memoised_same_object(self):
        first = permutation(8, seed=3)
        second = permutation(8, seed=3)
        assert first is second

    def test_distinct_keys_distinct_walks(self):
        assert list(permutation(8, seed=3)) != list(
            permutation(8, seed=4))

    def test_seed_normalised_like_lfsr(self):
        # LFSR masks the seed to the register width; the memo key must
        # see the normalised seed or equal walks would cache twice.
        wide = permutation(4, seed=0x13)
        narrow = permutation(4, seed=0x3)
        assert wide is narrow


class TestTargetBatchIterator:
    def walk(self, order=8, seed=1):
        return permutation(order, seed=seed)

    def selector_all(self, order=8):
        return bytearray(b"\x01") * (1 << order)

    def test_batches_cover_selected_states_in_order(self):
        walk = self.walk()
        selector = bytearray(1 << 8)
        for state in range(1, 1 << 8):
            selector[state] = state % 3 == 0
        batches = list(TargetBatchIterator(walk, selector, batch_size=7))
        flattened = [state for batch in batches for state in batch]
        assert flattened == [s for s in walk if s % 3 == 0]
        assert all(len(batch) == 7 for batch in batches[:-1])
        assert 1 <= len(batches[-1]) <= 7

    def test_empty_selector_yields_nothing(self):
        batches = TargetBatchIterator(self.walk(), bytearray(1 << 8),
                                      batch_size=16)
        assert list(batches) == []

    def test_single_shot(self):
        batches = TargetBatchIterator(self.walk(),
                                      bytearray(b"\x01" * (1 << 8)),
                                      batch_size=64)
        first = [state for batch in batches for state in batch]
        assert len(first) == (1 << 8) - 1
        assert list(batches) == []

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError):
            TargetBatchIterator(self.walk(), bytearray(1 << 8),
                                batch_size=0)


class TestShardRangesPartition:
    def space(self, lengths):
        allocator = PrefixAllocator()
        return ScanTargetSpace([allocator.allocate(length)
                                for length in lengths])

    @given(st.integers(min_value=1, max_value=40),
           st.lists(st.integers(min_value=22, max_value=28), min_size=1,
                    max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_partition_invariants(self, shards, lengths):
        space = self.space(lengths)
        ranges = space.shard_ranges(shards)
        # Contiguous, ordered, disjoint, and jointly exhaustive.
        assert ranges[0][0] == 0
        assert ranges[-1][1] == len(space)
        for (__, stop), (start, __unused) in zip(ranges, ranges[1:]):
            assert start == stop
        assert all(start < stop for start, stop in ranges)
        assert len(ranges) == min(shards, len(space))

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            self.space([24]).shard_ranges(0)


class TestRetrySchedule:
    def test_no_retries_single_attempt(self):
        assert retry_schedule(1.5, 0) == [1.5]

    def test_none_timeout_stays_none_across_attempts(self):
        assert retry_schedule(None, 3) == [None, None, None, None]

    def test_backoff_growth(self):
        assert retry_schedule(0.5, 2, backoff=3.0) == [0.5, 1.5, 4.5]

    def test_rtt_floor_dominates_small_timeouts(self):
        # A target whose round trip exceeds the configured timeout must
        # still get a chance to answer: the floor wins every attempt it
        # dominates, then exponential growth takes over.
        assert retry_schedule(0.1, 3, backoff=2.0, rtt_floor=0.45) == \
            [0.45, 0.45, 0.45, 0.8]

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            retry_schedule(1.0, -1)

    def test_floor_dominating_every_attempt_keeps_backoff_growing(self):
        # Regression: when the floor exceeded even the last backed-off
        # attempt, per-attempt max() flattened the whole schedule to
        # [rtt_floor] * n — retries fired back-to-back with no spacing
        # growth.  The schedule must re-anchor the exponent at the floor.
        assert retry_schedule(0.1, 2, backoff=2.0, rtt_floor=1.0) == \
            [1.0, 2.0, 4.0]
        assert retry_schedule(0.01, 3, backoff=3.0, rtt_floor=0.5) == \
            [0.5, 1.5, 4.5, 13.5]

    def test_floor_equal_to_last_attempt_still_reanchors(self):
        # Boundary: base * backoff**retries == rtt_floor is the last
        # flat case; it must re-anchor too (strictly growing schedule).
        assert retry_schedule(0.25, 1, backoff=2.0, rtt_floor=0.5) == \
            [0.5, 1.0]

    def test_floor_partial_domination_unchanged(self):
        # The pre-existing partial case keeps its exact schedule: the
        # re-anchor only triggers when the floor swallows every attempt.
        assert retry_schedule(0.1, 3, backoff=2.0, rtt_floor=0.45) == \
            [0.45, 0.45, 0.45, 0.8]

    def test_zero_retries_never_reanchors(self):
        assert retry_schedule(0.1, 0, backoff=2.0, rtt_floor=1.0) == [1.0]
