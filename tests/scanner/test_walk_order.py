"""The sweep's planner against the batch-by-batch fold it replaced.

Each range of a scan is planned from one memoised column of its allowed
LFSR states in walk order (:class:`repro.scanner.ipv4scan.WalkOrder`),
cut each week against the network's hot column and summed against its
drop columns.  That must equal, batch for batch, what
:class:`~repro.scanner.lfsr.TargetBatchIterator` over the walk and the
range's selector, folded by :func:`tests.oracles.bulk_plan`, gives —
for any space, blacklist, shard range, batch size and drop columns, and
with one column reused at two batch sizes and across weeks.
"""

from hypothesis import given, settings, strategies as st

from repro.netsim.address import Ipv4Network
from repro.scanner import Blacklist, ScanTargetSpace
from repro.scanner.ipv4scan import _sweep_columns
from repro.scanner.lfsr import (LFSR, TargetBatchIterator, memoised,
                                permutation)
from tests.oracles import bulk_plan

# Clean prefixes, one wholly reserved, one half reserved (192.0.0.0/24).
PREFIXES = ["1.0.0.0/28", "1.0.1.0/26", "5.6.7.0/29", "20.0.0.0/27",
            "45.1.2.0/25", "8.8.8.0/30", "100.64.0.0/29", "192.0.0.0/23"]


def oracle(walk, columns, start, stop, batch_size, cold):
    selector = bytearray(len(walk) + 1)
    selector[start + 1:stop + 1] = columns.allowed[start + 1:stop + 1]
    batches = TargetBatchIterator(walk, selector, batch_size=batch_size)
    addr_of = columns.addresses.__getitem__
    if cold is None:
        return [([addr_of(state) for state in batch], 0, [])
                for batch in batches]
    return list(bulk_plan(batches, addr_of, *cold))


def listed(plan):
    return [(list(hot), cold, list(drops)) for hot, cold, drops in plan]


@st.composite
def worlds(draw):
    prefixes = draw(st.lists(st.sampled_from(PREFIXES), min_size=1,
                             max_size=4, unique=True))
    space = ScanTargetSpace([Ipv4Network(prefix) for prefix in prefixes])
    total = len(space)
    blacklist = Blacklist(
        networks=draw(st.lists(st.sampled_from(
            ["1.0.1.8/30", "20.0.0.16/29"]), max_size=1)),
        addresses=[space.ip_at(index) for index in draw(st.lists(
            st.integers(0, total - 1), max_size=4))])
    start = draw(st.integers(0, total))
    stop = draw(st.integers(start, total))
    return space, blacklist, start, stop


def drop_columns(draw, size, attempts):
    """A loss column and fault columns, as cold_sweep_columns gives."""
    reasons = draw(st.lists(st.sampled_from(
        [None, "injected_loss", "rate_limited", "defense:tarpit"]),
        max_size=3, unique=True))
    return [(reason, bytearray(
        byte % (attempts + 1)
        for byte in draw(st.binary(min_size=size, max_size=size))))
        for reason in reasons]


@given(world=worlds(), data=st.data(),
       sizes=st.tuples(st.sampled_from([1, 3, 7, 64, 4096]),
                       st.sampled_from([1, 2, 5, 4096])),
       attempts=st.integers(1, 3), lfsr_seed=st.integers(1, 0xFFFF))
@settings(max_examples=150, deadline=None)
def test_walk_order_plan_equals_batch_fold(world, data, sizes, attempts,
                                           lfsr_seed):
    space, blacklist, start, stop = world
    total = len(space)
    order = LFSR.order_for(total)
    walk = permutation(order, seed=lfsr_seed % ((1 << order) - 1) or 1)
    columns = _sweep_columns(space, blacklist)
    size = len(columns.addresses)
    drops = drop_columns(data.draw, size, attempts)
    walk_order = columns.walk_order(walk, start, stop)
    assert memoised(walk)
    assert len(walk_order.states) == sum(columns.allowed[start + 1:stop + 1])
    assert columns.walk_order(walk, start, stop) is walk_order
    # Two weeks: new hot columns, the same drop columns (the network
    # memoises its clock-independent ones), each at both batch sizes.
    for __ in range(2):
        hot = bytearray(byte & 1 for byte in data.draw(
            st.binary(min_size=size, max_size=size)))
        for batch_size in sizes:
            for cold in (None, (hot, drops)):
                assert listed(walk_order.plan(
                    batch_size, columns.addresses.__getitem__, cold)) \
                    == oracle(walk, columns, start, stop, batch_size, cold)
