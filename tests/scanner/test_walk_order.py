"""The sweep's planner against the dense batch-by-batch fold it replaced.

Each range of a scan is planned from one memoised column of its allowed
LFSR states in walk order (:class:`repro.scanner.ipv4scan.WalkOrder`),
cut each week against the ascending hot positions the network finds
(:meth:`repro.netsim.network.Network.cold_sweep_columns`) and summed
against its drop columns.  That must equal, batch for batch, what
:class:`~repro.scanner.lfsr.TargetBatchIterator` over the walk and the
range's selector, folded by :func:`tests.oracles.bulk_plan` against one
hot flag per address (:func:`tests.oracles.dense_hot_column`), gives —
for any space (its address column ascending or not), blacklist, node
set, middlebox interest, paced defense plane, shard range, batch size
and drop columns, and with one column reused at two batch sizes and
across weeks.
"""

from hypothesis import given, settings, strategies as st

from repro.netsim import Network, Node, SimClock
from repro.netsim.address import Ipv4Network, int_to_ip, ip_to_int
from repro.netsim.middlebox import Middlebox
from repro.scanner import Blacklist, ScanTargetSpace
from repro.scanner.ipv4scan import _sweep_columns
from repro.scanner.lfsr import (LFSR, TargetBatchIterator, memoised,
                                permutation)
from tests.oracles import bulk_plan, dense_hot_column

# Clean prefixes, two wholly reserved (one based at 0.0.0.0, whose
# addresses repeat the column's sentinel value), one half reserved
# (192.0.0.0/23).
PREFIXES = ["1.0.0.0/28", "1.0.1.0/26", "5.6.7.0/29", "20.0.0.0/27",
            "45.1.2.0/25", "8.8.8.0/30", "100.64.0.0/29", "192.0.0.0/23",
            "0.0.0.0/30"]
# Ranges a middlebox may say it acts on: parts of the prefixes above,
# a range that holds several of them, one outside them all, and one
# holding the 0.0.0.0 prefix (and the sentinel's value).
RANGES = ["1.0.1.16/28", "20.0.0.0/29", "45.1.2.64/26", "8.8.8.0/24",
          "1.0.0.0/16", "192.0.1.0/25", "77.0.0.0/8", "0.0.0.0/8"]
SOURCE = "198.51.100.7"


class Interested(Middlebox):
    """A box that may act on probes to ``ranges`` and nowhere else."""

    def __init__(self, ranges):
        self.ranges = ranges

    def scan_interest(self, src_ip, dst_port, network, qname_suffix=None):
        return self.ranges


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
    networks = [Ipv4Network(prefix) for prefix in prefixes]
    if draw(st.booleans()):
        # An ascending address column: the network bisects it.
        networks.sort(key=lambda network: network.base)
    space = ScanTargetSpace(networks)
    total = len(space)
    blacklist = Blacklist(
        networks=draw(st.lists(st.sampled_from(
            ["1.0.1.8/30", "20.0.0.16/29"]), max_size=1)),
        addresses=[space.ip_at(index) for index in draw(st.lists(
            st.integers(0, total - 1), max_size=4))])
    start = draw(st.integers(0, total))
    stop = draw(st.integers(start, total))
    return space, blacklist, start, stop


def ranges_of(draw, max_size):
    return [(network.base, network.mask) for network in (
        Ipv4Network(cidr) for cidr in draw(st.lists(
            st.sampled_from(RANGES), max_size=max_size, unique=True)))]


def hot_world(draw, space, addresses):
    """One week's network: nodes on drawn targets (and one outside the
    space), boxes with drawn interest, and a paced defense plane whose
    boxes do or do not say they act where the plan paced them.  Returns
    the network, the ``paced`` argument and the dense hot column."""
    network = Network(SimClock())
    nodes = {space.int_at(index) for index in draw(st.lists(
        st.integers(0, len(space) - 1), max_size=12))}
    nodes.add(ip_to_int("9.9.9.9"))
    for value in nodes:
        network.register(Node(int_to_ip(value)))
    interest = ranges_of(draw, 2)
    for base_mask in interest:
        network.add_middlebox(Interested([base_mask]))
    plane, settled = [], []
    for agrees in draw(st.lists(st.booleans(), max_size=2)):
        ranges = ranges_of(draw, 2)
        box = Interested(ranges if agrees else ranges[:1])
        network.add_middlebox(box)
        plane.append((box, ranges))
        # Only a box that says it acts where the plan paced it is
        # settled by the plan's verdicts.
        (settled if box.ranges == ranges else interest).extend(box.ranges)
    if not plane:
        return network, None, dense_hot_column(addresses, nodes, interest)
    passed = bytearray(byte & 1 for byte in draw(
        st.binary(min_size=len(addresses), max_size=len(addresses))))
    return network, (plane, passed), dense_hot_column(
        addresses, nodes, interest, (settled, passed))


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
    assert len(walk_order.ranks) == stop - start
    assert columns.walk_order(walk, start, stop) is walk_order
    # Two weeks: new nodes, interest and pacing verdicts, the same drop
    # columns (the network memoises its clock-independent ones), each
    # at both batch sizes.
    for __ in range(2):
        network, paced, dense = hot_world(data.draw, space,
                                          columns.addresses)
        hot, __ = network.cold_sweep_columns(
            SOURCE, 31337, 53, columns.addresses, columns.is_sorted, {},
            paced=paced)
        assert hot == [position for position, flag in enumerate(dense)
                       if flag]
        for batch_size in sizes:
            assert listed(walk_order.plan(
                batch_size, columns.addresses.__getitem__, None)) \
                == oracle(walk, columns, start, stop, batch_size, None)
            assert listed(walk_order.plan(
                batch_size, columns.addresses.__getitem__, (hot, drops))) \
                == oracle(walk, columns, start, stop, batch_size,
                          (dense, drops))
