"""Defensive middleboxes: pure verdicts, attribution, determinism.

The whole arms race rests on defense fates being pure functions of
(seed, source, destination, declared rate) — these tests pin the
monotonicity, seeding, and attribution contracts the pacing controller
and the shard-equivalence invariant depend on.
"""

import pytest

from repro.netsim.address import ip_to_int
from repro.netsim.defense import (
    CAUSE_BLOCKLIST_WARNING,
    CAUSE_BLOCKLISTED,
    CAUSE_RATE_LIMITED,
    CAUSE_TARPIT,
    TARPIT_STALL_COUNTER,
    DefenseMiddlebox,
    ReactiveBlocklister,
    Tarpit,
    TokenBucketRateLimiter,
    default_hostile_population,
    install_hostile_population,
)
from repro.netsim.middlebox import PATH_DROP, PATH_IGNORE
from repro.scanner.pacing import defense_plane
from repro.inetmodel import PrefixAllocator
from tests.conftest import MiniWorld

SRC = ip_to_int("192.0.2.1")


def prefix(length=24):
    return PrefixAllocator().allocate(length)


def targets(net, count=256):
    return [net.base + offset for offset in range(min(count,
                                                      net.num_addresses))]


class TestTokenBucketRateLimiter:
    def test_clean_at_or_below_sustainable_rate(self):
        box = TokenBucketRateLimiter([prefix()], sustainable_pps=300.0)
        for dst in targets(prefix()):
            assert box.probe_fate(SRC, dst, 300) is None
            assert box.probe_fate(SRC, dst, 8) is None

    def test_drop_share_grows_with_declared_rate(self):
        box = TokenBucketRateLimiter([prefix()], sustainable_pps=300.0)
        dsts = targets(prefix(), 256)

        def drops(rate):
            return sum(box.probe_fate(SRC, dst, rate) is not None
                       for dst in dsts)

        assert 0 == drops(300) < drops(400) < drops(1200) <= drops(None)

    def test_monotonic_per_destination(self):
        # Lowering the rate can only turn drops into passes — the draw
        # is shared across rates, so AIMD convergence is deterministic.
        box = TokenBucketRateLimiter([prefix()], sustainable_pps=300.0)
        for dst in targets(prefix(), 256):
            dropped_low = box.probe_fate(SRC, dst, 400) is not None
            dropped_high = box.probe_fate(SRC, dst, 900) is not None
            assert not (dropped_low and not dropped_high)

    def test_unpaced_treated_as_overload(self):
        box = TokenBucketRateLimiter([prefix()], sustainable_pps=300.0,
                                     overload_drop_share=0.92)
        dsts = targets(prefix(), 512)
        dropped = sum(box.probe_fate(SRC, dst, None) is not None
                      for dst in dsts)
        assert dropped / len(dsts) == pytest.approx(0.92, abs=0.06)

    def test_fate_is_deterministic_and_seed_keyed(self):
        net = prefix()
        box_a = TokenBucketRateLimiter([net], seed=5)
        box_b = TokenBucketRateLimiter([net], seed=5)
        box_c = TokenBucketRateLimiter([net], seed=6)
        fates_a = [box_a.probe_fate(SRC, dst, None) for dst in targets(net)]
        fates_b = [box_b.probe_fate(SRC, dst, None) for dst in targets(net)]
        fates_c = [box_c.probe_fate(SRC, dst, None) for dst in targets(net)]
        assert fates_a == fates_b
        assert fates_a != fates_c


class TestReactiveBlocklister:
    def test_rate_bands(self):
        box = ReactiveBlocklister([prefix()], warn_pps=600.0,
                                  ban_pps=1200.0)
        dst = prefix().base + 1
        assert box.probe_fate(SRC, dst, 100) is None
        assert box.probe_fate(SRC, dst, 1200) == CAUSE_BLOCKLISTED
        assert box.probe_fate(SRC, dst, None) == CAUSE_BLOCKLISTED
        warned = [box.probe_fate(SRC, d, 800) for d in targets(prefix())]
        assert CAUSE_BLOCKLIST_WARNING in warned
        assert None in warned     # warn band drops a share, not all

    def test_ban_span_bounded_and_seeded(self):
        box = ReactiveBlocklister([prefix()], ban_span=(48, 160), seed=3)
        spans = [box.ban_span(SRC, base) for base in range(0, 1 << 16, 256)]
        assert all(48 <= span <= 160 for span in spans)
        assert len(set(spans)) > 1
        again = ReactiveBlocklister([prefix()], ban_span=(48, 160), seed=3)
        assert spans == [again.ban_span(SRC, base)
                        for base in range(0, 1 << 16, 256)]


class TestTarpit:
    def test_triggers_on_aggression_only(self):
        box = Tarpit([prefix()], trigger_pps=250.0)
        dst = prefix().base + 1
        assert box.probe_fate(SRC, dst, 249) is None
        assert box.probe_fate(SRC, dst, 250) == CAUSE_TARPIT
        assert box.probe_fate(SRC, dst, None) == CAUSE_TARPIT

    def test_stall_seconds_bounded(self):
        box = Tarpit([prefix()], stall_seconds=(20.0, 75.0))
        stalls = [box.stall_seconds(SRC, dst)
                  for dst in targets(prefix(), 64)]
        assert all(20.0 <= stall <= 75.0 for stall in stalls)
        assert len(set(stalls)) > 1

    def test_stall_charged_to_fault_counter(self):
        mini = MiniWorld()
        net = mini.allocator.allocate(24)
        box = Tarpit([net])
        mini.network.add_middlebox(box)
        verdict = box.path_verdict(mini.client_ip, net.base + 1, 53,
                                   mini.network)
        assert verdict == PATH_DROP
        assert mini.network.fault_counters[CAUSE_TARPIT] == 1
        assert mini.network.fault_counters[TARPIT_STALL_COUNTER] >= 20000


class TestMiddleboxProtocol:
    def build(self):
        mini = MiniWorld()
        net = mini.allocator.allocate(24)
        box = TokenBucketRateLimiter([net], sustainable_pps=300.0)
        mini.network.add_middlebox(box)
        return mini, net, box

    def test_path_verdict_reads_declared_rate(self):
        mini, net, box = self.build()
        mini.network.scan_rate_bucket = 100
        assert box.path_verdict(mini.client_ip, net.base + 1, 53,
                                mini.network) == PATH_IGNORE
        mini.network.scan_rate_bucket = None
        verdicts = [box.path_verdict(mini.client_ip, net.base + off, 53,
                                     mini.network) for off in range(64)]
        assert PATH_DROP in verdicts

    def test_drop_sets_cause_and_counts_fault(self):
        mini, net, box = self.build()
        dst = next(net.base + off for off in range(256)
                   if box.probe_fate(ip_to_int(mini.client_ip),
                                     net.base + off, None) is not None)
        assert box.path_verdict(mini.client_ip, dst, 53,
                                mini.network) == PATH_DROP
        assert box.drop_cause == CAUSE_RATE_LIMITED
        assert mini.network.fault_counters[CAUSE_RATE_LIMITED] == 1

    def test_ignores_other_ports_and_dormant_boxes(self):
        mini, net, box = self.build()
        assert box.path_verdict(mini.client_ip, net.base + 1, 80,
                                mini.network) == PATH_IGNORE
        dormant = TokenBucketRateLimiter([net], active_after=1e9)
        assert dormant.path_verdict(mini.client_ip, net.base + 1, 53,
                                    mini.network) == PATH_IGNORE
        assert dormant.scan_interest(mini.client_ip, 53, mini.network) == []
        mini.network.add_middlebox(dormant)
        assert [plane_box for plane_box, __ in defense_plane(
            mini.network, mini.client_ip)] == [box]

    def test_scan_interest_marks_defended_ranges_hot(self):
        mini, net, box = self.build()
        assert box.scan_interest(mini.client_ip, 53, mini.network) == \
            [(net.base, net.mask)]
        assert defense_plane(mini.network, mini.client_ip) == \
            [(box, [(net.base, net.mask)])]


class TestHostilePopulation:
    def test_default_population_composition(self):
        allocator = PrefixAllocator()
        prefixes = [allocator.allocate(length)
                    for length in (26, 25, 24, 24, 23, 22)]
        boxes = default_hostile_population(prefixes, seed=7)
        kinds = [type(box).__name__ for box in boxes]
        assert kinds == ["ReactiveBlocklister", "Tarpit",
                         "TokenBucketRateLimiter"]
        blocklister = boxes[0]
        # Smallest prefix is hard-blocked: banned at every declared rate.
        assert blocklister.ban_pps == 0.0
        assert blocklister.probe_fate(SRC,
                                      blocklister._protect_masks[0][0],
                                      8) == CAUSE_BLOCKLISTED

    def test_install_and_discovery(self):
        mini = MiniWorld()
        prefixes = [mini.allocator.allocate(24) for __ in range(4)]
        boxes = install_hostile_population(mini.network, prefixes, seed=1)
        assert mini.network.middleboxes_of(DefenseMiddlebox) == boxes
        assert len(boxes) == 3

    def test_empty_prefixes(self):
        assert default_hostile_population([]) == []
