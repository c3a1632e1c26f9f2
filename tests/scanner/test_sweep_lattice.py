"""One invariant over the whole configuration lattice of the sweep.

However the work is cut — index-range shards, probe batches, streamed
chunks — and whatever rides along — retries, probe timeouts, baseline
loss, a fault plan, the flight recorder, hostile defenses with adaptive
pacing — ``Ipv4Scanner.scan`` must produce exactly what the per-target
reference walk (:func:`tests.oracles.reference_sweep`) produces on a
twin world: the same canonical result bytes, the same probe and
retransmission counts, the same suppressed windows, and the same
network, fault and flight-recorder counters.

The scanner-side safety invariants ("Aggressive Internet-Wide Scanners",
PAPERS.md) are held over the same lattice: opted-out space is never
probed or tallied, no address is sent more than ``1 + retries``
datagrams, and every datagram counted is one sent or one settled.
"""

import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan
from repro.netsim.address import ip_to_int, is_reserved
from repro.netsim.defense import (ReactiveBlocklister, Tarpit,
                                  TokenBucketRateLimiter)
from repro.obs import FlightRecorder
from repro.perf import PerfRegistry
from repro.resolvers import ResolverNode
from repro.resolvers.resolver import MODE_REFUSED, MODE_SERVFAIL
from repro.scanner import Blacklist, Ipv4Scanner, ScanTargetSpace
from repro.scanner import DeltaConfig, ScanCampaign, ScanOptions
from repro.scanner.engine import ScanEngine
from repro.scanner.ipv4scan import ScanResult, merge_scan_results
from tests.conftest import MiniWorld
from tests.oracles import reference_sweep
from tests.scanner.test_delta import build_delta_world

MEASUREMENT_DOMAIN = "scan.dnsstudy.edu"
RESOLVERS = ((0, 1, {}), (0, 2, {"response_mode": MODE_REFUSED}),
             (0, 77, {"response_mode": MODE_SERVFAIL}), (0, 200, {}),
             (1, 3, {}), (1, 40, {}), (1, 41, {}))


def build_world(loss_rate, faulted, recorded, hostile):
    """A deterministic two-prefix scan world; twins are byte-equal.
    ``hostile="overlapped"`` puts a second defense over the first
    prefix, so no pacing plan speaks for every box on its probes."""
    mini = MiniWorld(seed=5, loss_rate=loss_rate)
    mini.builder.register_domain(MEASUREMENT_DOMAIN,
                                 wildcard_address="198.18.0.99")
    mini.service.wildcard_suffixes = (MEASUREMENT_DOMAIN,)
    pools = [mini.allocator.allocate(24), mini.allocator.allocate(26)]
    for pool, offset, kwargs in RESOLVERS:
        if pool == 0 and offset == 200:
            # Answers from another address: attribution is by the name.
            kwargs = {"answer_source_ip": pools[0].address_at(201)}
        mini.network.register(ResolverNode(
            pools[pool].address_at(offset),
            resolution_service=mini.service, **kwargs))
    if hostile:
        mini.network.add_middlebox(TokenBucketRateLimiter(
            [pools[0]], sustainable_pps=150.0, seed=3))
        mini.network.add_middlebox(ReactiveBlocklister(
            [pools[1]], warn_pps=0.0, ban_pps=0.0, seed=3))
    if hostile == "overlapped":
        mini.network.add_middlebox(Tarpit(
            [pools[0]], trigger_pps=120.0, trap_share=0.5, seed=4))
    if faulted:
        mini.network.install_faults(FaultPlan("aggressive", seed=9))
    if recorded:
        mini.network.recorder = FlightRecorder()
    mini.space = ScanTargetSpace(pools)
    # One opted-out network inside a prefix, one opted-out address.
    mini.blacklist = Blacklist(
        networks=["%s/29" % pools[0].address_at(64)],
        addresses=[pools[1].address_at(40)])
    return mini


def observed(world, result):
    """Everything the invariant holds equal."""
    network = world.network
    recorder = network.recorder
    return {
        "pickle": pickle.dumps(result),
        "probes_sent": result.probes_sent,
        "retransmissions": result.retransmissions,
        "suppressed": sorted(result.suppressed.items()),
        "udp": (network.udp_queries_sent, network.udp_queries_lost,
                network.udp_responses_corrupted),
        "faults": sorted(network.fault_counters.items()),
        "flight": (None if recorder is None else
                   (sorted(recorder.event_counts.items()),
                    sorted(recorder.cause_counts.items()))),
    }


def sweep(world, cuts, probe_batch, chunk_rows, prepare=None, perf=None,
          timeout_margin=1.25, **knobs):
    """The production scan, cut into index ranges and (optionally)
    streamed in chunks, merged the way the engine merges shards.
    ``prepare(scanner)`` runs before the first range."""
    scanner = Ipv4Scanner(
        world.network, world.client_ip, MEASUREMENT_DOMAIN,
        blacklist=world.blacklist, perf=perf,
        timeout_margin=timeout_margin,
        options=ScanOptions(probe_batch=probe_batch, **knobs))
    if prepare is not None:
        prepare(scanner)
    total = len(world.space)
    bounds = [0] + sorted(cut * total // 100 for cut in cuts) + [total]
    shards = []
    for start, stop in zip(bounds, bounds[1:]):
        if chunk_rows is None:
            shards.append(scanner.scan(world.space,
                                       index_range=(start, stop)))
            continue
        chunks = []
        shard = scanner.scan(world.space, index_range=(start, stop),
                             chunk_sink=chunks.append,
                             chunk_rows=chunk_rows)
        for chunk in chunks:
            shard.absorb_chunk(chunk)
        shards.append(shard)
    return merge_scan_results(world.network.clock.now, shards)


def check(cuts=(), probe_batch=4096, chunk_rows=None, retries=0,
          probe_timeout=None, timeout_margin=1.25, loss_rate=0.0,
          faulted=False, recorded=False, hostile=False, pacing=None,
          perf=None):
    probe_config = {"retries": retries, "probe_timeout": probe_timeout,
                    "timeout_margin": timeout_margin, "pacing": pacing}
    world = build_world(loss_rate, faulted, recorded, hostile)
    merged = sweep(world, cuts, probe_batch, chunk_rows, perf=perf,
                   **probe_config)
    twin = build_world(loss_rate, faulted, recorded, hostile)
    reference = reference_sweep(
        twin.network, twin.client_ip, MEASUREMENT_DOMAIN, twin.space,
        blacklist=twin.blacklist, **probe_config)
    assert observed(world, merged) == observed(twin, reference)
    return merged


LATTICE = dict(
    cuts=st.lists(st.integers(0, 100), max_size=2),
    probe_batch=st.sampled_from([1, 7, 64, 4096]),
    chunk_rows=st.sampled_from([None, 1, 3, 65536]),
    retries=st.sampled_from([0, 1, 2]),
    probe_timeout=st.sampled_from([None, 0.05, 0.3]),
    # Below 1 the floor undercuts the round trip: late responses.
    timeout_margin=st.sampled_from([1.25, 0.4]),
    loss_rate=st.sampled_from([0.0, 0.2]),
    faulted=st.booleans(), recorded=st.booleans(),
    hostile=st.sampled_from([False, True, "overlapped"]),
    pacing=st.sampled_from([None, "adaptive"]))


@given(**LATTICE)
@settings(max_examples=200, deadline=None)
def test_scan_equals_reference_walk(**config):
    check(**config)


class WireTap:
    """Every plan fed to the one sweep loop, and every datagram the
    scanner itself puts on the wire (by destination)."""

    def __init__(self, world):
        self.plans = []
        self.wire = []
        network = world.network
        real_send = network.send_probe

        def counting_send(src_ip, src_port, dst_ip, dst_port, dst_int,
                          *args, **kwargs):
            if src_ip == world.client_ip:  # not the resolvers' upstream
                self.wire.append(dst_int)
            return real_send(src_ip, src_port, dst_ip, dst_port, dst_int,
                             *args, **kwargs)

        network.send_probe = counting_send

    def attach(self, scanner):
        real_sweep = scanner._sweep

        def recording_sweep(result, plan, **kwargs):
            plan = [(list(hot), cold, list(drops))
                    for hot, cold, drops in plan]
            self.plans.append(plan)
            return real_sweep(result, plan, **kwargs)

        scanner._sweep = recording_sweep

    @property
    def hot(self):
        return [value for plan in self.plans
                for hot_targets, __, __ in plan for value in hot_targets]

    @property
    def cold(self):
        return sum(cold_targets for plan in self.plans
                   for __, cold_targets, __ in plan)


def allowed_addresses(world):
    """What the scan may touch, one address at a time."""
    return {value for prefix in world.space.prefixes
            for value in range(prefix.base,
                               prefix.base + prefix.num_addresses)
            if not is_reserved(value) and value not in world.blacklist}


@given(**LATTICE)
@settings(max_examples=100, deadline=None)
def test_safety_invariants(cuts, probe_batch, chunk_rows, retries,
                           probe_timeout, timeout_margin, loss_rate,
                           faulted, recorded, hostile, pacing):
    world = build_world(loss_rate, faulted, recorded, hostile)
    tap = WireTap(world)
    merged = sweep(world, cuts, probe_batch, chunk_rows,
                   prepare=tap.attach, retries=retries,
                   probe_timeout=probe_timeout,
                   timeout_margin=timeout_margin, pacing=pacing)
    allowed = allowed_addresses(world)
    attempts = 1 + retries
    hot = tap.hot
    # Opted-out space enters no hot list, and — every allowed target
    # being planned exactly once — no cold tally either.
    assert set(hot) <= allowed
    assert len(hot) == len(set(hot))
    assert len(hot) + tap.cold == len(allowed)
    # Every datagram counted was sent or settled, within the budget.
    assert merged.probes_sent == len(tap.wire) + attempts * tap.cold
    assert merged.probes_sent <= attempts * len(allowed)
    assert set(tap.wire) <= set(hot)
    assert max(Counter(tap.wire).values()) <= attempts
    for plan in tap.plans:
        for __, cold_targets, drops in plan:
            assert all(0 <= count <= attempts * cold_targets
                       for __, count in drops)


def test_delta_audits_and_refreshes_never_probe_opted_out_space():
    # A delta week re-probes last week's responders through
    # scan_addresses; one static (audited) and one dynamic (refreshed)
    # responder opt out after the baseline sweep saw them.
    world = build_delta_world(static_hosts=6, dynamic_hosts=4)
    blacklist = Blacklist()
    campaign = ScanCampaign(
        world.network, world.churn,
        ScanTargetSpace(world.static_pools + [world.dynamic_pool]),
        world.client_ip, MEASUREMENT_DOMAIN, blacklist=blacklist,
        options=ScanOptions(retries=1, delta=DeltaConfig(
            audit_fraction=1.0, window_bits=26, drift_budget=0.99,
            min_audit_failures=1000)))
    baseline = campaign.run_week().result
    opted_out = [world.static_hosts[0].node.ip,
                 world.dynamic_hosts[0].node.ip]
    assert set(opted_out) <= baseline.responders
    for ip in opted_out:
        blacklist.add_address(ip)
    tap = WireTap(world)
    tap.attach(campaign.scanner)
    result = campaign.run_week().result
    summary = [entry for entry in result.provenance
               if entry.get("kind") == "delta"][0]
    assert summary["mode"] == "delta"       # not a sweep
    assert summary["audited"] and summary["refreshed"]
    assert tap.hot and tap.cold == 0
    assert not set(map(ip_to_int, opted_out)) & (set(tap.hot)
                                                 | set(tap.wire))
    assert result.probes_sent == len(tap.wire)
    assert max(Counter(tap.wire).values()) <= 2


class TestForkedShards:
    def test_fault_and_defense_counters_ride_back_equal(self):
        # Cold tallies are made inside each forked worker; what reaches
        # the parent's network must be what one process counts.
        def run(shards):
            world = build_world(0.2, True, False, True)
            perf = PerfRegistry()
            scanner = Ipv4Scanner(
                world.network, world.client_ip, MEASUREMENT_DOMAIN,
                blacklist=world.blacklist, perf=perf,
                options=ScanOptions(retries=2, pacing="adaptive"))
            result = ScanEngine(scanner, options=ScanOptions(shards=shards),
                                perf=perf).scan(world.space)
            seen = observed(world, result)
            del seen["pickle"]      # provenance names the work items
            # Resolver caches warm per process: the probed resolvers'
            # own upstream queries differ in number, nothing else.
            del seen["udp"]
            return (seen, result.canonical_columns(),
                    perf.counter("probes_bulk_settled"))

        solo = run(1)
        assert run(2) == solo
        assert solo[2] > 0
        assert {name.partition(":")[0] for name, __ in solo[0]["faults"]} \
            >= {"defense", "injected_loss"}


class TestNamedPoints:
    """Corners of the lattice worth a name (and a fast failure)."""

    def test_default_scan_bulk_settles(self):
        merged = check()
        assert merged.counts()["all"] == len(RESOLVERS) - 1  # 1 opted out

    def test_three_shards_under_loss_second_shard_is_all_hot(self):
        # The first range draws fates, so the network declines bulk
        # settlement for the later ones: both plans in one result.
        check(cuts=(30, 70), loss_rate=0.2, probe_batch=7)

    def test_everything_at_once(self):
        merged = check(cuts=(50,), probe_batch=64, chunk_rows=1,
                       retries=2, probe_timeout=0.05, timeout_margin=0.4,
                       loss_rate=0.2, faulted=True, recorded=True,
                       hostile=True, pacing="adaptive")
        assert merged.retransmissions > 0
        assert merged.suppressed_targets > 0

    def test_retries_under_a_fault_plan_bulk_settle(self):
        perf = PerfRegistry()
        merged = check(retries=2, faulted=True, perf=perf)
        assert perf.counter("probes_bulk_settled") > 0
        assert perf.counter("probes_bulk_settled") % 3 == 0
        assert merged.retransmissions > 0

    def test_paced_passes_behind_a_defense_bulk_settle(self):
        # The space is defended end to end: whatever settles in bulk
        # is a target whose pass verdict the pacing plan drew.
        perf = PerfRegistry()
        merged = check(hostile=True, pacing="adaptive", perf=perf)
        assert perf.counter("probes_bulk_settled") > 0
        assert merged.suppressed_targets > 0

    def test_unpaced_scan_of_defended_space_stays_on_the_wire(self):
        perf = PerfRegistry()
        check(hostile=True, perf=perf)
        assert perf.counter("probes_bulk_settled") == 0

    def test_overlapping_defenses_stay_on_the_wire(self):
        # Two boxes over one prefix: the plan drew only the first one's
        # verdict, so none of that prefix may leave the wire (the other
        # prefix is blocklisted outright — all signals, all hot).
        perf = PerfRegistry()
        check(hostile="overlapped", pacing="adaptive", retries=1,
              perf=perf)
        assert perf.counter("probes_bulk_settled") == 0

    def test_fault_occurrences_skip_attempts_baseline_loss_took(self):
        # The fault plan's occurrence counter only advances on attempts
        # that survived baseline loss; rate limiting keys on it.
        perf = PerfRegistry()
        check(loss_rate=0.2, faulted=True, retries=2, perf=perf)
        assert perf.counter("probes_bulk_settled") > 0

    def test_empty_range_is_an_empty_result(self):
        world = build_world(0.0, False, False, False)
        scanner = Ipv4Scanner(world.network, world.client_ip,
                              MEASUREMENT_DOMAIN)
        result = scanner.scan(world.space, index_range=(5, 5))
        assert pickle.dumps(result) == pickle.dumps(
            ScanResult(world.network.clock.now))
        assert world.network.udp_queries_sent == 0


class TestHeartbeat:
    def test_fires_at_least_once_per_1024_datagrams_sent(self):
        # One all-hot batch (the flight recorder keeps every probe on
        # the wire) of 320 unanswered targets at retries=3 is 1280
        # datagrams with no batch boundary in between: a per-batch
        # heartbeat would stay silent past the 1024 mark.
        world = build_world(0.0, False, True, False)
        tap = WireTap(world)
        beats = []
        scanner = Ipv4Scanner(world.network, world.client_ip,
                              MEASUREMENT_DOMAIN,
                              options=ScanOptions(retries=3))
        result = scanner.scan(
            world.space, on_progress=lambda: beats.append(len(tap.wire)))
        assert result.probes_sent == len(tap.wire) > 1024
        marks = [0] + beats + [len(tap.wire)]
        assert max(later - earlier
                   for earlier, later in zip(marks, marks[1:])) <= 1024

    @pytest.mark.parametrize("retries", [0, 2])
    def test_beat_count_tracks_datagrams(self, retries):
        world = build_world(0.0, False, False, False)
        beats = []
        scanner = Ipv4Scanner(world.network, world.client_ip,
                              MEASUREMENT_DOMAIN,
                              options=ScanOptions(retries=retries,
                                                  probe_batch=16))
        result = scanner.scan(world.space,
                              on_progress=lambda: beats.append(None))
        assert len(beats) == result.probes_sent // 1024
