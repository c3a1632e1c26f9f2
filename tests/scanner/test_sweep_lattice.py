"""One invariant over the whole configuration lattice of the sweep.

However the work is cut — index-range shards, probe batches, streamed
chunks — and whatever rides along — retries, probe timeouts, baseline
loss, a fault plan, the flight recorder, hostile defenses with adaptive
pacing — ``Ipv4Scanner.scan`` must produce exactly what the per-target
reference walk (:func:`tests.oracles.reference_sweep`) produces on a
twin world: the same canonical result bytes, the same probe and
retransmission counts, the same suppressed windows, and the same
network, fault and flight-recorder counters.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan
from repro.netsim.defense import ReactiveBlocklister, TokenBucketRateLimiter
from repro.obs import FlightRecorder
from repro.resolvers import ResolverNode
from repro.resolvers.resolver import MODE_REFUSED, MODE_SERVFAIL
from repro.scanner import Blacklist, Ipv4Scanner, ScanTargetSpace
from repro.scanner.ipv4scan import ScanResult, merge_scan_results
from tests.conftest import MiniWorld
from tests.oracles import reference_sweep

MEASUREMENT_DOMAIN = "scan.dnsstudy.edu"
RESOLVERS = ((0, 1, {}), (0, 2, {"response_mode": MODE_REFUSED}),
             (0, 77, {"response_mode": MODE_SERVFAIL}), (0, 200, {}),
             (1, 3, {}), (1, 40, {}), (1, 41, {}))


def build_world(loss_rate, faulted, recorded, hostile):
    """A deterministic two-prefix scan world; twins are byte-equal."""
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


def sweep(world, cuts, probe_batch, chunk_rows, **probe_config):
    """The production scan, cut into index ranges and (optionally)
    streamed in chunks, merged the way the engine merges shards."""
    scanner = Ipv4Scanner(world.network, world.client_ip,
                          MEASUREMENT_DOMAIN, blacklist=world.blacklist,
                          probe_batch=probe_batch, **probe_config)
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
          faulted=False, recorded=False, hostile=False, pacing=None):
    probe_config = {"retries": retries, "probe_timeout": probe_timeout,
                    "timeout_margin": timeout_margin, "pacing": pacing}
    world = build_world(loss_rate, faulted, recorded, hostile)
    merged = sweep(world, cuts, probe_batch, chunk_rows, **probe_config)
    twin = build_world(loss_rate, faulted, recorded, hostile)
    reference = reference_sweep(
        twin.network, twin.client_ip, MEASUREMENT_DOMAIN, twin.space,
        blacklist=twin.blacklist, **probe_config)
    assert observed(world, merged) == observed(twin, reference)
    return merged


@given(cuts=st.lists(st.integers(0, 100), max_size=2),
       probe_batch=st.sampled_from([1, 7, 64, 4096]),
       chunk_rows=st.sampled_from([None, 1, 3, 65536]),
       retries=st.sampled_from([0, 1, 2]),
       probe_timeout=st.sampled_from([None, 0.05, 0.3]),
       # Below 1 the floor undercuts the round trip: late responses.
       timeout_margin=st.sampled_from([1.25, 0.4]),
       loss_rate=st.sampled_from([0.0, 0.2]),
       faulted=st.booleans(), recorded=st.booleans(),
       hostile=st.booleans(),
       pacing=st.sampled_from([None, "adaptive"]))
@settings(max_examples=200, deadline=None)
def test_scan_equals_reference_walk(**config):
    check(**config)


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
        # One all-hot batch of 320 unanswered targets at retries=3 is
        # 1280 datagrams with no batch boundary in between: a per-batch
        # heartbeat would stay silent past the 1024 mark.
        world = build_world(0.0, False, False, False)
        network = world.network
        sends = []
        beats = []
        real_send = network.send_probe

        def counting_send(src_ip, *args, **kwargs):
            if src_ip == world.client_ip:  # not the resolvers' upstream
                sends.append(None)
            return real_send(src_ip, *args, **kwargs)

        network.send_probe = counting_send
        scanner = Ipv4Scanner(network, world.client_ip,
                              MEASUREMENT_DOMAIN, retries=3,
                              probe_batch=4096)
        result = scanner.scan(world.space,
                              on_progress=lambda: beats.append(len(sends)))
        assert result.probes_sent == len(sends) > 1024
        marks = [0] + beats + [len(sends)]
        assert max(later - earlier
                   for earlier, later in zip(marks, marks[1:])) <= 1024

    @pytest.mark.parametrize("retries", [0, 2])
    def test_beat_count_tracks_datagrams(self, retries):
        world = build_world(0.0, False, False, False)
        beats = []
        scanner = Ipv4Scanner(world.network, world.client_ip,
                              MEASUREMENT_DOMAIN, retries=retries,
                              probe_batch=16)
        result = scanner.scan(world.space,
                              on_progress=lambda: beats.append(None))
        assert len(beats) == result.probes_sent // 1024
