"""Tests for the sharded scan engine.

The keystone assertion: a sharded scan's merged result is *identical* to
a sequential scan — same counts, responders, divergent sources, and
probe count — on a full scenario with middleboxes and packet loss.
"""

import pytest

from repro.netsim import SimClock
from repro.scanner import ScanEngine, ScanOptions, ScanTargetSpace
from repro.scanner.ipv4scan import ScanResult, merge_scan_results
from repro.inetmodel import PrefixAllocator
from repro.perf import PerfRegistry
from repro.scenario import ScenarioConfig, build_scenario


class FakeNetwork:
    def __init__(self):
        self.clock = SimClock()
        self.udp_queries_sent = 0
        self.udp_queries_lost = 0
        self.udp_responses_corrupted = 0
        self.faults = None
        self.fault_counters = {}
        self.tracer = None
        self.recorder = None


class FakeScanner:
    """Deterministic scanner double: 'responds' on every third index."""

    supports_progress = False

    def __init__(self):
        self.network = FakeNetwork()
        self.perf = None

    def prewarm(self, target_space):
        """Nothing to build before the fork."""

    def scan(self, target_space, index_range=None):
        start, stop = (index_range if index_range is not None
                       else (0, len(target_space)))
        result = ScanResult(self.network.clock.now)
        for index in range(start, stop):
            result.probes_sent += 1
            self.network.udp_queries_sent += 1
            if index % 3 == 0:
                ip = target_space.ip_at(index)
                result.record(ip, index % 2, ip)
        return result


def fake_space():
    return ScanTargetSpace([PrefixAllocator().allocate(24)])


class TestShardRanges:
    def test_partitions_every_index_once(self):
        space = fake_space()
        for shards in (1, 2, 3, 7, 16):
            ranges = space.shard_ranges(shards)
            covered = []
            for start, stop in ranges:
                assert start < stop
                covered.extend(range(start, stop))
            assert covered == list(range(len(space)))

    def test_small_space_yields_fewer_ranges(self):
        space = ScanTargetSpace([PrefixAllocator().allocate(30)])
        ranges = space.shard_ranges(16)
        assert len(ranges) == len(space) == 4
        assert ranges == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            fake_space().shard_ranges(0)


class TestMerge:
    def test_merge_equals_whole(self):
        scanner = FakeScanner()
        space = fake_space()
        whole = scanner.scan(space)
        parts = [scanner.scan(space, index_range=r)
                 for r in space.shard_ranges(5)]
        merged = merge_scan_results(0.0, parts)
        assert merged.probes_sent == whole.probes_sent
        assert merged.responders == whole.responders
        assert merged.by_rcode == whole.by_rcode
        assert merged.counts() == whole.counts()


class TestEngineForkPlumbing:
    def test_forked_matches_sequential(self):
        space = fake_space()
        sequential = FakeScanner().scan(space)
        engine = ScanEngine(FakeScanner(), options=ScanOptions(shards=4))
        assert engine.can_fork
        result = engine.scan(space)
        assert result.probes_sent == sequential.probes_sent
        assert result.responders == sequential.responders
        assert result.by_rcode == sequential.by_rcode

    def test_counter_deltas_reconciled(self):
        space = fake_space()
        engine = ScanEngine(FakeScanner(), options=ScanOptions(shards=4))
        engine.scan(space)
        # Workers cannot mutate the parent; the engine must apply their
        # traffic-counter deltas explicitly.
        assert engine.scanner.network.udp_queries_sent == len(space)

    def test_no_fork_fallback(self, monkeypatch):
        monkeypatch.setattr(ScanEngine, "can_fork", property(lambda s: False))
        space = fake_space()
        sequential = FakeScanner().scan(space)
        result = ScanEngine(
            FakeScanner(), options=ScanOptions(shards=4)).scan(space)
        assert result.responders == sequential.responders
        assert result.probes_sent == sequential.probes_sent

    def test_dead_workers_rescanned_in_process(self, monkeypatch):
        import repro.scanner.engine as engine_mod

        def broken_dumps(*args, **kwargs):
            raise RuntimeError("worker serialization broke")

        monkeypatch.setattr(engine_mod.pickle, "dumps", broken_dumps)
        space = fake_space()
        sequential = FakeScanner().scan(space)
        perf = PerfRegistry()
        engine = ScanEngine(FakeScanner(), options=ScanOptions(shards=3),
                            perf=perf)
        result = engine.scan(space)
        assert result.responders == sequential.responders
        assert result.probes_sent == sequential.probes_sent
        assert perf.counter("shard_failures") == 3

    def test_perf_instrumentation(self):
        perf = PerfRegistry()
        engine = ScanEngine(FakeScanner(), options=ScanOptions(shards=2),
                            perf=perf)
        engine.scan(fake_space())
        assert perf.counter("scans_run") == 1
        assert perf.seconds("scan_wall") > 0


class TestEngineOnScenario:
    """The acceptance check: sharded == sequential on the real scenario,
    with the default loss rate and all middleboxes active."""

    SCALE = 60000
    SEED = 3

    def _week(self, shards):
        scenario = build_scenario(ScenarioConfig(scale=self.SCALE,
                                                 seed=self.SEED))
        campaign = scenario.new_campaign(verify=False, shards=shards)
        return campaign.run_week().result

    def test_sharded_scan_identical_to_sequential(self):
        sequential = self._week(shards=1)
        sharded = self._week(shards=3)
        assert sharded.counts() == sequential.counts()
        assert sharded.responders == sequential.responders
        assert sharded.divergent_sources == sequential.divergent_sources
        assert sharded.by_rcode == sequential.by_rcode
        assert sharded.probes_sent == sequential.probes_sent
