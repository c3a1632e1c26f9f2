"""Tests for the sharded domain-scan engine.

The keystone assertion: the sharded domain scan's concatenated
observation list is *bit-identical* to the sequential
``DomainScanner.scan`` — every field of every observation, in the same
order — for the shard counts named in the acceptance criteria, on a
full scenario with middleboxes and injected loss.
"""

import pytest

from repro.datasets import DOMAIN_SETS
from repro.faults import FaultPlan, FaultProfile
from repro.netsim import SimClock
from repro.perf import PerfRegistry
from repro.scanner import DomainScanEngine, DomainScanner, ScanOptions
from repro.scanner.domainscan import DnsObservation
from repro.scenario import ScenarioConfig, build_scenario

SHARD_COUNTS = (1, 2, 4, 7)


def fingerprint(observations):
    """Every field of every observation, order-preserving."""
    return [(o.domain, o.resolver_ip, o.rcode, tuple(o.addresses),
             o.source_ip, o.ns_record_count,
             tuple((r, tuple(a)) for r, a in o.all_responses),
             o.injected_suspect)
            for o in observations]


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

    def install_faults(self, plan):
        self.faults = plan
        return plan


class FakeDomainScanner:
    """Deterministic double: answers for every even resolver index."""

    supports_progress = True

    def __init__(self):
        self.network = FakeNetwork()
        self.perf = None
        self.queries_sent = 0
        self.scan_calls = []          # (start, stop) of every scan issued

    def scan(self, resolver_ips, domains, index_range=None,
             on_progress=None):
        resolver_ips = list(resolver_ips)
        start, stop = (index_range if index_range is not None
                       else (0, len(resolver_ips)))
        self.scan_calls.append((start, stop))
        observations = []
        for resolver_id in range(start, stop):
            for domain in domains:
                self.queries_sent += 1
                self.network.udp_queries_sent += 1
                if resolver_id % 2 == 0:
                    observations.append(DnsObservation(
                        domain, resolver_ips[resolver_id], 0,
                        ["198.18.0.%d" % resolver_id]))
            if on_progress is not None:
                on_progress()
        return observations


RESOLVERS = ["10.0.0.%d" % i for i in range(10)]
DOMAINS = ["a.example", "b.example"]


def make_engine(scanner, shards, **kwargs):
    return DomainScanEngine(scanner, options=ScanOptions(shards=shards),
                            **kwargs)


class TestShardRanges:
    def test_partitions_every_index_once(self):
        for shards in (1, 2, 3, 7, 16):
            engine = make_engine(FakeDomainScanner(), shards)
            covered = []
            for start, stop in engine.shard_ranges(10):
                assert start < stop
                covered.extend(range(start, stop))
            assert covered == list(range(10))


class TestForkPlumbing:
    def test_sharded_identical_to_sequential(self):
        sequential = FakeDomainScanner().scan(RESOLVERS, DOMAINS)
        for shards in SHARD_COUNTS:
            engine = make_engine(FakeDomainScanner(), shards)
            assert fingerprint(engine.scan(RESOLVERS, DOMAINS)) \
                == fingerprint(sequential), shards

    def test_single_shard_runs_in_process(self):
        scanner = FakeDomainScanner()
        engine = make_engine(scanner, 1)
        engine.scan(RESOLVERS, DOMAINS)
        assert scanner.scan_calls == [(0, len(RESOLVERS))]
        assert engine.provenance == []

    def test_queries_sent_reconciled_from_workers(self):
        scanner = FakeDomainScanner()
        engine = make_engine(scanner, 4)
        engine.scan(RESOLVERS, DOMAINS)
        # Worker-side increments die with the fork; the parent counter
        # must still account for every query of every shard.
        assert scanner.queries_sent == len(RESOLVERS) * len(DOMAINS)
        # All work happened in forked workers, not the parent loop.
        assert scanner.scan_calls == []

    def test_provenance_covers_all_shards(self):
        engine = make_engine(FakeDomainScanner(), 3)
        engine.scan(RESOLVERS, DOMAINS)
        assert [e["status"] for e in engine.provenance] == ["ok"] * 3
        assert [(e["start"], e["stop"]) for e in engine.provenance] \
            == engine.shard_ranges(len(RESOLVERS))

    def test_heartbeats_seen(self):
        perf = PerfRegistry()
        engine = make_engine(FakeDomainScanner(), 2, perf=perf,
                             heartbeat_timeout=30.0)
        engine.scan(RESOLVERS, DOMAINS)
        # One heartbeat per resolver, minus the final one per worker
        # when it coalesces with the result frame in a single read.
        assert perf.counter("heartbeats_seen") > 0

    def test_perf_counters_ride_back(self):
        perf = PerfRegistry()
        engine = make_engine(FakeDomainScanner(), 2, perf=perf)
        engine.scan(RESOLVERS, DOMAINS)
        assert perf.counter("domain_scans_run") == 1
        assert perf.seconds("domain_scan_wall") > 0
        assert perf.seconds("shard_wall") > 0


class TestDeathRecovery:
    def test_killed_worker_retried(self):
        scanner = FakeDomainScanner()
        scanner.network.install_faults(
            FaultPlan(FaultProfile(kill_shards={1: 1}), seed=1))
        sequential = FakeDomainScanner().scan(RESOLVERS, DOMAINS)
        perf = PerfRegistry()
        engine = make_engine(scanner, 3, perf=perf)
        observations = engine.scan(RESOLVERS, DOMAINS)
        assert fingerprint(observations) == fingerprint(sequential)
        assert perf.counter("worker_deaths") == 1
        assert perf.counter("shard_retries") == 1
        statuses = sorted(e["status"] for e in engine.provenance)
        assert statuses == ["ok", "ok", "retried"]
        # The retry ran in a fresh worker, not in the parent process.
        assert scanner.scan_calls == []

    def test_repeated_deaths_rescued_in_process(self):
        scanner = FakeDomainScanner()
        scanner.network.install_faults(
            FaultPlan(FaultProfile(kill_shards={0: 99}), seed=1))
        sequential = FakeDomainScanner().scan(RESOLVERS, DOMAINS)
        perf = PerfRegistry()
        engine = make_engine(scanner, 2, perf=perf)
        observations = engine.scan(RESOLVERS, DOMAINS)
        assert fingerprint(observations) == fingerprint(sequential)
        assert perf.counter("shard_failures") == 1
        rescued = [e for e in engine.provenance
                   if e["status"] == "rescued"]
        assert rescued and all(e["mode"] == "in-process" for e in rescued)
        # Rescues stayed narrow: only the split halves of shard 0 ran in
        # the parent, never the full resolver list.
        full = (0, len(RESOLVERS))
        assert scanner.scan_calls and full not in scanner.scan_calls


@pytest.fixture(scope="module")
def scanned_world():
    """A small full scenario plus its sequential baseline scan."""
    scenario = build_scenario(ScenarioConfig(scale=120000, seed=5))
    resolvers = sorted(scenario.online_resolver_ips())[:24]
    domains = [d.name for d in DOMAIN_SETS["Banking"]] \
        + [d.name for d in DOMAIN_SETS["NX"]]
    scanner = DomainScanner(scenario.network,
                            scenario.pipeline_source_ip)
    # Flow-keyed fates are per clock epoch: each scan starts on a fresh
    # tick (the campaign normally advances the clock between scans).
    scenario.network.clock.advance(1)
    baseline = fingerprint(scanner.scan(resolvers, domains))
    # The scan must be replayable before shard comparisons mean
    # anything: warm caches from the first pass must not change answers.
    scenario.network.clock.advance(1)
    assert fingerprint(scanner.scan(resolvers, domains)) == baseline
    return scenario, resolvers, domains, baseline


class TestEngineOnScenario:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_sharded_scan_bit_identical(self, scanned_world, shards):
        scenario, resolvers, domains, baseline = scanned_world
        scanner = DomainScanner(scenario.network,
                                scenario.pipeline_source_ip)
        engine = make_engine(scanner, shards)
        scenario.network.clock.advance(1)
        assert fingerprint(engine.scan(resolvers, domains)) == baseline

    def test_sharded_scan_under_loss(self, scanned_world):
        # Injected loss draws are flow-keyed, so even lossy scans must
        # replay identically across shard counts.
        scenario, resolvers, domains, __ = scanned_world
        scenario.network.install_faults(
            FaultPlan(FaultProfile(loss_rate=0.2), seed=9))
        try:
            scanner = DomainScanner(scenario.network,
                                    scenario.pipeline_source_ip)
            scenario.network.clock.advance(1)
            lossy_baseline = fingerprint(scanner.scan(resolvers, domains))
            engine = make_engine(scanner, 4)
            scenario.network.clock.advance(1)
            assert fingerprint(engine.scan(resolvers, domains)) \
                == lossy_baseline
        finally:
            scenario.network.install_faults(None)

    @pytest.mark.parametrize("shards", (1, 2))
    def test_injected_faults_reach_perf(self, scanned_world, shards):
        # ``--perf`` must show the domain scan's share of the injected
        # faults, forked or not — the flush both engines share.
        scenario, resolvers, domains, __ = scanned_world
        network = scenario.network
        network.install_faults(FaultPlan(FaultProfile(loss_rate=0.2),
                                         seed=9))
        try:
            perf = PerfRegistry()
            engine = make_engine(
                DomainScanner(network, scenario.pipeline_source_ip),
                shards, perf=perf)
            network.clock.advance(1)
            before = network.fault_counters.get("injected_loss", 0)
            engine.scan(resolvers, domains)
            moved = network.fault_counters["injected_loss"] - before
            assert moved > 0
            assert perf.counter("fault_injected_loss") == moved
        finally:
            network.install_faults(None)
