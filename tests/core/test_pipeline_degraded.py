"""Pipeline degradation: partial reports instead of raised exceptions."""

import pytest

from repro.core.pipeline import ManipulationPipeline, PipelineReport
from repro.datasets import ScanDomain
from repro.faults import FaultPlan, FaultProfile
from repro.inetmodel import AsRegistry, AutonomousSystem
from repro.resolvers import ResolverNode, StaticIpBehavior


@pytest.fixture
def world(mini):
    """A small world: one honest and one misdirecting resolver."""
    mini.web_ip = mini.infra.address_at(40020)
    mini.add_web_domain("site.example", mini.web_ip, category="Alexa")
    foreign = mini.allocator.allocate(24)
    mini.dead_ip = foreign.address_at(9)   # no server listens here
    mini.resolver_ips = {}
    for name, behaviors in (
            ("honest", []),
            ("misdirect", [StaticIpBehavior(mini.dead_ip)])):
        ip = mini.infra.address_at(41000 + len(mini.resolver_ips))
        mini.network.register(ResolverNode(
            ip, resolution_service=mini.service, behaviors=behaviors))
        mini.resolver_ips[name] = ip
    registry = AsRegistry()
    registry.add(AutonomousSystem(64500, "Infra", "US",
                                  prefixes=[mini.infra]))
    mini.registry = registry
    mini.catalog = [ScanDomain("site.example", "Alexa")]
    return mini


def make_pipeline(world, **kwargs):
    return ManipulationPipeline(
        world.network, world.service, world.registry, world.rdns,
        world.ca, known_cdn_common_names=(), source_ip=world.client_ip,
        domain_catalog=world.catalog, **kwargs)


def add_fake_sites(world, count=2):
    """Resolvers that misdirect to live servers with distinct bodies,
    so the pipeline reaches clustering with real captures."""
    from repro.websim.httpserver import StaticPageServer
    foreign = world.allocator.allocate(24)
    resolver_ips = []
    for i in range(count):
        server_ip = foreign.address_at(20 + i)
        world.network.register(StaticPageServer(
            server_ip,
            "<html><title>Fake %d</title><body>%s</body></html>"
            % (i, "lorem ipsum " * (i + 1))))
        resolver_ip = world.infra.address_at(41010 + i)
        world.network.register(ResolverNode(
            resolver_ip, resolution_service=world.service,
            behaviors=[StaticIpBehavior(server_ip)]))
        resolver_ips.append(resolver_ip)
    return resolver_ips


class TestReportDegradation:
    def test_clean_run_not_degraded(self, world):
        pipeline = make_pipeline(world)
        report = pipeline.run(list(world.resolver_ips.values()),
                              world.catalog)
        assert not report.is_degraded
        assert report.degraded == []

    def test_mark_degraded_provenance(self):
        report = PipelineReport()
        assert not report.is_degraded
        report.mark_degraded("acquisition", "boom")
        assert report.is_degraded
        assert report.degraded == [{"stage": "acquisition",
                                    "reason": "boom"}]

    def test_scan_failure_yields_partial_report(self, world):
        pipeline = make_pipeline(world)

        class BrokenScanner:
            queries_sent = 0

            def scan(self, resolver_ips, names):
                raise RuntimeError("scan socket exploded")

        pipeline.scanner = BrokenScanner()
        report = pipeline.run(list(world.resolver_ips.values()),
                              world.catalog)
        assert report.is_degraded
        assert report.degraded[0]["stage"] == "domain_scan"
        assert "exploded" in report.degraded[0]["reason"]
        assert report.observations == []
        assert report.http_captures == []
        assert report.clusters == []

    def test_prefilter_failure_leaves_an_empty_prefilter(self, world):
        from repro.analysis.manipulation import prefilter_summary
        pipeline = make_pipeline(world)

        def broken_process(observations, domain_catalog):
            raise RuntimeError("prefilter rules crashed")

        pipeline.prefilterer.process = broken_process
        report = pipeline.run(list(world.resolver_ips.values()),
                              world.catalog)
        assert report.degraded == [
            {"stage": "prefilter",
             "reason": repr(RuntimeError("prefilter rules crashed"))}]
        # The later stages ran (on nothing to acquire), and the report's
        # consumers meet an empty prefilter, not ``None``.
        assert len(report.observations) == 2
        assert report.ground_truth_bodies
        assert report.http_captures == [] and report.labeled == []
        summary = prefilter_summary(report)
        assert summary["observations"] == 0
        assert summary["unknown_tuples"] == 0
        # A restored commit of the failed stage installs the same way.
        report.install("prefilter", None)
        assert prefilter_summary(report) == summary

    def test_acquisition_failure_keeps_prefilter(self, world):
        pipeline = make_pipeline(world)

        def broken_acquire(tuples, domain_catalog=None):
            raise RuntimeError("acquire blew up")

        pipeline.acquirer.acquire = broken_acquire
        report = pipeline.run(list(world.resolver_ips.values()),
                              world.catalog)
        stages = {entry["stage"] for entry in report.degraded}
        assert stages == {"acquisition"}
        assert report.prefilter is not None
        assert len(report.observations) == 2
        assert report.http_captures == []

    def test_clustering_failure_yields_partial_report(self, world):
        pipeline = make_pipeline(world)

        def broken_distance(a, b):
            raise RuntimeError("distance matrix corrupt")

        pipeline.distance = broken_distance
        resolvers = list(world.resolver_ips.values()) \
            + add_fake_sites(world)
        report = pipeline.run(resolvers, world.catalog)
        stages = [entry["stage"] for entry in report.degraded]
        assert "clustering" in stages
        assert report.clusters == []
        assert report.dendrogram is None
        # The chain kept going: captures survive, labeling ran on the
        # (empty) cluster list instead of raising.
        assert report.http_captures
        assert report.labeled == []

    def test_labeling_failure_yields_partial_report(self, world):
        import repro.core.pipeline as pipeline_module
        pipeline = make_pipeline(world)

        class BrokenLabeler:
            def __init__(self, ground_truth_bodies):
                pass

            def label_clusters(self, clusters):
                raise RuntimeError("labeler heuristics crashed")

        resolvers = list(world.resolver_ips.values()) \
            + add_fake_sites(world)
        original = pipeline_module.ClusterLabeler
        pipeline_module.ClusterLabeler = BrokenLabeler
        try:
            report = pipeline.run(resolvers, world.catalog)
        finally:
            pipeline_module.ClusterLabeler = original
        stages = [entry["stage"] for entry in report.degraded]
        assert "labeling" in stages
        assert report.labeled == []
        assert report.diff_clusters == []
        # Everything upstream of labeling survived intact.
        assert report.clusters
        assert report.prefilter is not None

    def test_ground_truth_failure_still_labels(self, world):
        pipeline = make_pipeline(world)
        pipeline.collect_ground_truth = \
            lambda domains: (_ for _ in ()).throw(RuntimeError("gt down"))
        report = pipeline.run(list(world.resolver_ips.values()),
                              world.catalog)
        stages = {entry["stage"] for entry in report.degraded}
        assert stages == {"ground_truth"}
        assert report.ground_truth_bodies == {}


class TestErrorBudget:
    def test_budget_exhaustion_marks_degraded(self, world):
        # Every misdirected tuple points at a dead IP -> unreachable
        # fetches; a zero budget trips after the first one.
        pipeline = make_pipeline(world, error_budget=0)
        report = pipeline.run(list(world.resolver_ips.values()),
                              world.catalog)
        assert pipeline.acquirer.budget_exhausted
        stages = [entry["stage"] for entry in report.degraded]
        assert "acquisition" in stages
        unreachable = [c for c in report.failed_captures
                       if c.failure == "unreachable"]
        assert len(unreachable) == 1

    def test_generous_budget_not_exhausted(self, world):
        pipeline = make_pipeline(world, error_budget=50)
        report = pipeline.run(list(world.resolver_ips.values()),
                              world.catalog)
        assert not pipeline.acquirer.budget_exhausted
        assert not report.is_degraded

    def test_budget_skips_remaining_tuples(self, world):
        from repro.core.prefilter import ResponseTuple
        pipeline = make_pipeline(world, error_budget=0)
        tuples = [ResponseTuple("site.example", world.dead_ip,
                                world.resolver_ips["misdirect"])
                  for __ in range(5)]
        http, __ = pipeline.acquirer.acquire(tuples, {})
        failures = [capture.failure for capture in http]
        assert failures[0] == "unreachable"
        # The cache would normally reuse the unreachable result; budget
        # exhaustion short-circuits before any network access.
        assert all(f in ("unreachable", "budget") for f in failures[1:])
        assert pipeline.acquirer.budget_exhausted


class TestFetchTimeout:
    def test_tcp_stalls_fail_bounded_fetches(self, world):
        world.network.install_faults(FaultPlan(
            FaultProfile(tcp_hang_rate=1.0, tcp_stall_seconds=600.0),
            seed=2))
        pipeline = make_pipeline(world, fetch_timeout=5.0)
        report = pipeline.run(list(world.resolver_ips.values()),
                              world.catalog)
        # Every fetch stalls past the timeout: nothing fetched, yet the
        # pipeline still completes and reports.
        assert report.http_captures == []
        assert world.network.fault_counters.get("tcp_hang", 0) > 0

    def test_unbounded_fetch_absorbs_stalls(self, world):
        world.network.install_faults(FaultPlan(
            FaultProfile(tcp_hang_rate=1.0, tcp_stall_seconds=600.0),
            seed=2))
        pipeline = make_pipeline(world)   # no fetch_timeout
        report = pipeline.run(list(world.resolver_ips.values()),
                              world.catalog)
        assert world.network.fault_counters.get("tcp_stall_absorbed",
                                                0) > 0
        assert not report.is_degraded
