"""Stage-boundary kill/resume equivalence for the classification pipeline.

Mirrors ``test_resume_equivalence`` for :class:`ManipulationPipeline`:
crash the run at every stage boundary, resume it in a fresh process
(fresh world, fresh pipeline), and require the final
:class:`PipelineReport`, traffic counters, and clock to be bit-identical
to a never-interrupted, never-checkpointed run.
"""

import pytest

from repro.checkpoint import CheckpointedRun
from repro.core.pipeline import ManipulationPipeline
from repro.datasets import ScanDomain
from repro.faults import FaultPlan, FaultProfile, InjectedCrash
from repro.inetmodel import AsRegistry, AutonomousSystem
from repro.perf import PerfRegistry
from repro.resolvers import (
    CensorshipBehavior,
    ProxyAllBehavior,
    ResolverNode,
    StaticIpBehavior,
)
from repro.scanner import ScanOptions
from repro.websim import TransparentProxy, WebServer
from repro.websim.httpserver import StaticPageServer
from repro.websim.pages import censorship_landing
from tests.checkpoint.test_resume_equivalence import curated_counters
from tests.conftest import MiniWorld

STAGES = ("domain_scan", "prefilter", "ground_truth", "acquisition",
          "clustering", "labeling")


def build_pipeline_world(perf=None, shards=1):
    """The hand-built manipulation world from tests/core/test_pipeline,
    as a function so every process incarnation rebuilds it identically."""
    mini = MiniWorld()
    mini.web_ip = mini.infra.address_at(40020)
    mini.add_web_domain("blocked.example", mini.web_ip, category="Alexa")
    mini.add_web_domain("normal.example",
                        mini.infra.address_at(40021), category="Misc")
    foreign = mini.allocator.allocate(24)
    mini.landing_ip = foreign.address_at(1)
    mini.network.register(StaticPageServer(mini.landing_ip,
                                           censorship_landing("TR")))
    mini.proxy_ip = foreign.address_at(2)
    mini.network.register(TransparentProxy(mini.proxy_ip, mini.sites))
    mini.error_ip = foreign.address_at(3)
    mini.network.register(WebServer(mini.error_ip, mini.sites,
                                    ["unrelated.example"], https=False))
    mini.resolver_ips = {}
    for name, behaviors in (
            ("honest", []),
            ("censor", [CensorshipBehavior(["blocked.example"],
                                           [mini.landing_ip])]),
            ("proxy", [ProxyAllBehavior([mini.proxy_ip])]),
            ("misdirect", [StaticIpBehavior(mini.error_ip)])):
        ip = mini.infra.address_at(41000 + len(mini.resolver_ips))
        mini.network.register(ResolverNode(
            ip, resolution_service=mini.service, behaviors=behaviors))
        mini.resolver_ips[name] = ip
    registry = AsRegistry()
    registry.add(AutonomousSystem(64500, "Infra", "US",
                                  prefixes=[mini.infra]))
    mini.catalog = [ScanDomain("blocked.example", "Alexa"),
                    ScanDomain("normal.example", "Misc")]
    mini.pipeline = ManipulationPipeline(
        mini.network, mini.service, registry, mini.rdns, mini.ca,
        known_cdn_common_names=(), source_ip=mini.client_ip,
        domain_catalog=mini.catalog, perf=perf,
        options=ScanOptions(shards=shards))
    return mini


def observation_key(observation):
    return (observation.domain, observation.resolver_ip,
            observation.rcode, tuple(observation.addresses),
            observation.source_ip, observation.injected_suspect,
            observation.ns_record_count)


def capture_key(capture):
    return (capture.key(), capture.status, capture.body, capture.scheme,
            tuple(capture.redirects), capture.failure, capture.final_host)


def report_fingerprint(report):
    prefilter = report.prefilter
    return {
        "observations": sorted(observation_key(o)
                               for o in report.observations),
        "prefilter": None if prefilter is None else {
            "legitimate": len(prefilter.legitimate),
            "unknown": len(prefilter.unknown),
            "empty": len(prefilter.empty),
            "nx_correct": prefilter.nx_correct,
            "errors": len(prefilter.errors),
            "unknown_keys": sorted(t.key() for t in prefilter.unknown),
        },
        "http_captures": sorted(capture_key(c)
                                for c in report.http_captures),
        "mail_captures": sorted(
            (c.domain, c.ip, c.resolver_ip, tuple(c.banners))
            for c in report.mail_captures),
        "failed_captures": sorted(capture_key(c)
                                  for c in report.failed_captures),
        "clusters": sorted(tuple(sorted(c.key() for c in cluster.items))
                           for cluster in report.clusters),
        "dendrogram": (report.dendrogram.merges
                       if report.dendrogram is not None else None),
        "labeled": sorted((l.capture.key(), l.label, l.sublabel,
                           l.cluster_id) for l in report.labeled),
        "diff_clusters": sorted(
            tuple(sorted((p.capture.key(), p.similarity_to_truth,
                          sorted(p.added.items()),
                          sorted(p.removed.items()))
                         for p in cluster.items))
            for cluster in report.diff_clusters),
        "ground_truth_bodies": report.ground_truth_bodies,
        "degraded": report.degraded,
    }


def run_clean_pipeline():
    perf = PerfRegistry()
    world = build_pipeline_world(perf=perf)
    report = world.pipeline.run(list(world.resolver_ips.values()),
                                world.catalog)
    return report, perf, world


def run_pipeline_until_done(directory, plan, max_restarts=8):
    crashes = 0
    for attempt in range(max_restarts):
        perf = PerfRegistry()
        world = build_pipeline_world(perf=perf)
        checkpoint = CheckpointedRun(directory, meta={"stages": STAGES},
                                     resume=attempt > 0, fault_plan=plan)
        try:
            report = world.pipeline.run(
                list(world.resolver_ips.values()), world.catalog,
                checkpoint=checkpoint)
        except InjectedCrash:
            crashes += 1
            checkpoint.close()
            continue
        provenance = checkpoint.provenance
        checkpoint.close()
        return report, perf, world, provenance, crashes
    raise AssertionError("pipeline did not finish in %d restarts"
                         % max_restarts)


def assert_pipelines_identical(clean, resumed):
    clean_report, clean_perf, clean_world = clean
    resumed_report, resumed_perf, resumed_world = resumed
    assert report_fingerprint(resumed_report) == \
        report_fingerprint(clean_report)
    assert resumed_world.clock.now == clean_world.clock.now
    for name in ("udp_queries_sent", "udp_queries_lost",
                 "udp_responses_corrupted"):
        assert getattr(resumed_world.network, name) == \
            getattr(clean_world.network, name), name
    assert curated_counters(resumed_perf) == curated_counters(clean_perf)


class TestPipelineResume:
    @pytest.mark.parametrize("stage", STAGES)
    def test_crash_at_every_stage_boundary(self, tmp_path, stage):
        clean = run_clean_pipeline()
        plan = FaultPlan(FaultProfile(crash_points=("stage:%s" % stage,)),
                         seed=3)
        report, perf, world, provenance, crashes = \
            run_pipeline_until_done(str(tmp_path / "ckpt"), plan)
        assert crashes == 1
        assert provenance["resumed"] is True
        assert provenance["units_restored"] == STAGES.index(stage) + 1
        assert_pipelines_identical(clean, (report, perf, world))

    def test_torn_write_at_stage_commit(self, tmp_path):
        clean = run_clean_pipeline()
        # Sequence 2 is the ground_truth stage's commit record.
        plan = FaultPlan(FaultProfile(torn_points=(2,)), seed=3)
        report, perf, world, provenance, crashes = \
            run_pipeline_until_done(str(tmp_path / "ckpt"), plan)
        assert crashes == 1
        assert provenance["journal_records_quarantined"] == 1
        assert_pipelines_identical(clean, (report, perf, world))

    def test_uninterrupted_checkpointed_run_matches_clean(self, tmp_path):
        clean = run_clean_pipeline()
        report, perf, world, provenance, crashes = \
            run_pipeline_until_done(str(tmp_path / "ckpt"), plan=None)
        assert crashes == 0
        assert provenance["resumed"] is False
        assert_pipelines_identical(clean, (report, perf, world))
