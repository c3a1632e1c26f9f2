"""End-to-end tests of the manipulation pipeline on a hand-built world."""

import pytest

from repro.core.pipeline import ManipulationPipeline
from repro.datasets import ScanDomain
from repro.core.labeling import (
    LABEL_CENSORSHIP,
    LABEL_HTTP_ERROR,
    LABEL_MISC,
    SUBLABEL_PROXY,
)
from repro.inetmodel import AsRegistry, AutonomousSystem
from repro.resolvers import (
    CensorshipBehavior,
    ProxyAllBehavior,
    ResolverNode,
    StaticIpBehavior,
)
from repro.websim import TransparentProxy
from repro.websim.httpserver import StaticPageServer
from repro.websim.pages import censorship_landing


@pytest.fixture
def world(mini):
    # Legitimate site inside the infra AS.
    mini.web_ip = mini.infra.address_at(40020)
    mini.add_web_domain("blocked.example", mini.web_ip, category="Alexa")
    mini.add_web_domain("normal.example",
                        mini.infra.address_at(40021), category="Misc")
    # A censorship landing page and a transparent proxy, hosted in a
    # DIFFERENT network than the legitimate sites (otherwise the AS rule
    # would filter them as legitimate).
    foreign = mini.allocator.allocate(24)
    mini.foreign = foreign
    mini.landing_ip = foreign.address_at(1)
    mini.network.register(StaticPageServer(mini.landing_ip,
                                           censorship_landing("TR")))
    mini.proxy_ip = foreign.address_at(2)
    mini.network.register(TransparentProxy(mini.proxy_ip, mini.sites))
    # A foreign web server that 404s for the scanned domains.
    from repro.websim import WebServer
    mini.error_ip = foreign.address_at(3)
    mini.network.register(WebServer(mini.error_ip, mini.sites,
                                    ["unrelated.example"], https=False))
    # Resolvers: honest, censoring, proxying, misdirecting.
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
        domain_catalog=mini.catalog)
    return mini


class TestPipeline:
    def test_full_chain(self, world):
        report = world.pipeline.run(list(world.resolver_ips.values()),
                                    world.catalog)
        # 4 resolvers x 2 domains = 8 observations.
        assert len(report.observations) == 8
        labels = report.labels_by_tuple()

        censor = world.resolver_ips["censor"]
        assert labels[("blocked.example", world.landing_ip,
                       censor)][0] == LABEL_CENSORSHIP

        proxy = world.resolver_ips["proxy"]
        assert labels[("blocked.example", world.proxy_ip,
                       proxy)] == (LABEL_MISC, SUBLABEL_PROXY)

        misdirect = world.resolver_ips["misdirect"]
        # normal.example at the error server: a 404 error page.
        assert labels[("normal.example", world.error_ip,
                       misdirect)][0] == LABEL_HTTP_ERROR

    def test_distance_hit_rate_gauge_credits_dedup(self, world):
        from repro.perf import PerfRegistry
        perf = PerfRegistry()
        world.pipeline.perf = perf
        world.pipeline.features.perf = perf
        world.pipeline.run(list(world.resolver_ips.values()),
                           world.catalog)
        # Duplicate capture bodies exist in this world (the proxy and
        # the honest path both fetch the genuine pages), so the body
        # dedup spared the distance matrix pairs; the rest were
        # evaluated, once each.
        assert perf.counter("pipeline_distance_evals_avoided") > 0
        assert perf.counter("distance_evals") > 0
        report = world.pipeline.run(list(world.resolver_ips.values()),
                                    world.catalog)
        honest = world.resolver_ips["honest"]
        assert honest not in report.prefilter.unknown_resolvers()
        assert honest not in report.suspicious_resolvers

    def test_ground_truth_collected(self, world):
        report = world.pipeline.run(list(world.resolver_ips.values()),
                                    world.catalog)
        assert "blocked.example" in report.ground_truth_bodies
        assert report.ground_truth_bodies["blocked.example"][0] == \
            world.sites.page_for("blocked.example")

    def test_ground_truth_for_uncataloged_domain_keyed_by_name(self,
                                                               world):
        # A ScanDomain absent from the pipeline's catalog must still be
        # keyed by its name (regression: the fallback was str(domain),
        # which is the repr for ScanDomain and poisoned the key space).
        domain = ScanDomain("normal.example", "Misc")
        world.pipeline.domain_catalog.pop("normal.example")
        bodies = world.pipeline.collect_ground_truth([domain])
        assert "normal.example" in bodies
        assert not any("ScanDomain" in key for key in bodies)

    def test_everything_classified(self, world):
        report = world.pipeline.run(list(world.resolver_ips.values()),
                                    world.catalog)
        assert report.classified_share() == 1.0

    def test_clusters_group_identical_pages(self, world):
        report = world.pipeline.run(list(world.resolver_ips.values()),
                                    world.catalog)
        # Censorship page, proxied originals (x2 domains), error page:
        # handful of clusters, each internally homogeneous.
        assert 2 <= len(report.clusters) <= 6
        for cluster in report.clusters:
            bodies = {capture.body for capture in cluster}
            assert len(bodies) <= 2
