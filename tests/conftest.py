"""Shared fixtures: a minimal hand-built world and a small full scenario."""

import pytest

from repro.authdns import HierarchyBuilder
from repro.inetmodel import HostBlock, PrefixAllocator, RdnsRegistry
from repro.netsim import Network, SimClock
from repro.resolvers import ResolutionService
from repro.scenario import ScenarioConfig, build_scenario
from repro.websim import CertificateAuthority, SiteLibrary


class MiniWorld:
    """A tiny, fast network with a DNS hierarchy and one web domain."""

    def __init__(self, seed=1, loss_rate=0.0):
        self.clock = SimClock()
        self.network = Network(self.clock, seed=seed, loss_rate=loss_rate)
        self.allocator = PrefixAllocator()
        self.infra = self.allocator.allocate(16)
        self.rdns = RdnsRegistry()
        self.builder = HierarchyBuilder(self.network, HostBlock(self.infra),
                                        rdns_registry=self.rdns)
        self.hierarchy = self.builder.hierarchy
        self.ca = CertificateAuthority()
        self.sites = SiteLibrary(seed=seed)
        self.trusted_ip = self.infra.address_at(50000)
        self.client_ip = self.infra.address_at(50001)
        self.service = ResolutionService(self.hierarchy.root_ips,
                                         self.trusted_ip)

    def add_web_domain(self, domain, ip, category="Misc", https=True):
        """Register a zone + origin server for one domain."""
        from repro.websim import WebServer
        self.sites.set_category(domain, category)
        self.builder.register_domain(domain, {domain: [ip],
                                              "www." + domain: [ip]})
        certificate = self.ca.issue(domain, san=(domain, "www." + domain)) \
            if https else None
        server = WebServer(ip, self.sites, [domain],
                           certificate=certificate, https=https)
        self.network.register(server)
        return server


@pytest.fixture
def mini():
    return MiniWorld()


@pytest.fixture(scope="session")
def small_scenario():
    """A session-shared tiny scenario for integration-style tests."""
    return build_scenario(ScenarioConfig(scale=40000, seed=11,
                                         loss_rate=0.0))


@pytest.fixture(scope="session")
def scanned_scenario(small_scenario):
    """The small scenario plus its first weekly scan result."""
    campaign = small_scenario.new_campaign(verify=False)
    snapshot = campaign.run_week()
    return small_scenario, campaign, snapshot
