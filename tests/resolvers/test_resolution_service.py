"""Tests for the shared honest-resolution service."""

import pytest

from repro.dnswire.constants import QTYPE_A, RCODE_NOERROR, RCODE_NXDOMAIN
from repro.netsim import GreatFirewall, Ipv4Network
from repro.resolvers import ResolutionService, ResolverNode


@pytest.fixture
def world(mini):
    mini.builder.register_domain("plain.com",
                                 {"plain.com": ["198.18.0.1"]})
    mini.builder.register_domain("scan.dnsstudy.edu",
                                 wildcard_address="198.18.0.9")
    mini.builder.register_domain(
        "cdnsite.com", {"cdnsite.com": ["198.18.1.1", "198.18.1.2"]})
    mini.service = ResolutionService(
        mini.hierarchy.root_ips, mini.trusted_ip,
        cdn_pools={"cdnsite.com": ["198.18.1.%d" % i
                                   for i in range(1, 9)]},
        wildcard_suffixes=["scan.dnsstudy.edu"])
    return mini


class TestTrustedResolution:
    def test_plain_domain_cached(self, world):
        first = world.service.resolve_trusted(world.network, "plain.com")
        assert first.addresses == ["198.18.0.1"]
        count = world.service.full_resolutions
        again = world.service.resolve_trusted(world.network, "plain.com")
        assert again.addresses == ["198.18.0.1"]
        assert world.service.full_resolutions == count

    def test_nxdomain_cached(self, world):
        result = world.service.resolve_trusted(world.network,
                                               "missing.plain.com")
        assert result.rcode == RCODE_NXDOMAIN

    def test_wildcard_suffix_cached_once(self, world):
        world.service.resolve_trusted(world.network,
                                      "r1.aabbccdd.scan.dnsstudy.edu")
        count = world.service.full_resolutions
        result = world.service.resolve_trusted(
            world.network, "r2.11223344.scan.dnsstudy.edu")
        assert result.addresses == ["198.18.0.9"]
        assert world.service.full_resolutions == count

    def test_cdn_pool_slice(self, world):
        result = world.service.resolve_trusted(world.network,
                                               "cdnsite.com")
        assert len(result.addresses) == 2
        assert all(a.startswith("198.18.1.") for a in result.addresses)


class TestPerResolverResolution:
    def test_cdn_slices_differ_between_resolvers(self, world):
        slices = set()
        for index in range(12):
            node = ResolverNode(world.infra.address_at(42000 + index),
                                resolution_service=world.service)
            result = world.service.resolve_for(world.network, node,
                                               "cdnsite.com")
            assert result.rcode == RCODE_NOERROR
            slices.add(tuple(result.addresses))
        assert len(slices) > 2, "GeoDNS slices must vary by resolver"

    def test_cdn_exact_match_only(self, world):
        node = ResolverNode(world.infra.address_at(42050),
                            resolution_service=world.service)
        # A random subdomain of the CDN customer must NOT get edges.
        result = world.service.resolve_for(world.network, node,
                                           "xyz.cdnsite.com")
        assert result.rcode == RCODE_NXDOMAIN

    def test_www_alias_gets_pool(self, world):
        node = ResolverNode(world.infra.address_at(42051),
                            resolution_service=world.service)
        result = world.service.resolve_for(world.network, node,
                                           "www.cdnsite.com")
        assert result.addresses
        assert all(a.startswith("198.18.1.") for a in result.addresses)


class TestGfwPoisoning:
    CN_PREFIX = "110.0.0.0/16"  # disjoint from the infra block

    def add_gfw(self, world):
        gfw = GreatFirewall([Ipv4Network(self.CN_PREFIX)], ["plain.com"],
                            seed=4)
        world.network.add_middlebox(gfw)
        return gfw

    def test_inside_resolver_poisoned(self, world):
        gfw = self.add_gfw(world)
        inside = ResolverNode("110.0.0.5",
                              resolution_service=world.service)
        result = world.service.resolve_for(world.network, inside,
                                           "plain.com")
        assert result.addresses != ["198.18.0.1"], \
            "the forged answer must win the race"

    def test_outside_resolver_clean(self, world):
        self.add_gfw(world)
        outside = ResolverNode(world.infra.address_at(42060),
                               resolution_service=world.service)
        result = world.service.resolve_for(world.network, outside,
                                           "plain.com")
        assert result.addresses == ["198.18.0.1"]

    def test_immune_resolver_clean(self, world):
        self.add_gfw(world)
        immune = ResolverNode("110.0.0.6",
                              resolution_service=world.service,
                              gfw_immune=True)
        result = world.service.resolve_for(world.network, immune,
                                           "plain.com")
        assert result.addresses == ["198.18.0.1"]

    def test_uncensored_names_clean_inside(self, world):
        self.add_gfw(world)
        world.builder.register_domain("other.net",
                                      {"other.net": ["198.18.0.3"]})
        inside = ResolverNode("110.0.0.7",
                              resolution_service=world.service)
        result = world.service.resolve_for(world.network, inside,
                                           "other.net")
        assert result.addresses == ["198.18.0.3"]


class TestCachedResults:
    """A resolver caches the result it was given, on either path: a name
    the shared cache holds caches the service's one result, a CDN slice
    and the firewall's forged answer are each resolver's own, and every
    name under a wildcard suffix caches the suffix's one result."""

    def test_one_result_per_answer(self, world):
        network = world.network
        network.add_middlebox(GreatFirewall(
            [Ipv4Network("110.0.0.0/16")], ["plain.com"], seed=4))
        shared = world.service.resolve_trusted(network, "plain.com")
        suffix = world.service.resolve_trusted(
            network, "r0.00000000.scan.dnsstudy.edu")
        for path in ("resolve_honest", "_settled_a"):
            def cached(node, name):
                getattr(node, path)(name, network)
                result, __ = node.cache.lookup(name, QTYPE_A,
                                               world.clock.now)
                return result
            nodes = [ResolverNode(address, resolution_service=world.service)
                     for address in (world.infra.address_at(42000),
                                     world.infra.address_at(42001),
                                     "110.0.0.5", "110.0.0.6")]
            outside = [cached(node, "plain.com") for node in nodes[:2]]
            assert outside[0] is outside[1] is shared
            poisoned = [cached(node, "plain.com") for node in nodes[2:]]
            assert poisoned[0] is not poisoned[1]
            assert all(result.addresses != ["198.18.0.1"]
                       for result in poisoned)
            slices = [cached(node, "cdnsite.com") for node in nodes[:2]]
            assert slices[0] is not slices[1]
            for node, result in zip(nodes, slices):
                assert result.addresses == world.service.resolve_for(
                    network, node, "cdnsite.com").addresses
            for index, node in enumerate(nodes[:2]):
                for name in ("r1.aabbccdd.scan.dnsstudy.edu",
                             "R%d.11223344.Scan.DnsStudy.edu" % index):
                    assert cached(node, name) is suffix


class TestWildcardClass:
    """Every name under a wildcard suffix shares one answer class unless
    a CDN pool or a GFW could answer one of them differently."""

    NAME = "r1.aabbccdd.scan.dnsstudy.edu"

    def answer_class(self, world):
        return world.service.answer_class(self.NAME, world.network)[0]

    def test_clean_suffix_has_one_nameless_class(self, world):
        shared = self.answer_class(world)
        assert shared is not None and shared.name is None
        # The class stands for the name; the name comes back normalized.
        assert world.service.answer_class(
            "R2.11223344.scan.dnsstudy.EDU.", world.network) \
            == (shared, "r2.11223344.scan.dnsstudy.edu")

    @pytest.mark.parametrize("domain", ["scan.dnsstudy.edu",
                                        "deep.scan.dnsstudy.edu"])
    def test_a_pool_under_the_suffix_takes_the_class_away(self, world,
                                                          domain):
        world.service.register_cdn_pool(domain, ["198.18.2.1"])
        assert self.answer_class(world) is None

    def test_a_pools_www_alias_is_under_the_suffix(self, world):
        # cdnsite.com's pool also serves www.cdnsite.com.
        world.service.wildcard_suffixes += ("www.cdnsite.com",)
        assert world.service.answer_class("r1.www.cdnsite.com",
                                          world.network)[0] is None

    def test_a_pool_outside_the_suffix_leaves_it(self, world):
        world.service.register_cdn_pool("dnsstudy.edu", ["198.18.2.1"])
        assert self.answer_class(world) is not None

    @pytest.mark.parametrize("censored, singled_out", [
        (["dnsstudy.edu"], True),                   # a parent
        (["x.scan.dnsstudy.edu"], True),            # a name under it
        (["other.dnsstudy.edu"], False),
    ])
    def test_a_gfw_that_may_censor_under_it_takes_the_class_away(
            self, world, censored, singled_out):
        world.network.add_middlebox(GreatFirewall(
            [Ipv4Network("110.0.0.0/16")], censored, seed=4))
        assert (self.answer_class(world) is None) == singled_out
