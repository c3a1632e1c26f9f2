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


class TestSharedCacheRecords:
    """Resolvers caching a name the shared cache holds store one shared
    tuple of records; per-resolver answers (CDN slices, the firewall's
    forged ones, wildcard names) are stored as built for that resolver."""

    def cached(self, world, node, name):
        node.resolve_honest(name, world.network)
        records, __ = node.cache.lookup(name, QTYPE_A, world.clock.now)
        return records

    def test_shared_only_for_names_the_service_holds(self, world):
        world.network.add_middlebox(GreatFirewall(
            [Ipv4Network("110.0.0.0/16")], ["plain.com"], seed=4))
        nodes = [ResolverNode(address, resolution_service=world.service)
                 for address in (world.infra.address_at(42000),
                                 world.infra.address_at(42001),
                                 "110.0.0.5")]
        outside = [self.cached(world, node, "plain.com")
                   for node in nodes[:2]]
        assert type(outside[0]) is tuple and outside[0] is outside[1]
        poisoned = self.cached(world, nodes[2], "plain.com")
        assert [record.data.address for record in poisoned] \
            != ["198.18.0.1"]
        for name in ("cdnsite.com", "r1.aabbccdd.scan.dnsstudy.edu"):
            for node in nodes[:2]:
                result = world.service.resolve_for(world.network, node, name)
                assert [(record.name, record.data.address)
                        for record in self.cached(world, node, name)] \
                    == [(name, address) for address in result.addresses]
