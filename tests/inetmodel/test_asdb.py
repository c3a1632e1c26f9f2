"""Tests for the AS registry and RIR mapping."""

import pytest

from repro.inetmodel import (
    AsRegistry,
    AutonomousSystem,
    PrefixAllocator,
    rir_for_country,
)


@pytest.fixture
def registry():
    allocator = PrefixAllocator()
    registry = AsRegistry()
    systems = {}
    for asn, (name, country) in enumerate(
            [("US Telco", "US"), ("CN Backbone", "CN"),
             ("BR Cable", "BR"), ("EG Net", "EG")], start=64500):
        system = AutonomousSystem(asn, name, country,
                                  prefixes=[allocator.allocate(20)])
        registry.add(system)
        systems[name] = system
    return registry, systems


class TestRirMapping:
    @pytest.mark.parametrize("country,rir", [
        ("US", "ARIN"), ("BR", "LACNIC"), ("DE", "RIPE"),
        ("CN", "APNIC"), ("EG", "AFRINIC"), ("IR", "RIPE"),
    ])
    def test_known(self, country, rir):
        assert rir_for_country(country) == rir

    def test_unknown(self):
        assert rir_for_country("ZZ") == "UNKNOWN"


class TestRegistry:
    def test_lookup_inside_prefix(self, registry):
        registry, systems = registry
        system = systems["US Telco"]
        inside = system.prefixes[0].address_at(5)
        assert registry.lookup(inside) is system
        assert registry.asn_of(inside) == system.asn
        assert registry.country_of(inside) == "US"
        assert registry.rir_of(inside) == "ARIN"

    def test_lookup_outside(self, registry):
        registry, __ = registry
        assert registry.lookup("223.255.255.254") is None
        assert registry.rir_of("223.255.255.254") == "UNKNOWN"

    def test_duplicate_asn_rejected(self, registry):
        registry, systems = registry
        with pytest.raises(ValueError):
            registry.add(AutonomousSystem(64500, "dup", "US"))

    def test_len(self, registry):
        registry, __ = registry
        assert len(registry) == 4

    def test_as_contains(self, registry):
        __, systems = registry
        system = systems["CN Backbone"]
        assert system.prefixes[0].address_at(1) in system
