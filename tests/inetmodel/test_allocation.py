"""Tests for the prefix allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.inetmodel import (AddressPlan, AddressPlanError, AsRegistry,
                             AutonomousSystem, PrefixAllocator)
from repro.netsim.address import is_reserved


def test_alignment():
    allocator = PrefixAllocator()
    block = allocator.allocate(20)
    assert block.base % block.num_addresses == 0


def test_no_overlap():
    allocator = PrefixAllocator()
    blocks = [allocator.allocate(length)
              for length in (24, 20, 16, 24, 22, 18)]
    for i, left in enumerate(blocks):
        for right in blocks[i + 1:]:
            assert not left.contains_int(right.base)
            assert not right.contains_int(left.base)


def test_skips_reserved_space():
    allocator = PrefixAllocator(start="9.255.0.0")
    block = allocator.allocate(16)  # would land inside 10.0.0.0/8
    assert not is_reserved(block.base)
    assert not is_reserved(block.base + block.num_addresses - 1)


def test_exhaustion_raises():
    allocator = PrefixAllocator(start="223.255.0.0", end="223.255.255.255")
    allocator.allocate(16)
    with pytest.raises(RuntimeError):
        allocator.allocate(16)


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=16, max_value=28), min_size=1,
                max_size=15))
def test_property_disjoint_and_clean(lengths):
    allocator = PrefixAllocator()
    blocks = [allocator.allocate(length) for length in lengths]
    seen = []
    for block in blocks:
        assert not is_reserved(block.base)
        assert not is_reserved(block.base + block.num_addresses - 1)
        for other in seen:
            assert block.base + block.num_addresses <= other.base \
                or other.base + other.num_addresses <= block.base
        seen.append(block)


class TestAddressPlan:
    def plan(self):
        registry = AsRegistry()
        return AddressPlan(registry), registry

    def test_blocks_number_ases_and_register_them(self):
        plan, registry = self.plan()
        first = plan.block("One", "US", AutonomousSystem.HOSTING, 24)
        second = plan.block("Two", "DE", AutonomousSystem.ACADEMIC, 16)
        assert (first.asys.asn, second.asys.asn) == (64501, 64502)
        assert registry.lookup(first.prefix.address_at(7)) is first.asys
        assert registry.lookup(second.prefix.address_at(7)) is second.asys
        assert second.asys.prefixes == [second.prefix]
        assert not first.prefix.contains_int(second.prefix.base)

    def test_cursor_starts_at_the_declared_host(self):
        plan, __ = self.plan()
        block = plan.block("Edge", "US", AutonomousSystem.HOSTING, 24,
                           first=10)
        assert [block.next(), block.next()] == [
            block.prefix.address_at(10), block.prefix.address_at(11)]

    def test_an_address_handed_out_twice_raises(self):
        plan, __ = self.plan()
        block = plan.block("Infra", "US", AutonomousSystem.ACADEMIC, 24)
        block.host(3)
        with pytest.raises(AddressPlanError, match="twice"):
            block.host(3)
        assert [block.next(), block.next()] == [
            block.prefix.address_at(1), block.prefix.address_at(2)]
        # The cursor runs into the named host.
        with pytest.raises(AddressPlanError, match="twice"):
            block.next()

    def test_an_address_past_its_block_raises(self):
        plan, __ = self.plan()
        block = plan.block("Tiny", "US", AutonomousSystem.HOSTING, 30,
                           first=3)
        assert block.next() == block.prefix.address_at(3)
        with pytest.raises(AddressPlanError, match="outside"):
            block.next()
        with pytest.raises(AddressPlanError, match="outside"):
            block.host(-1)

    def test_the_vantage_region(self):
        plan, registry = self.plan()
        main = plan.block("Main", "US", AutonomousSystem.HOSTING, 24)
        vantage = plan.block("Far", "DE", AutonomousSystem.HOSTING, 24,
                             first=10, region="vantage")
        again = plan.block("Far too", "DE", AutonomousSystem.HOSTING, 24,
                           region="vantage")
        assert main.prefix.cidr == "1.0.0.0/24"
        assert vantage.prefix.cidr == "203.64.0.0/24"
        assert again.prefix.cidr == "203.64.1.0/24"
        assert vantage.next() == "203.64.0.10"
        assert registry.asn_of("203.64.1.9") == again.asys.asn == 64503
