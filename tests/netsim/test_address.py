"""Tests for IPv4 address utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.address import (
    Ipv4Network,
    PrefixSet,
    RangeIndex,
    int_to_ip,
    ip_to_int,
    is_private,
    is_reserved,
    reverse_pointer_name,
    same_slash24,
)


class TestConversions:
    def test_known_values(self):
        assert ip_to_int("0.0.0.0") == 0
        assert ip_to_int("255.255.255.255") == 0xFFFFFFFF
        assert ip_to_int("1.2.3.4") == 0x01020304
        assert int_to_ip(0x01020304) == "1.2.3.4"

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_roundtrip(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    def test_bad_inputs(self):
        for bad in ("1.2.3", "1.2.3.4.5", "1.2.3.256", "a.b.c.d"):
            with pytest.raises(ValueError):
                ip_to_int(bad)
        with pytest.raises(ValueError):
            int_to_ip(-1)
        with pytest.raises(ValueError):
            int_to_ip(2 ** 32)


class TestIpv4Network:
    def test_membership(self):
        net = Ipv4Network("10.0.0.0/8")
        assert "10.1.2.3" in net
        assert "11.0.0.0" not in net

    def test_base_masked(self):
        assert Ipv4Network("10.5.5.5/8").cidr == "10.0.0.0/8"

    def test_single_host(self):
        net = Ipv4Network("192.0.2.1")
        assert net.num_addresses == 1
        assert "192.0.2.1" in net
        assert "192.0.2.2" not in net

    def test_address_at(self):
        net = Ipv4Network("192.0.2.0/24")
        assert net.address_at(0) == "192.0.2.0"
        assert net.address_at(255) == "192.0.2.255"
        with pytest.raises(IndexError):
            net.address_at(256)

    def test_bad_prefix_length(self):
        with pytest.raises(ValueError):
            Ipv4Network("1.2.3.4/33")

    def test_equality_and_hash(self):
        assert Ipv4Network("10.0.0.0/8") == Ipv4Network("10.9.9.9/8")
        assert hash(Ipv4Network("10.0.0.0/8")) == \
            hash(Ipv4Network("10.0.0.0/8"))


class TestReservedPrivate:
    @pytest.mark.parametrize("address", [
        "10.1.1.1", "127.0.0.1", "192.168.1.1", "172.16.0.1",
        "169.254.1.1", "224.0.0.1", "240.0.0.1", "198.51.100.5",
        "0.1.2.3", "100.64.0.1",
    ])
    def test_reserved(self, address):
        assert is_reserved(address)

    @pytest.mark.parametrize("address", [
        "8.8.8.8", "1.1.1.1", "200.1.2.3", "150.0.0.1",
    ])
    def test_not_reserved(self, address):
        assert not is_reserved(address)

    def test_private_subset(self):
        assert is_private("192.168.0.1")
        assert is_private("10.0.0.1")
        assert not is_private("8.8.8.8")
        # Reserved but not LAN-private.
        assert not is_private("224.0.0.1")

    def test_accepts_int(self):
        assert is_reserved(ip_to_int("10.0.0.1"))


class TestHelpers:
    def test_reverse_pointer(self):
        assert reverse_pointer_name("1.2.3.4") == "4.3.2.1.in-addr.arpa"

    def test_reverse_pointer_rejects_bad(self):
        with pytest.raises(ValueError):
            reverse_pointer_name("1.2.3")

    def test_same_slash24(self):
        assert same_slash24("1.2.3.4", "1.2.3.200")
        assert not same_slash24("1.2.3.4", "1.2.4.4")


def _prefix(base, length):
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    return base & mask, mask


class TestRangeIndex:
    @given(ranges=st.lists(st.builds(
               _prefix, st.integers(0x0A000000, 0x0A03FFFF),
               st.sampled_from([14, 16, 20, 24, 32])), max_size=12),
           value=st.integers(0x0A000000, 0x0A03FFFF))
    def test_find_is_the_first_match_of_a_list_scan(self, ranges, value):
        scan = next((position for position, (base, mask)
                     in enumerate(ranges) if value & mask == base), None)
        assert RangeIndex(ranges).find(value) == scan

    def test_nested_ranges_keep_list_order(self):
        inner, outer = _prefix(0x0A010200, 24), _prefix(0x0A010000, 16)
        assert RangeIndex([outer, inner]).find(0x0A010203) == 0
        assert RangeIndex([inner, outer]).find(0x0A010203) == 0
        assert RangeIndex([inner, outer]).find(0x0A010303) == 1
        assert RangeIndex([]).find(0x0A010203) is None


def networks_and_addresses():
    """Prefixes of any length (/0 to /32: the first-octet guard spans
    several octets below /8) and addresses inside, beside and far from
    them."""
    networks = st.lists(st.builds(
        lambda base, length: Ipv4Network("%s/%d" % (int_to_ip(base),
                                                     length)),
        st.integers(0, 0xFFFFFFFF), st.integers(0, 32)), max_size=6)

    def near(nets):
        edges = [value & 0xFFFFFFFF for net in nets
                 for value in (net.base - 1, net.base,
                               net.base + net.num_addresses - 1,
                               net.base + net.num_addresses)]
        return st.lists(st.one_of(st.integers(0, 0xFFFFFFFF),
                                  *([st.sampled_from(edges)] if edges
                                    else [])), max_size=20)

    return networks.flatmap(lambda nets: st.tuples(st.just(nets),
                                                   near(nets)))


class TestPrefixSet:
    @given(networks_and_addresses())
    def test_membership_is_the_mask_loop(self, case):
        networks, values = case
        inside = PrefixSet(networks)
        assert inside.masks == [(net.base, net.mask) for net in networks]
        for value in values:
            assert (value in inside) == any(
                value & net.mask == net.base for net in networks)
