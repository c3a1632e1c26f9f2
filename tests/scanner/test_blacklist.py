"""Tests for the scan blacklist."""

from repro.netsim import Ipv4Network
from repro.scanner import Blacklist


def test_network_membership():
    blacklist = Blacklist(networks=["10.5.0.0/16"])
    assert "10.5.1.2" in blacklist
    assert "10.6.0.1" not in blacklist


def test_address_membership():
    blacklist = Blacklist(addresses=["1.2.3.4"])
    assert "1.2.3.4" in blacklist
    assert "1.2.3.5" not in blacklist


def test_incremental_adds():
    blacklist = Blacklist()
    blacklist.add_network(Ipv4Network("20.0.0.0/24"))
    blacklist.add_network("30.0.0.0/24")
    blacklist.add_address("40.0.0.1")
    assert "20.0.0.9" in blacklist
    assert "30.0.0.9" in blacklist
    assert "40.0.0.1" in blacklist


def test_accepts_ints():
    from repro.netsim.address import ip_to_int
    blacklist = Blacklist(addresses=[ip_to_int("1.2.3.4")])
    assert ip_to_int("1.2.3.4") in blacklist
    assert "1.2.3.4" in blacklist
