"""Tests for the rDNS registry and dynamic-token matching."""

import pytest

from repro.inetmodel import (
    RdnsRegistry,
    dynamic_pool_name,
    has_dynamic_token,
    static_name,
)


class TestTokens:
    @pytest.mark.parametrize("name", [
        "host-1-2-3-4.dynamic.isp.example",
        "pool-4-3-2-1.broadband.net",
        "dialup-99.provider.example",
        "cpe-1-2-3-4.dsl.example.net",
        "1-2-3-4.dhcp.university.edu",
        "ppp-12.telco.example",
    ])
    def test_dynamic(self, name):
        assert has_dynamic_token(name)

    @pytest.mark.parametrize("name", [
        "static-1-2-3-4.isp.example",
        "mail.example.com",
        "web1.hosting.example",
        "",
        None,
    ])
    def test_not_dynamic(self, name):
        assert not has_dynamic_token(name)

    def test_generators(self):
        assert dynamic_pool_name("1.2.3.4", "isp.example") == \
            "host-1-2-3-4.dynamic.isp.example"
        assert static_name("1.2.3.4", "isp.example") == \
            "static-1-2-3-4.isp.example"
        assert has_dynamic_token(dynamic_pool_name("1.2.3.4", "x.example"))
        assert not has_dynamic_token(static_name("1.2.3.4", "x.example"))


class TestRegistry:
    def test_ptr_roundtrip(self):
        registry = RdnsRegistry()
        registry.set_ptr("1.2.3.4", "host.example.com")
        assert registry.ptr("1.2.3.4") == "host.example.com"
        assert "1.2.3.4" in registry
        assert len(registry) == 1

    def test_forward_confirmation(self):
        registry = RdnsRegistry()
        registry.set_ptr("1.2.3.4", "host.example.com")
        assert registry.forward("HOST.example.com") == "1.2.3.4"
        assert registry.forward_confirmed("1.2.3.4")

    def test_unconfirmed_ptr(self):
        # A PTR whose owner does not control the forward zone.
        registry = RdnsRegistry()
        registry.set_ptr("1.2.3.4", "www.paypal.com",
                         forward_confirmed=False)
        assert registry.ptr("1.2.3.4") == "www.paypal.com"
        assert registry.forward("www.paypal.com") is None
        assert not registry.forward_confirmed("1.2.3.4")

    def test_remove_cleans_both_tables(self):
        registry = RdnsRegistry()
        registry.set_ptr("1.2.3.4", "host.example.com")
        registry.remove("1.2.3.4")
        assert registry.ptr("1.2.3.4") is None
        assert registry.forward("host.example.com") is None
