"""Tests for the resolver node: modes, CHAOS, A answers, snooping."""

import pytest

from repro.dnswire import Message
from repro.dnswire.constants import (
    CLASS_CH,
    QTYPE_A,
    QTYPE_NS,
    QTYPE_TXT,
    RCODE_NOERROR,
    RCODE_NOTIMP,
    RCODE_NXDOMAIN,
    RCODE_REFUSED,
    RCODE_SERVFAIL,
)
from repro.netsim import UdpPacket
from repro.resolvers import ResolverNode, StaticIpBehavior
from repro.resolvers.cache import CacheActivityModel
from repro.resolvers.resolver import (
    MODE_NORMAL,
    MODE_REFUSED,
    MODE_SERVFAIL,
    MODE_SILENT,
)
from repro.resolvers.software import (
    SOFTWARE_CATALOG,
    STYLE_ERROR,
    STYLE_HIDDEN,
    STYLE_NO_VERSION,
    STYLE_VERSION,
)


@pytest.fixture
def world(mini):
    mini.builder.register_domain("example.com",
                                 {"example.com": ["198.18.0.1"]})
    return mini


def make_resolver(world, ip="198.18.9.1", **kwargs):
    node = ResolverNode(ip, resolution_service=world.service, **kwargs)
    world.network.register(node)
    return node


def ask(world, resolver_ip, name, qtype=QTYPE_A, qclass=1, rd=True):
    query = Message.query(name, qtype=qtype, qclass=qclass, txid=9, rd=rd)
    packet = UdpPacket(world.client_ip, 1234, resolver_ip, 53,
                       query.to_wire())
    responses = world.network.send_udp(packet)
    if not responses:
        return None
    return Message.from_wire(responses[0].packet.payload)


class TestModes:
    def test_normal_recursion(self, world):
        make_resolver(world)
        response = ask(world, "198.18.9.1", "example.com")
        assert response.rcode == RCODE_NOERROR
        assert response.a_addresses() == ["198.18.0.1"]

    def test_refused_mode(self, world):
        make_resolver(world, response_mode=MODE_REFUSED)
        assert ask(world, "198.18.9.1",
                   "example.com").rcode == RCODE_REFUSED

    def test_servfail_mode(self, world):
        make_resolver(world, response_mode=MODE_SERVFAIL)
        assert ask(world, "198.18.9.1",
                   "example.com").rcode == RCODE_SERVFAIL

    def test_silent_mode(self, world):
        make_resolver(world, response_mode=MODE_SILENT)
        assert ask(world, "198.18.9.1", "example.com") is None

    def test_nxdomain_propagates(self, world):
        make_resolver(world)
        assert ask(world, "198.18.9.1",
                   "missing.example.com").rcode == RCODE_NXDOMAIN


class TestAnswers:
    def test_0x20_case_echoed(self, world):
        make_resolver(world)
        response = ask(world, "198.18.9.1", "ExAmPlE.CoM")
        assert response.question.name == "ExAmPlE.CoM"

    def test_behavior_takes_priority(self, world):
        make_resolver(world, behaviors=[StaticIpBehavior("6.6.6.6")])
        response = ask(world, "198.18.9.1", "example.com")
        assert response.a_addresses() == ["6.6.6.6"]

    def test_answer_cached(self, world):
        resolver = make_resolver(world)
        ask(world, "198.18.9.1", "example.com")
        before = world.service.full_resolutions
        ask(world, "198.18.9.1", "example.com")
        assert world.service.full_resolutions == before
        assert resolver.cache.lookup("example.com", QTYPE_A,
                                     world.clock.now) is not None

    def test_cached_ttl_decays(self, world):
        make_resolver(world)
        first = ask(world, "198.18.9.1", "example.com")
        world.clock.advance(100)
        second = ask(world, "198.18.9.1", "example.com")
        assert second.answers[0].ttl < first.answers[0].ttl

    def test_divergent_answer_source(self, world):
        make_resolver(world, answer_source_ip="198.18.9.200")
        query = Message.query("example.com", txid=9)
        packet = UdpPacket(world.client_ip, 1234, "198.18.9.1", 53,
                           query.to_wire())
        responses = world.network.send_udp(packet)
        assert responses[0].packet.src_ip == "198.18.9.200"

    def test_notimp_for_exotic_qtype(self, world):
        make_resolver(world)
        response = ask(world, "198.18.9.1", "example.com", qtype=99)
        assert response.rcode == RCODE_NOTIMP


class TestChaos:
    def ask_version(self, world, name="version.bind"):
        return ask(world, "198.18.9.1", name, qtype=QTYPE_TXT,
                   qclass=CLASS_CH)

    def test_version_style(self, world):
        software = SOFTWARE_CATALOG[0][0]
        make_resolver(world, software=software,
                      chaos_style=STYLE_VERSION)
        response = self.ask_version(world)
        assert response.answers[0].data.text == software.version_string

    def test_error_style(self, world):
        make_resolver(world, chaos_style=STYLE_ERROR)
        response = self.ask_version(world)
        assert response.rcode in (RCODE_REFUSED, RCODE_SERVFAIL)

    def test_no_version_style(self, world):
        make_resolver(world, chaos_style=STYLE_NO_VERSION)
        response = self.ask_version(world)
        assert response.rcode == RCODE_NOERROR
        assert not response.answers

    def test_hidden_style(self, world):
        software = SOFTWARE_CATALOG[0][0]
        make_resolver(world, software=software, chaos_style=STYLE_HIDDEN)
        response = self.ask_version(world)
        text = response.answers[0].data.text
        assert text != software.version_string

    def test_chaos_answered_even_by_refused_mode(self, world):
        # CHAOS handling reflects the software, not the open/closed state.
        make_resolver(world, chaos_style=STYLE_NO_VERSION,
                      response_mode=MODE_REFUSED)
        assert self.ask_version(world).rcode == RCODE_NOERROR

    def test_version_server_also_answered(self, world):
        make_resolver(world, chaos_style=STYLE_NO_VERSION)
        assert self.ask_version(world,
                                "version.server").rcode == RCODE_NOERROR


class TestSnooping:
    def test_ns_ttl_from_activity(self, world):
        activity = CacheActivityModel(
            CacheActivityModel.STYLE_NORMAL,
            tld_patterns={"com": (100.0, 0.0)}, ttl=1000)
        make_resolver(world, activity=activity)
        response = ask(world, "198.18.9.1", "com", qtype=QTYPE_NS,
                       rd=False)
        assert response.rcode == RCODE_NOERROR
        assert response.answers[0].rtype == QTYPE_NS
        assert response.answers[0].ttl == 1000

    def test_uncached_tld_gives_empty(self, world):
        activity = CacheActivityModel(
            CacheActivityModel.STYLE_NORMAL,
            tld_patterns={"com": (100.0, 0.0)}, ttl=1000)
        make_resolver(world, activity=activity)
        response = ask(world, "198.18.9.1", "de", qtype=QTYPE_NS, rd=False)
        assert response.rcode == RCODE_NOERROR
        assert not response.answers

    def test_unreachable_style_silent(self, world):
        make_resolver(world, activity=CacheActivityModel(
            CacheActivityModel.STYLE_UNREACHABLE))
        assert ask(world, "198.18.9.1", "com", qtype=QTYPE_NS,
                   rd=False) is None


class TestDeviceSurface:
    def test_device_ports_and_banner(self, world):
        from repro.resolvers.devices import DEVICE_CATALOG
        device = DEVICE_CATALOG["zyxel-p-660hn-t1a"]
        make_resolver(world, device=device)
        banner = world.network.tcp_banner(world.client_ip, "198.18.9.1", 21)
        assert "ZyXEL" in banner

    def test_device_page_served(self, world):
        from repro.websim.http import HttpRequest
        make_resolver(world, device_page="<html>router</html>")
        response = world.network.http_request(
            world.client_ip, "198.18.9.1", HttpRequest("paypal.com"))
        assert response.body == "<html>router</html>"

    def test_no_device_no_services(self, world):
        resolver = make_resolver(world)
        assert resolver.tcp_ports() == frozenset()
        assert resolver.tcp_banner(80) is None
