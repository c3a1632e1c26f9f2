"""Tests for CHAOS scanning, banner grabbing, fingerprinting, snooping,
and domain scanning."""

import pytest

from repro.resolvers import ResolverNode
from repro.resolvers.cache import CacheActivityModel
from repro.resolvers.devices import DEVICE_CATALOG
from repro.resolvers.resolver import MODE_REFUSED
from repro.resolvers.software import (
    SOFTWARE_CATALOG,
    STYLE_ERROR,
    STYLE_HIDDEN,
    STYLE_NO_VERSION,
    STYLE_VERSION,
)
from repro.scanner import (
    BannerGrabber,
    CacheSnoopingProber,
    ChaosScanner,
    DomainScanner,
    FingerprintMatcher,
)
from repro.scanner.banner import HostBanners
from repro.scanner.domainscan import DnsObservation
from repro.scanner.chaos import (
    OUTCOME_ERROR,
    OUTCOME_HIDDEN,
    OUTCOME_NO_VERSION,
    OUTCOME_SILENT,
    OUTCOME_VERSION,
)


@pytest.fixture
def world(mini):
    mini.builder.register_domain("example.com",
                                 {"example.com": ["198.18.0.1"]})
    return mini


def add_resolver(world, offset, **kwargs):
    ip = world.infra.address_at(40000 + offset)
    node = ResolverNode(ip, resolution_service=world.service, **kwargs)
    world.network.register(node)
    return node


class TestChaosScanner:
    def test_outcomes(self, world):
        software = SOFTWARE_CATALOG[0][0]
        nodes = {
            OUTCOME_VERSION: add_resolver(world, 1, software=software,
                                          chaos_style=STYLE_VERSION),
            OUTCOME_ERROR: add_resolver(world, 2, chaos_style=STYLE_ERROR),
            OUTCOME_NO_VERSION: add_resolver(world, 3,
                                             chaos_style=STYLE_NO_VERSION),
            OUTCOME_HIDDEN: add_resolver(world, 4,
                                         chaos_style=STYLE_HIDDEN),
        }
        scanner = ChaosScanner(world.network, world.client_ip)
        for expected, node in nodes.items():
            observation = scanner.probe(node.ip)
            assert observation.outcome == expected, expected

    def test_version_string_captured(self, world):
        software = SOFTWARE_CATALOG[0][0]
        node = add_resolver(world, 1, software=software,
                            chaos_style=STYLE_VERSION)
        observation = ChaosScanner(world.network,
                                   world.client_ip).probe(node.ip)
        assert observation.version_string == software.version_string

    def test_silent_for_dead_address(self, world):
        scanner = ChaosScanner(world.network, world.client_ip)
        observation = scanner.probe(world.infra.address_at(45000))
        assert observation.outcome == OUTCOME_SILENT

    def test_scan_filters_silent(self, world):
        node = add_resolver(world, 1, chaos_style=STYLE_ERROR)
        scanner = ChaosScanner(world.network, world.client_ip)
        observations = scanner.scan([node.ip,
                                     world.infra.address_at(45000)])
        assert len(observations) == 1


class TestBannerGrabbing:
    def test_grab_device_banners(self, world):
        node = add_resolver(world, 1,
                            device=DEVICE_CATALOG["zyxel-p-660hn-t1a"])
        grabber = BannerGrabber(world.network, world.client_ip)
        banners = grabber.grab(node.ip)
        assert banners.responded
        assert 21 in banners.banners
        assert "ZyXEL" in banners.all_text()
        # The device's web UI body is fetched too.
        assert banners.http_body and "ZyNOS" in banners.http_body

    def test_silent_device_not_included(self, world):
        node = add_resolver(world, 1,
                            device=DEVICE_CATALOG["silent-cpe"])
        grabber = BannerGrabber(world.network, world.client_ip)
        assert grabber.grab_all([node.ip]) == []


class TestFingerprinting:
    def make_banners(self, text, port=23):
        banners = HostBanners("1.2.3.4")
        banners.banners[port] = text
        return banners

    @pytest.mark.parametrize("text,hardware,os", [
        ("ZyXEL P-660HN\r\nPassword: ", "Router", "ZyNOS"),
        ("220 MikroTik FTP server ready", "Router", "RouterOS"),
        ("dm500plus login: ", "DVR", "Linux"),
        ("HTTP/1.0 200 OK\r\nServer: GoAhead-Webs", "Embedded", "Others"),
        ("BusyBox v1.19.4 built-in shell", "Embedded", "Linux"),
        ("220 Synology DS213 FTP server ready.", "NAS", "Linux"),
        ("SSH-2.0-OpenSSH_5.3 CentOS-5.8", "Server", "CentOS"),
        ("HTTP/1.1 200 OK\r\nServer: Microsoft-IIS/7.5", "Server",
         "Windows"),
        ("SSH-2.0-OpenSSH_6.2", "Unknown", "Unknown"),
    ])
    def test_rules(self, text, hardware, os):
        matcher = FingerprintMatcher()
        result = matcher.classify(self.make_banners(text))
        assert result[0] == hardware
        assert result[1] == os

    def test_catalog_devices_classified_consistently(self):
        # Every TCP-exposing catalog device must be fingerprinted back to
        # its own hardware category (or Unknown for the anon profiles).
        from repro.resolvers.devices import profiles_with_tcp
        matcher = FingerprintMatcher()
        for profile in profiles_with_tcp():
            banners = HostBanners("1.2.3.4")
            banners.banners.update(profile.banners)
            if profile.http_body:
                banners.http_body = profile.http_body
            hardware, os_name, __ = matcher.classify(banners)
            assert hardware == profile.hardware, profile.key
            assert os_name == profile.os, profile.key

    def test_classify_all(self):
        matcher = FingerprintMatcher()
        result = matcher.classify_all(
            [self.make_banners("220 Synology DS213 FTP server ready.")])
        assert result["1.2.3.4"][0] == "NAS"


class TestSnooping:
    def test_trace_shape_and_clock(self, world):
        activity = CacheActivityModel(
            CacheActivityModel.STYLE_NORMAL,
            tld_patterns={"com": (100.0, 0.0), "de": (5.0, 50.0)},
            ttl=7200)
        node = add_resolver(world, 1, activity=activity)
        prober = CacheSnoopingProber(world.network, world.client_ip,
                                     ("com", "de"), interval_minutes=60,
                                     duration_hours=3)
        start = world.clock.now
        traces = prober.run([node.ip])
        assert world.clock.now - start == 3 * 3600
        assert len(traces) == 1
        assert set(traces[0].observations) == {"com", "de"}
        assert len(traces[0].values_for("com")) == 4  # 0,1,2,3 hours

    def test_ttl_decays_between_probes(self, world):
        activity = CacheActivityModel(
            CacheActivityModel.STYLE_NORMAL,
            tld_patterns={"com": (10000.0, 0.0)}, ttl=50000)
        node = add_resolver(world, 1, activity=activity)
        prober = CacheSnoopingProber(world.network, world.client_ip,
                                     ("com",), duration_hours=2)
        trace = prober.run([node.ip])[0]
        values = trace.values_for("com")
        assert values[0] > values[1] > values[2]

    def test_unreachable_records_none(self, world):
        node = add_resolver(world, 1, activity=CacheActivityModel(
            CacheActivityModel.STYLE_UNREACHABLE))
        prober = CacheSnoopingProber(world.network, world.client_ip,
                                     ("com",), duration_hours=1)
        trace = prober.run([node.ip])[0]
        assert all(value is None for value in trace.values_for("com"))


class TestDomainScanner:
    def test_observation_fields(self, world):
        node = add_resolver(world, 1)
        scanner = DomainScanner(world.network, world.client_ip)
        observations = scanner.scan([node.ip], ["example.com"])
        assert len(observations) == 1
        observation = observations[0]
        assert observation.resolver_ip == node.ip
        assert observation.addresses == ("198.18.0.1",)
        assert observation.rcode == 0
        assert not observation.multiple_disagreeing

    def test_refused_mode_recorded(self, world):
        node = add_resolver(world, 2, response_mode=MODE_REFUSED)
        scanner = DomainScanner(world.network, world.client_ip)
        observations = scanner.scan([node.ip], ["example.com"])
        assert observations[0].rcode == 5

    def test_dead_resolver_absent(self, world):
        scanner = DomainScanner(world.network, world.client_ip)
        assert scanner.scan([world.infra.address_at(45001)],
                            ["example.com"]) == []

    def test_resolver_identity_attribution(self, world):
        # Two resolvers, same domain: observations must attribute by the
        # encoded resolver id even though query names are identical.
        first = add_resolver(world, 1)
        second = add_resolver(world, 2)
        scanner = DomainScanner(world.network, world.client_ip)
        observations = scanner.scan([first.ip, second.ip],
                                    ["example.com"])
        assert {o.resolver_ip for o in observations} == {first.ip,
                                                         second.ip}

    def test_disagreement_on_rcode_alone(self):
        # GFW NXDOMAIN injection: an injected NXDOMAIN followed by the
        # genuine empty NOERROR — both address lists empty — must still
        # count as disagreeing responses (regression: only the address
        # lists were compared, so rcode-only disagreement was missed).
        observation = DnsObservation(
            "example.com", "1.2.3.4", 3, [],
            all_responses=[(3, []), (0, [])])
        assert observation.multiple_disagreeing

    def test_disagreement_on_addresses(self):
        observation = DnsObservation(
            "example.com", "1.2.3.4", 0, ["6.6.6.6"],
            all_responses=[(0, ["6.6.6.6"]), (0, ["198.18.0.1"])])
        assert observation.multiple_disagreeing

    def test_agreeing_duplicates_not_flagged(self):
        observation = DnsObservation(
            "example.com", "1.2.3.4", 0, ["198.18.0.1"],
            all_responses=[(0, ["198.18.0.1"]), (0, ["198.18.0.1"])])
        assert not observation.multiple_disagreeing

    def test_ns_record_count(self, world):
        from repro.resolvers import NsOnlyBehavior
        node = add_resolver(world, 3, behaviors=[NsOnlyBehavior()])
        scanner = DomainScanner(world.network, world.client_ip)
        observation = scanner.scan([node.ip], ["example.com"])[0]
        assert observation.ns_record_count == 1
        assert observation.addresses == ()
