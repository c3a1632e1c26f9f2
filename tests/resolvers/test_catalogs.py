"""Tests for the software and device catalogs."""

from repro.resolvers.devices import (
    ANONYMOUS_PROFILE_KEYS,
    DEVICE_CATALOG,
    DeviceProfile,
    prevalence_of,
    profiles_with_tcp,
)
from repro.resolvers.software import (
    CHAOS_STYLE_SHARES,
    HIDDEN_VERSION_STRINGS,
    LONG_TAIL_SOFTWARE,
    SOFTWARE_CATALOG,
    SoftwareProfile,
)


class TestSoftwareCatalog:
    def test_top10_size_and_order(self):
        assert len(SOFTWARE_CATALOG) == 10
        shares = [share for __, share in SOFTWARE_CATALOG]
        assert shares == sorted(shares, reverse=True)
        assert SOFTWARE_CATALOG[0][0].full_name == "BIND 9.8.2"
        assert abs(shares[0] - 0.198) < 1e-9

    def test_catalog_shares_below_one(self):
        total = sum(share for __, share in SOFTWARE_CATALOG)
        assert 0.6 < total < 0.7  # ~61.5% in the paper's Table 3

    def test_long_tail_individually_small(self):
        remaining = 1.0 - sum(share for __, share in SOFTWARE_CATALOG)
        per_entry = remaining / len(LONG_TAIL_SOFTWARE)
        smallest_top10 = SOFTWARE_CATALOG[-1][1]
        assert per_entry < smallest_top10

    def test_chaos_style_shares_sum_to_one(self):
        assert abs(sum(s for __, s in CHAOS_STYLE_SHARES) - 1.0) < 1e-9

    def test_vulnerability_flags(self):
        bind982 = SOFTWARE_CATALOG[0][0]
        assert "IP Bypass" in bind982.cves
        assert "DoS" in bind982.cves
        assert "RCE" not in bind982.cves

    def test_profile_identity(self):
        left = SoftwareProfile("BIND", "9.8.2", "2012-04")
        right = SoftwareProfile("BIND", "9.8.2", "2099-01")
        assert left == right
        assert hash(left) == hash(right)

    def test_hidden_strings_not_versions(self):
        from repro.analysis.software import SoftwareVersionMatcher
        matcher = SoftwareVersionMatcher()
        for text in HIDDEN_VERSION_STRINGS:
            assert matcher.match(text) is None, text


class TestDeviceCatalog:
    def test_anonymous_profiles_exist_with_tcp(self):
        for key in ANONYMOUS_PROFILE_KEYS:
            profile = DEVICE_CATALOG[key]
            assert profile.has_tcp_services
            assert profile.hardware == "Unknown"

    def test_silent_profiles_have_no_ports(self):
        assert not DEVICE_CATALOG["silent-cpe"].has_tcp_services
        assert DEVICE_CATALOG["silent-cpe"].open_ports() == frozenset()

    def test_profiles_with_tcp_excludes_silent(self):
        keys = {profile.key for profile in profiles_with_tcp()}
        assert "silent-cpe" not in keys
        assert "zyxel-p-660hn-t1a" in keys

    def test_zyxel_runs_zynos(self):
        assert DEVICE_CATALOG["zyxel-p-660hn-t1a"].os == "ZyNOS"

    def test_dm500plus_token_present(self):
        # The paper's example fingerprint token.
        banners = DEVICE_CATALOG["dvr-dm500plus"].banners
        assert any("dm500plus login" in banner for banner in
                   banners.values())

    def test_prevalence_defaults_to_one(self):
        assert prevalence_of(DeviceProfile("nonexistent", "Router",
                                           "Linux")) == 1.0
        assert prevalence_of(DEVICE_CATALOG["zyxel-p-660hn-t1a"]) > 1.0

    def test_http_body_opens_port_80(self):
        profile = DeviceProfile("x", "Router", "Linux",
                                http_body="<html></html>")
        assert 80 in profile.open_ports()
