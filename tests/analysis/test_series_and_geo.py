"""Tests for magnitude, geography, fluctuation, and churn analyses."""

import pytest

from repro.analysis.churn import (
    churn_survival,
    day_one_leavers,
    dynamic_rdns_share,
)
from repro.analysis.fluctuation import (
    EXPLANATION_BLOCKED,
    EXPLANATION_FILTERED,
    EXPLANATION_SHUTDOWN,
    as_fluctuation,
    broadband_share_of_top_networks,
    classify_dark_networks,
    dark_networks,
)
from repro.analysis.geography import (
    country_fluctuation,
    extreme_changes,
    format_fluctuation,
    rir_fluctuation,
)
from repro.analysis.magnitude import (
    decline_ratio,
    format_series,
    magnitude_series,
)
from repro.inetmodel import (
    AsRegistry,
    AutonomousSystem,
    GeoIpDatabase,
    PrefixAllocator,
)
from repro.scanner.campaign import WeeklySnapshot
from repro.scanner.ipv4scan import ScanResult


def make_result(timestamp, ips_by_rcode):
    result = ScanResult(timestamp)
    for rcode, ips in ips_by_rcode.items():
        for ip in ips:
            result.record(ip, rcode, ip)
    return result


def make_world():
    allocator = PrefixAllocator()
    registry = AsRegistry()
    prefixes = {}
    plans = [(64500, "US", "broadband"), (64501, "TR", "broadband"),
             (64502, "CN", "hosting")]
    for asn, country, kind in plans:
        prefix = allocator.allocate(22)
        registry.add(AutonomousSystem(asn, "AS-%s" % country, country,
                                      kind, [prefix]))
        prefixes[country] = prefix
    return registry, GeoIpDatabase(registry), prefixes


class TestMagnitude:
    def test_series_and_decline(self):
        snapshots = [
            WeeklySnapshot(0, make_result(0, {0: ["1.0.0.%d" % i
                                                  for i in range(10)]})),
            WeeklySnapshot(1, make_result(1, {0: ["1.0.0.%d" % i
                                                  for i in range(6)]})),
        ]
        series = magnitude_series(snapshots)
        assert series[0]["noerror"] == 10
        assert series[1]["noerror"] == 6
        assert decline_ratio(series) == pytest.approx(0.6)
        assert "week" in format_series(series)

    def test_decline_ratio_empty(self):
        assert decline_ratio([]) == 0.0


class TestGeography:
    def test_country_fluctuation(self):
        __, geoip, prefixes = make_world()
        first = make_result(0, {0: [prefixes["US"].address_at(i)
                                    for i in range(10)]
                                + [prefixes["TR"].address_at(i)
                                   for i in range(6)]})
        last = make_result(1, {0: [prefixes["US"].address_at(i)
                                   for i in range(8)]
                               + [prefixes["TR"].address_at(i)
                                  for i in range(2)]})
        rows, top_share = country_fluctuation(first, last, geoip, top=2)
        assert rows[0]["country"] == "US"
        assert rows[0]["delta_pct"] == pytest.approx(-20.0)
        assert rows[1]["country"] == "TR"
        assert rows[1]["delta_pct"] == pytest.approx(-66.7, abs=0.1)
        assert top_share == pytest.approx(100.0)
        assert "US" in format_fluctuation(rows, "Country")

    def test_extreme_changes_sorted(self):
        __, geoip, prefixes = make_world()
        first = make_result(0, {0: [prefixes["US"].address_at(i)
                                    for i in range(20)]
                                + [prefixes["TR"].address_at(i)
                                   for i in range(20)]})
        last = make_result(1, {0: [prefixes["US"].address_at(i)
                                   for i in range(20)]
                               + [prefixes["TR"].address_at(i)
                                  for i in range(1)]})
        changes = extreme_changes(first, last, geoip, min_first=10)
        assert changes[0][0] == "TR"  # strongest decline first

    def test_rir_fluctuation(self):
        __, geoip, prefixes = make_world()
        first = make_result(0, {0: [prefixes["US"].address_at(1),
                                    prefixes["CN"].address_at(1),
                                    prefixes["CN"].address_at(2)]})
        last = make_result(1, {0: [prefixes["CN"].address_at(1)]})
        rows = rir_fluctuation(first, last, geoip)
        assert rows[0]["rir"] == "APNIC"
        assert rows[0]["first"] == 2


class TestAsFluctuation:
    def test_largest_drop_first(self):
        registry, __, prefixes = make_world()
        first = make_result(0, {0: [prefixes["US"].address_at(i)
                                    for i in range(10)]
                                + [prefixes["TR"].address_at(i)
                                   for i in range(10)]})
        last = make_result(1, {0: [prefixes["US"].address_at(i)
                                   for i in range(9)]})
        rows = as_fluctuation(first, last, registry)
        assert rows[0]["country"] == "TR"
        assert rows[0]["delta"] == -10

    def test_dark_network_classification(self):
        registry, __, prefixes = make_world()
        first = make_result(0, {0: [prefixes["US"].address_at(i)
                                    for i in range(150)]
                                + [prefixes["TR"].address_at(i)
                                   for i in range(120)]
                                + [prefixes["CN"].address_at(i)
                                   for i in range(30)]})
        last = make_result(1, {0: []})
        dark = dark_networks(first, last, registry)
        assert len(dark) == 3
        # Verification scan still reaches the US network: blocked.
        verification = make_result(1, {0: [prefixes["US"].address_at(0)]})
        classified = classify_dark_networks(dark, verification, registry)
        by_country = {row["country"]: row["explanation"]
                      for row in classified}
        assert by_country["US"] == EXPLANATION_BLOCKED
        assert by_country["TR"] == EXPLANATION_FILTERED  # >= 100 resolvers
        assert by_country["CN"] == EXPLANATION_SHUTDOWN  # < 100 resolvers

    def test_broadband_share(self):
        registry, __, prefixes = make_world()
        result = make_result(0, {0: [prefixes["US"].address_at(i)
                                     for i in range(10)]
                                 + [prefixes["CN"].address_at(i)
                                    for i in range(5)]})
        share, rows = broadband_share_of_top_networks(result, registry)
        assert share == pytest.approx(100 * 10 / 15)
        assert rows[0]["kind"] == "broadband"


class TestChurnAnalysis:
    def test_survival_curve(self):
        cohort_ips = ["1.0.0.%d" % i for i in range(10)]
        snapshots = [
            WeeklySnapshot(0, make_result(0, {0: cohort_ips})),
            WeeklySnapshot(1, make_result(1, {0: cohort_ips[:5]
                                              + ["9.9.9.9"]})),
            WeeklySnapshot(2, make_result(2, {0: cohort_ips[:2]})),
        ]
        curve = churn_survival(snapshots)
        assert curve == [(0, 100.0), (1, 50.0), (2, 20.0)]

    def test_day_one_leavers(self):
        first = make_result(0, {0: ["1.0.0.1", "1.0.0.2", "1.0.0.3"]})
        day1 = make_result(1, {0: ["1.0.0.2"]})
        assert day_one_leavers(first, day1) == {"1.0.0.1", "1.0.0.3"}

    def test_dynamic_rdns_share(self):
        # The {ip: ptr} snapshot a campaign captures; 1.0.0.3 has no
        # PTR at all.
        rdns = {"1.0.0.1": "host-1.dynamic.isp.example",
                "1.0.0.2": "static-2.isp.example"}
        stats = dynamic_rdns_share({"1.0.0.1", "1.0.0.2", "1.0.0.3"},
                                   rdns)
        assert stats["leavers"] == 3
        assert stats["with_rdns"] == 2
        assert stats["dynamic"] == 1
        assert stats["dynamic_share_pct"] == pytest.approx(50.0)
