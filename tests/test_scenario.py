"""Invariants of the built scenario world (session-scoped small build)."""

import hashlib
import sys

import pytest

from repro.datasets import (
    DOMAIN_SETS,
    GROUND_TRUTH_DOMAIN,
    MEASUREMENT_DOMAIN,
    all_domains,
)
from repro.inetmodel import AddressPlan
from repro.netsim.gfw import GreatFirewall
from repro.scenario import (
    COUNTRY_PLAN,
    LANDING_IPS_PER_COUNTRY,
    ScenarioConfig,
    build_scenario,
)
from repro.websim.pages import CENSOR_COUNTRIES


class TestDomainSets:
    def test_paper_category_sizes(self):
        sizes = {category: len(domains)
                 for category, domains in DOMAIN_SETS.items()}
        assert sizes == {
            "Ads": 9, "Adult": 4, "Alexa": 20, "Antivirus": 15,
            "Banking": 20, "Dating": 3, "Filesharing": 5, "Gambling": 4,
            "Malware": 13, "MX": 13, "NX": 21, "Tracking": 5, "Misc": 22,
        }

    def test_total_with_ground_truth_is_155(self):
        assert len(all_domains()) + 1 == 155

    def test_no_duplicate_domains(self):
        names = [d.name for d in all_domains()]
        assert len(names) == len(set(names))

    def test_nx_domains_flagged(self):
        for domain in DOMAIN_SETS["NX"]:
            assert not domain.exists

    def test_mx_domains_are_mail(self):
        for domain in DOMAIN_SETS["MX"]:
            assert domain.kind == "mail"

    def test_paper_named_domains_present(self):
        names = {d.name for d in all_domains()}
        for name in ("irc.zief.pl", "kickass.to", "thepiratebay.se",
                     "match.com", "bet-at-home.com", "rswkllf.twitter.com",
                     "amason.com", "ghoogle.com", "wikipeida.org",
                     "rotten.com", "wikileaks.org", "okcupid.com",
                     "adultfinder.com", "youporn.com", "blogspot.com",
                     "torproject.org", "paypal.com", "alipay.com"):
            assert name in names, name


class TestCountryPlan:
    def test_top10_matches_table1(self):
        top10 = [(c, n) for c, n, __ in COUNTRY_PLAN[:10]]
        assert top10 == [
            ("US", 2958640), ("CN", 2418949), ("TR", 1439736),
            ("VN", 1393618), ("MX", 1372934), ("IN", 1269714),
            ("TH", 1214042), ("IT", 1172001), ("CO", 1062080),
            ("TW", 1061218)]

    def test_table1_changes(self):
        changes = {c: delta for c, __, delta in COUNTRY_PLAN}
        assert changes["US"] == pytest.approx(-0.142)
        assert changes["IN"] == pytest.approx(+0.127)
        assert changes["TW"] == pytest.approx(-0.573)
        assert changes["AR"] == pytest.approx(-0.750)
        assert changes["MY"] == pytest.approx(+0.597)
        assert changes["LB"] == pytest.approx(+0.767)

    def test_total_near_paper(self):
        total = sum(count for __, count, __d in COUNTRY_PLAN)
        assert 25e6 < total < 30e6

    def test_top10_share_near_491(self):
        total = sum(count for __, count, __d in COUNTRY_PLAN)
        top10 = sum(count for __, count, __d in COUNTRY_PLAN[:10])
        assert 0.45 < top10 / total < 0.53


class TestBuiltWorld:
    def test_population_scaled(self, small_scenario):
        expected = sum(count for __, count, __d in COUNTRY_PLAN) \
            / small_scenario.config.scale
        built = len(small_scenario.population.resolvers)
        assert built == pytest.approx(expected, rel=0.6)

    def test_every_existing_web_domain_resolvable(self, small_scenario):
        scenario = small_scenario
        missing = []
        for domain in all_domains():
            if not domain.exists or domain.kind != "web":
                continue
            if domain.category == "Malware":
                continue  # deliberately dead/sinkholed/parked
            result = scenario.service.resolve_trusted(scenario.network,
                                                      domain.name)
            if result.rcode != 0 or not result.addresses:
                missing.append(domain.name)
        assert not missing

    def test_ground_truth_domain_resolves(self, small_scenario):
        result = small_scenario.service.resolve_trusted(
            small_scenario.network, GROUND_TRUTH_DOMAIN)
        assert result.addresses

    def test_measurement_domain_wildcard(self, small_scenario):
        result = small_scenario.service.resolve_trusted(
            small_scenario.network, "r123.00010203." + MEASUREMENT_DOMAIN)
        assert result.addresses

    def test_gfw_installed_over_cn(self, small_scenario):
        gfw = small_scenario.gfw
        assert isinstance(gfw, GreatFirewall)
        assert gfw.censors_name("facebook.com")
        cn_resolvers = small_scenario.population.by_country["CN"]
        inside = sum(1 for node in cn_resolvers if gfw._inside(node.ip))
        assert inside / len(cn_resolvers) > 0.8

    def test_landing_pages_for_all_censor_countries(self, small_scenario):
        assert set(small_scenario.landing_ips) == set(CENSOR_COUNTRIES)
        for ips in small_scenario.landing_ips.values():
            assert len(ips) == LANDING_IPS_PER_COUNTRY

    def test_case_study_groups_nonempty(self, small_scenario):
        groups = small_scenario.case_study_resolvers
        for name in ("ad_inject", "phish_paypal", "proxy_http",
                     "malware", "mail_banner_copy"):
            assert groups[name], name

    def test_case_study_resolvers_not_forwarders(self):
        # A forwarding proxy relays queries verbatim: behaviors stuck on
        # it would never fire, silently shrinking the case studies.
        # (Fresh scenario: the session fixture may have churned IPs.)
        scenario = build_scenario(ScenarioConfig(scale=60000, seed=23))
        nodes = {node.ip: node
                 for node in scenario.population.resolvers}
        for name, ips in scenario.case_study_resolvers.items():
            for ip in ips:
                node = nodes.get(ip)
                assert node is not None and node.forward_to is None, \
                    (name, ip)

    def test_mail_hostnames_resolve_to_mail_servers(self, small_scenario):
        scenario = small_scenario
        result = scenario.service.resolve_trusted(scenario.network,
                                                  "imap.gmail.com")
        assert result.addresses
        node = scenario.network.node_at(result.addresses[0])
        assert 143 in node.tcp_ports()

    def test_cdn_domains_have_pools(self, small_scenario):
        pools = small_scenario.service.cdn_pools
        assert "facebook.com" in pools
        assert len(pools["facebook.com"]) >= 6

    def test_self_ip_resolvers_have_login_pages(self, small_scenario):
        from repro.resolvers.behaviors import SelfIpBehavior
        count = 0
        for node in small_scenario.population.resolvers:
            if any(isinstance(b, SelfIpBehavior) for b in node.behaviors):
                count += 1
                body = node.device_page or (node.device.http_body
                                            if node.device else None)
                assert body
        assert count > 0

    def test_scanner_ips_distinct(self, small_scenario):
        assert small_scenario.scanner_ip != \
            small_scenario.verification_scanner_ip
        # The verification scanner lives in a different /8 (§2.2).
        assert small_scenario.scanner_ip.split(".")[0] != \
            small_scenario.verification_scanner_ip.split(".")[0]


class TestPoolApportionment:
    """Per-AS broadband splits must conserve every country's hosts.

    Regression for the independent-``int(round(...))`` split, which
    drifted from the country total on ~24% of counts.  Checked at every
    published benchmark scale, including 1:27 (the million-resolver
    profile), where counts are large enough that a one-host drift would
    silently change the world population.
    """

    SCALES = (2000, 200, 27)

    @pytest.mark.parametrize("scale", SCALES)
    def test_splits_conserve_country_totals(self, scale):
        from repro.scenario import (BROADBAND_SPLIT_SHARES,
                                    split_pool_counts)
        from repro.util import apportion
        config = ScenarioConfig(scale=scale)
        for country, paper_count, change in COUNTRY_PLAN:
            count = config.scaled(paper_count)
            pool_counts, grown_counts = split_pool_counts(count, change)
            raw = apportion(count, BROADBAND_SPLIT_SHARES)
            assert sum(raw) == count, country
            # Minimum floors may only ever add hosts, never drop them.
            assert sum(pool_counts) >= count, country
            assert all(n >= 2 for n in pool_counts), country
            if all(share >= 2 for share in raw):
                assert pool_counts == raw, country
            # Growth never shrinks a pool, and growing countries
            # apportion the grown total exactly (before floors).
            assert all(g >= p for g, p in
                       zip(grown_counts, pool_counts)), country
            if change > 0:
                grown_total = int(round(count * (1 + change)))
                assert sum(apportion(grown_total,
                                     BROADBAND_SPLIT_SHARES)) \
                    == grown_total, country


class TestConfigValidation:
    @pytest.mark.parametrize("knobs", [{"scale": 0}, {"scale": -2000},
                                       {"scale": float("nan")},
                                       {"node_cache": 0},
                                       {"loss_rate": float("nan")},
                                       {"loss_rate": -0.5},
                                       {"loss_rate": 1.5}])
    def test_out_of_range_rejected(self, knobs):
        # scale=0 used to surface as a ZeroDivisionError in scaled(), a
        # NaN scale as a ValueError there.
        with pytest.raises(ValueError):
            ScenarioConfig(**knobs)


def world_digests(scenario):
    """A short sha256 of each part of a built world, by part."""
    registry = scenario.as_registry
    first = AddressPlan.FIRST_ASN
    parts = {
        "ases": [(system.asn, system.name, system.country, system.kind,
                  [prefix.cidr for prefix in system.prefixes])
                 for system in map(registry.get,
                                   range(first, first + len(registry)))],
        "nodes": sorted((ip, type(node).__name__)
                        for ip, node in scenario.network._nodes.items()),
        "special": sorted(scenario.special_ips.items()),
        "landing": sorted(scenario.landing_ips.items()),
        "case_study": sorted(scenario.case_study_resolvers.items()),
        "prefixes": [prefix.cidr for prefix in scenario.resolver_prefixes],
        "pool": [(host.node.ip, host.node.lazy_flags)
                 for host in scenario.population.hosts],
    }
    return {name: hashlib.sha256(repr(value).encode()).hexdigest()[:16]
            for name, value in parts.items()}


# The special hosts and landing pages draw only integers; every other
# part follows pool sizes and draw tables made by float sums, which
# differ between CPython minor versions, so those are pinned on 3.11.
EVERY_VERSION = ("special", "landing")
ON_RECORD = (sys.implementation.name == "cpython"
             and sys.version_info[:2] == (3, 11))

# world_digests of build_scenario(ScenarioConfig(scale=5000, seed=S,
# lazy_population=L)).  A moved AS, prefix, host or draw changes one;
# every digest here was equal at the commit before the AddressPlan.
WORLD_PINS = {
    (7, False): {"ases": "55ecb28c83c610c6", "nodes": "4167ee2ee89aace3",
                 "special": "79a6aafd79f4fd36", "landing": "315460d2308676a4",
                 "case_study": "e8d7449b2f42e181",
                 "prefixes": "e1ca7ca70058a348", "pool": "10f2444ff4062c0b"},
    (7, True): {"ases": "55ecb28c83c610c6", "nodes": "0e7a136d7cce700f",
                "special": "79a6aafd79f4fd36", "landing": "315460d2308676a4",
                "case_study": "e8d7449b2f42e181",
                "prefixes": "e1ca7ca70058a348", "pool": "c142e56da48514aa"},
    (11, False): {"ases": "55ecb28c83c610c6", "nodes": "072105d9971b977c",
                  "special": "b706079616729d04",
                  "landing": "315460d2308676a4",
                  "case_study": "79cb362d4fc1b15f",
                  "prefixes": "e1ca7ca70058a348",
                  "pool": "0da74c2601d2d8bc"},
    (11, True): {"ases": "55ecb28c83c610c6", "nodes": "a796d3721dfa0bc7",
                 "special": "b706079616729d04",
                 "landing": "315460d2308676a4",
                 "case_study": "79cb362d4fc1b15f",
                 "prefixes": "e1ca7ca70058a348", "pool": "52fe4d3f6ac486ea"},
}


@pytest.mark.parametrize("seed, lazy", sorted(WORLD_PINS))
def test_world_is_pinned(seed, lazy):
    digests = world_digests(build_scenario(ScenarioConfig(
        scale=5000, seed=seed, lazy_population=lazy)))
    pinned = WORLD_PINS[seed, lazy]
    if not ON_RECORD:
        digests = {name: digests[name] for name in EVERY_VERSION}
        pinned = {name: pinned[name] for name in EVERY_VERSION}
    assert digests == pinned
