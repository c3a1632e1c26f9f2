"""Paper fidelity: every number of the paper this repository reproduces,
as one declared table.

Each :class:`Row` names one number of the paper (a table cell, a figure
reading or a claim of the text): the paper's value, an extractor that
measures it over one shared :class:`Study`, a declared absolute
tolerance in the row's unit, the bounds the measured value must always
keep, and, where the reproduction is known to miss the paper, the
reason.  The row rule (:func:`judge`):

* no reason: the row passes when it lies within ``tol`` of the paper;
* a reason: the row passes when it lies outside ``tol`` and inside its
  band.  A known deviation that moves inside its tolerance fails with
  "fixed: delete the reason", so every fix gets recorded here.

Relational checks (dominance, orderings, top-k overlap, exact counts)
are plain assertions inside the extractors.  ``pytest
benchmarks/test_fidelity.py`` checks every row, and ``python -m
benchmarks.fidelity`` prints the table as markdown: EXPERIMENTS.md's
generated block.  ``REPRO_BENCH_SCALE`` (default 1:12 000 of the paper's
Internet) and ``REPRO_BENCH_SEED`` (default 7) choose the world.
"""

import math
import os
import random
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Optional

from repro.analysis.casestudies import case_study_summary
from repro.analysis.churn import (
    churn_survival,
    day_one_leavers,
    dynamic_rdns_share,
)
from repro.analysis.devices import device_table, share_of
from repro.analysis.fluctuation import (
    EXPLANATION_BLOCKED,
    EXPLANATION_FILTERED,
    EXPLANATION_SHUTDOWN,
    as_fluctuation,
    broadband_share_of_top_networks,
    classify_dark_networks,
    dark_networks,
    weekly_as_history,
)
from repro.analysis.geography import (
    country_fluctuation,
    extreme_changes,
    rir_fluctuation,
)
from repro.analysis.magnitude import decline_ratio, magnitude_series
from repro.analysis.manipulation import (
    censorship_coverage,
    classification_table,
    gfw_double_responses,
    legit_addresses_from_report,
    prefilter_summary,
    social_geography,
    suspicious_behavior_stats,
    unfetchable_breakdown,
)
from repro.analysis.software import software_table
from repro.analysis.utilization import (
    CLASS_DECREASING,
    CLASS_EMPTY,
    CLASS_IN_USE,
    CLASS_RESETTING,
    CLASS_SINGLE,
    CLASS_STATIC_TTL,
    CLASS_ZERO_TTL,
    utilization_summary,
)
from repro.authdns import HierarchyBuilder
from repro.authdns.dnssec import (
    STRATEGY_FIRST,
    STRATEGY_WAIT_SIGNED,
    DnssecValidator,
    ValidatingClient,
)
from repro.core.clustering import hierarchical_cluster
from repro.core.distance import PageDistance
from repro.core.features import extract_features
from repro.core.labeling import (
    LABEL_BLOCKING,
    LABEL_CENSORSHIP,
    LABEL_HTTP_ERROR,
    LABEL_LOGIN,
    LABEL_MISC,
    LABEL_PARKING,
    LABEL_SEARCH,
)
from repro.core.prefilter import Prefilterer
from repro.datasets import (
    ALL_CATEGORIES,
    DOMAIN_SETS,
    GROUND_TRUTH_DOMAIN,
    ScanDomain,
    all_domains,
)
from repro.dnswire.name import recover_0x20_bits
from repro.inetmodel import PrefixAllocator
from repro.netsim import GreatFirewall, Ipv4Network, Network, SimClock
from repro.netsim.clock import DAY
from repro.reporting import fingerprint_phase, snoop_phase
from repro.resolvers import ResolutionService, ResolverNode
from repro.resolvers.cache import CacheActivityModel
from repro.scanner.campaign import WeeklySnapshot
from repro.scanner.encoding import (
    MAX_RESOLVER_ID,
    PORT_BITS,
    TXID_BITS,
    ResolverIdCodec,
)
from repro.scanner.popularity import (
    CLASS_HEAVY,
    CLASS_IDLE,
    CLASS_LIGHT,
    CLASS_MODERATE,
    PopularityProber,
)
from repro.scenario import ScenarioConfig, build_scenario
from repro.websim import SiteLibrary, pages

SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "12000"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))
CAMPAIGN_WEEKS = 55
SNOOP_SAMPLE = 400
SOCIAL = ("facebook.com", "twitter.com", "youtube.com")
GAMBLING = ("bet-at-home.com", "bet365.com", "pokerstars.com",
            "williamhill.com")


# -- the row rule -------------------------------------------------------------

OK, DEVIATION, NA, FAIL = "ok", "deviation", "n/a", "FAIL"


class NotApplicable(Exception):
    """Raised by an extractor whose precondition does not hold."""


def need(condition, precondition):
    if not condition:
        raise NotApplicable(precondition)


@dataclass(frozen=True)
class Row:
    """One number of the paper and how the reproduction measures it.

    ``paper`` is a number, or a ``(lo, hi)`` range where the paper
    states a range or a bound.  ``band`` is an interval such as
    ``"(40, 60)"`` or ``"[0.9, inf)"`` (brackets closed, parentheses
    open) the measured value must keep whatever the tolerance says.
    """

    artifact: str
    label: str
    paper: object
    measure: Callable
    tol: float
    band: Optional[str] = None
    deviation: Optional[str] = None
    unit: str = "%"
    fmt: str = "%.1f"


def paper_range(paper):
    return paper if isinstance(paper, tuple) else (paper, paper)


def within(band, value):
    if band is None:
        return True
    lo, hi = (float(end) for end in band[1:-1].split(","))
    return ((lo < value) if band[0] == "(" else (lo <= value)) and \
        ((value < hi) if band[-1] == ")" else (value <= hi))


def judge(row, value):
    """The row rule: ``(status, note)`` for ``value`` measured for
    ``row``."""
    if not within(row.band, value):
        return FAIL, "outside the band %s" % row.band
    lo, hi = paper_range(row.paper)
    inside = lo - row.tol <= value <= hi + row.tol
    if row.deviation is None:
        return (OK, "") if inside else (
            FAIL, "outside the tolerance ±%g" % row.tol)
    if inside:
        return FAIL, "fixed: delete the reason"
    return DEVIATION, row.deviation


def evaluate(row, study):
    """``(value, status, note)`` of one row over ``study``."""
    try:
        value = row.measure(study)
    except NotApplicable as why:
        return None, NA, str(why)
    return (value,) + judge(row, value)


# -- markdown -----------------------------------------------------------------

def show(row, value):
    return (row.fmt % value) + row.unit


def show_paper(row):
    lo, hi = paper_range(row.paper)
    if lo == hi:
        return show(row, lo)
    if hi == math.inf:
        return "≥ " + show(row, lo)
    return "%s–%s" % (row.fmt % lo, show(row, hi))


def render_row(row, value, status, note):
    measured = "n/a" if status == NA else (
        "—" if value is None else show(row, value))
    verdict = status + (": " + note if note else "")
    return "| %s | %s | %s | ±%g | %s | %s |" % (
        row.label, show_paper(row), measured, row.tol, row.band or "—",
        verdict)


HEADER = ("| row | paper | measured | tol | band | status |\n"
          "|---|---|---|---|---|---|")


def render(rows, study):
    """The table as markdown: one section per paper artifact."""
    lines = ["## Paper vs. measured (scale 1:%d, seed %d)" % (study.scale,
                                                            study.seed),
             "",
             "Generated by `PYTHONPATH=src python -m benchmarks.fidelity`"
             " from the rows of `benchmarks/fidelity.py`; "
             "`pytest benchmarks/test_fidelity.py` checks each row.  "
             "A row is *ok* within `tol` of the paper; a *deviation* "
             "lies outside it for the reason given and inside its band; "
             "a row is *n/a* when its precondition does not hold in this "
             "world.  Tolerances come from what the seed alone moves at "
             "1:12 000 (`benchmarks/fidelity.py` says how).  For "
             "ablations and extensions "
             "the paper column is what the paper's argument predicts."]
    artifact = None
    for row in rows:
        if row.artifact != artifact:
            artifact = row.artifact
            lines += ["", "### " + artifact, "", HEADER]
        try:
            outcome = evaluate(row, study)
        except AssertionError as error:
            outcome = (None, FAIL, str(error) or "assertion failed")
        lines.append(render_row(row, *outcome))
    return "\n".join(lines)


# -- the shared study ---------------------------------------------------------

def run_campaign(scenario):
    """The 13-month weekly campaign, plus a day-1 cohort re-probe."""
    camp = scenario.new_campaign(verify=True)
    # Week 0 by hand so the day-1 churn probe (Fig. 2) can happen.
    scenario.churn.step()
    result0 = camp.scanner.scan(camp.target_space)
    camp.snapshots.append(WeeklySnapshot(0, result0))
    # Snapshot the cohort's rDNS records *at scan time*: once a host
    # rebinds, the live registry forgets its old PTR (§2.5 analysis).
    camp.cohort_rdns = {ip: scenario.rdns.ptr(ip)
                        for ip in result0.noerror
                        if scenario.rdns.ptr(ip)}
    scenario.clock.advance(DAY)
    scenario.churn.step()
    camp.day1_result = camp.scanner.scan_addresses(
        sorted(result0.responders))
    scenario.clock.advance(6 * DAY)
    for week in range(1, CAMPAIGN_WEEKS):
        camp.run_week(verify=(week == CAMPAIGN_WEEKS - 1))
    return camp


def rerun_prefilter(scenario, report, **rule_flags):
    prefilterer = Prefilterer(
        scenario.network, scenario.service, scenario.as_registry,
        scenario.rdns, ca=scenario.ca,
        known_cdn_common_names=[p.common_name.lstrip("*.")
                                for p in scenario.cdn_providers],
        probe_source_ip=scenario.pipeline_source_ip, **rule_flags)
    catalog = {d.name: d for d in all_domains()}
    return prefilterer.process(report.observations, catalog)


class Study:
    """One world measured the way the paper's study measures it.

    Everything that sends packets runs here, in one fixed order
    (campaign, the 13 + GroundTruth pipelines, the prefilter ablation,
    snooping, the case studies' TLS checks, CHAOS, banners), so each row
    reads the same numbers whichever rows run.  The analyses below only
    read what was collected.
    """

    def __init__(self, scale=SCALE, seed=SEED):
        self.scale, self.seed = scale, seed
        scenario = self.scenario = build_scenario(
            ScenarioConfig(scale=scale, seed=seed))
        self.campaign = run_campaign(scenario)
        self.live = sorted(self.campaign.last().result.noerror)
        self.reports = {}
        for category in ALL_CATEGORIES:
            self.reports[category] = scenario.new_pipeline().run(
                self.live, list(DOMAIN_SETS[category]))
        self.reports["GroundTruth"] = scenario.new_pipeline().run(
            self.live, [ScanDomain(GROUND_TRUTH_DOMAIN, "GroundTruth")])
        alexa = self.reports["Alexa"]  # CDN-heavy: the hard case
        self.prefilter_ablation = {
            "AS only": rerun_prefilter(scenario, alexa,
                                       enable_rdns_rule=False,
                                       enable_cert_rule=False),
            "AS+rDNS": rerun_prefilter(scenario, alexa,
                                       enable_cert_rule=False),
            "AS+cert": rerun_prefilter(scenario, alexa,
                                       enable_rdns_rule=False),
            "full": rerun_prefilter(scenario, alexa),
        }
        self.snooping = snoop_phase(scenario,
                                    self.live[:SNOOP_SAMPLE])["traces"]
        # Case studies span several sets: merge the relevant reports.
        merged = type(alexa)()
        for category in ("Ads", "Banking", "MX", "Misc", "Alexa"):
            report = self.reports[category]
            merged.labeled.extend(report.labeled)
            merged.mail_captures.extend(report.mail_captures)
            merged.http_captures.extend(report.http_captures)
            merged.ground_truth_bodies.update(report.ground_truth_bodies)
        self.cases = case_study_summary(merged, network=scenario.network)
        fingerprints = fingerprint_phase(scenario, self.live)
        self.chaos = fingerprints["software"]
        self.classifications = fingerprints["classifications"]

    @property
    def first(self):
        return self.campaign.first().result

    @property
    def last(self):
        return self.campaign.last().result

    @cached_property
    def series(self):
        series = magnitude_series(self.campaign.snapshots)
        assert series[0]["noerror"] > 0
        refused_first, refused_last = (series[0]["refused"],
                                       series[-1]["refused"])
        assert abs(refused_last - refused_first) <= \
            0.25 * refused_first + 5, "REFUSED should stay roughly stable"
        for row in series:
            assert row["servfail"] < row["noerror"] <= row["all"]
        return series

    @cached_property
    def survival(self):
        curve = churn_survival(self.campaign.snapshots)
        assert curve[0][1] == 100.0
        # Near-monotone decline (a churned address can occasionally be
        # re-leased to another resolver, so allow a small uptick).
        pcts = [pct for __, pct in curve]
        assert all(later <= earlier + 2.0
                   for earlier, later in zip(pcts, pcts[1:]))
        return curve

    @cached_property
    def day_one(self):
        leavers = day_one_leavers(self.first, self.campaign.day1_result)
        stats = dynamic_rdns_share(leavers, self.campaign.cohort_rdns)
        assert stats["with_rdns"] > 0
        stats["gone_pct"] = 100.0 * len(leavers) / len(self.first.noerror)
        return stats

    @cached_property
    def fig4(self):
        fig4 = social_geography(self.reports["Alexa"],
                                self.scenario.geoip, SOCIAL)
        unexpected = fig4.unexpected_shares()
        # China first by a wide margin, Iran second.
        assert [country for country, __ in unexpected[:2]] == ["CN", "IR"]
        shares = dict(unexpected)
        assert shares["CN"] > 2 * shares["IR"]
        return {"top_all": fig4.all_shares()[0][1], "unexpected": shares}

    @cached_property
    def countries(self):
        rows, top_share = country_fluctuation(self.first, self.last,
                                              self.scenario.geoip, 10)
        # At least 8 of the paper's top-10 countries rank top-10 here.
        assert len({row["country"] for row in rows} & set(TABLE1)) >= 8
        deltas = {row["country"]: row["delta_pct"] for row in rows}
        return deltas, top_share

    @cached_property
    def rirs(self):
        rows = rir_fluctuation(self.first, self.last, self.scenario.geoip)
        measured = [row["rir"] for row in rows if row["rir"] != "UNKNOWN"]
        # The two giants (RIPE/APNIC) lead; AFRINIC is smallest.
        assert set(measured[:2]) == {"RIPE", "APNIC"}
        assert measured[-1] == "AFRINIC"
        deltas = {row["rir"]: row["delta_pct"] for row in rows}
        # ARIN/AFRINIC decline least.
        assert deltas["AFRINIC"] > deltas["RIPE"]
        assert deltas["ARIN"] > deltas["LACNIC"]
        return deltas

    @cached_property
    def as_drops(self):
        return as_fluctuation(self.first, self.last,
                              self.scenario.as_registry, 10)

    @cached_property
    def dark(self):
        registry = self.scenario.as_registry
        dark = dark_networks(self.first, self.last, registry, min_first=3)
        verification = self.campaign.last().verification
        assert verification is not None
        # Weekly per-AS history lets the classifier see whether a network
        # vanished abruptly (filtering) or wound down gradually (shutdown).
        history = weekly_as_history(self.campaign.snapshots, registry,
                                    asns=[row["asn"] for row in dark])
        threshold = max(2, self.scenario.config.scaled(100, minimum=2))
        named = {row["name"]: row["explanation"]
                 for row in classify_dark_networks(
                     dark, verification, registry, history, threshold)}
        assert any(expl == EXPLANATION_BLOCKED and "Blocked" in name
                   for name, expl in named.items()), \
            "scanner-blocked networks must be identified"
        assert any(expl in (EXPLANATION_FILTERED, EXPLANATION_SHUTDOWN)
                   and "Filtered" in name or "Shutdown" in name
                   for name, expl in named.items())
        return named

    @cached_property
    def missed(self):
        """§2.2: NOERROR resolvers only the second vantage sees."""
        verification = self.campaign.last().verification
        assert verification is not None
        missed = verification.noerror - self.last.noerror
        assert missed, \
            "scanner-blocked networks must be visible to the second vantage"
        registry = self.scenario.as_registry
        blocked_names = {"DarkNet Blocked %d" % i for i in range(4)}
        in_blocked = sum(1 for ip in missed
                         if registry.lookup(ip) is not None
                         and registry.lookup(ip).name in blocked_names)
        # The rest are ordinary per-probe packet loss.
        assert in_blocked >= 3, \
            "the scanner-blocked networks must appear in the gap"
        return {"share": 100.0 * len(missed) / max(1, len(self.last.noerror)),
                "in_blocked": 100.0 * in_blocked / len(missed)}

    @cached_property
    def top25(self):
        share, rows = broadband_share_of_top_networks(
            self.last, self.scenario.as_registry, 25)
        return share, sum(1 for row in rows if row["kind"] == "broadband")

    @cached_property
    def software(self):
        table = software_table(self.chaos, top=None)
        rows = table["rows"]
        # BIND 9.8.2 dominates by a wide margin (roughly 2x the runner-up).
        assert rows[0]["software"] == "BIND 9.8.2"
        assert rows[0]["share_pct"] > 1.5 * rows[1]["share_pct"]
        # At least 7 of the paper's top-10 rank in the measured top-10.
        assert len({row["software"] for row in rows[:10]}
                   & set(TABLE3_VERSIONS)) >= 7
        table["by_name"] = {row["software"]: row["share_pct"]
                            for row in rows}
        return table

    @cached_property
    def devices(self):
        table = device_table(self.classifications, len(self.live))
        # Routers and embedded devices dominate; about a third stays
        # unidentifiable.
        assert {row["name"] for row in table["hardware"][:3]} == \
            {"Router", "Embedded", "Unknown"}
        assert share_of(table, "os", "Linux") > \
            share_of(table, "os", "ZyNOS") * 0.8
        return table

    @cached_property
    def utilization(self):
        summary = utilization_summary(self.snooping)
        # The headline: most open resolvers serve real clients.
        assert summary["in_use_share_pct"] > \
            summary["class_shares_pct"].get(CLASS_RESETTING, 0)
        return summary

    @cached_property
    def prefilter(self):
        summaries = {category: prefilter_summary(report)
                     for category, report in self.reports.items()}
        censored = ("Adult", "Gambling", "Filesharing", "Dating")
        web = [c for c in summaries if c not in censored
               and c not in ("NX", "Malware", "GroundTruth", "MX")]
        # The Malware set has the highest empty share (protective
        # resolvers); benign sets see less manipulation than censored.
        assert summaries["Malware"]["empty_share"] >= max(
            summaries[c]["empty_share"] for c in web) - 0.02
        assert summaries["Banking"]["unknown_share"] < \
            summaries["Adult"]["unknown_share"]

        def pick(sets, key, best):
            return 100 * best(summaries[c][key] for c in sets)

        return {"web_legit": pick(web, "legitimate_share", min),
                "web_unknown": pick(web, "unknown_share", max),
                "censored_legit": pick(censored, "legitimate_share", min),
                "malware_empty": pick(["Malware"], "empty_share", max),
                "nx_unknown": pick(["NX"], "unknown_share", max)}

    @cached_property
    def suspicious(self):
        stats = suspicious_behavior_stats(
            {c: r for c, r in self.reports.items() if c != "GroundTruth"})
        assert stats["suspicious_resolvers"] > 0
        assert stats["self_ip_most_sets"] >= 1
        return stats

    @cached_property
    def unfetchable(self):
        merged = type(self.reports["Alexa"])()
        for report in self.reports.values():
            merged.failed_captures.extend(report.failed_captures)
        stats = unfetchable_breakdown(merged, self.scenario.as_registry)
        assert stats["unfetchable"] > 0
        return stats

    @cached_property
    def table5(self):
        table = classification_table(self.reports)
        # Misc is excluded from the benign dominance check: the
        # case-study populations have fixed small floors that inflate
        # Misc at coarse scales (DESIGN.md).
        for category in ("Banking", "Antivirus", "Tracking", "GroundTruth"):
            rows = table[category]
            assert rows[LABEL_HTTP_ERROR]["avg_pct"] == max(
                rows[label]["avg_pct"] for label in rows
                if label != LABEL_MISC), \
                "%s: HTTP Error should dominate benign sets" % category
        for category in ("Adult", "Gambling"):
            rows = table[category]
            assert rows[LABEL_CENSORSHIP]["avg_pct"] == max(
                rows[label]["avg_pct"] for label in rows), \
                "%s: censorship dominates" % category
        # Alexa: censorship is moderate on average but spikes for the
        # censored social domains.
        alexa = table["Alexa"][LABEL_CENSORSHIP]
        assert alexa["max_pct"] > 3 * max(1e-9, alexa["avg_pct"] / 5)
        # NX: search-engine monetization leads all other sets.
        assert table["NX"][LABEL_SEARCH]["avg_pct"] == max(
            table[c][LABEL_SEARCH]["avg_pct"] for c in table)
        return table

    @cached_property
    def cn(self):
        report = self.reports["Alexa"]
        geoip = self.scenario.geoip
        coverage = censorship_coverage(report, geoip, SOCIAL, "CN")
        double = gfw_double_responses(
            report, geoip, legit_addresses_from_report(report), country="CN")
        return coverage, double

    def coverage(self, category, domains, country):
        return censorship_coverage(self.reports[category],
                                   self.scenario.geoip, domains,
                                   country)["coverage_pct"]

    @cached_property
    def estonia(self):
        """Share of Estonian gambling censorship answers that land on the
        Russian censorship IPs."""
        report = self.reports["Gambling"]
        country = self.scenario.geoip.country
        ee_responders = {o.resolver_ip for o in report.observations
                         if country(o.resolver_ip) == "EE"}
        need(len(ee_responders) >= 4, "only %d Estonian resolvers"
             % len(ee_responders))
        ee_tuples = [key for key, (label, __)
                     in report.labels_by_tuple().items()
                     if label == LABEL_CENSORSHIP and country(key[2]) == "EE"]
        assert ee_tuples, "Estonian gambling censorship should be observed"
        russian = set(self.scenario.landing_ips["RU"])
        return 100.0 * sum(1 for __, ip, __r in ee_tuples
                           if ip in russian) / len(ee_tuples)

    @cached_property
    def case_studies(self):
        summary = self.cases
        # Ad manipulation: injectors present, few IPs.
        assert summary["ad_injection"]["resolvers"] >= 2
        assert summary["ad_injection"]["ips"] <= 6
        assert summary["ad_blanking"]["resolvers"] >= 1
        assert summary["fake_search_ads"]["resolvers"] >= 1
        # HTTP-only proxies far outnumber TLS-capable ones.
        assert summary["proxy_http_only"]["resolvers"] > \
            summary["proxy_tls"]["resolvers"], \
            "HTTP-only proxies should outnumber TLS-capable ones"
        # The HTTP-only proxy IP set may include ad-blanking hosts: for a
        # page without ad markup their "filtered" output is identical to
        # the original, i.e. indistinguishable from transparent proxying.
        assert summary["proxy_http_only"]["ips"] <= 20
        # Phishing: the PayPal image-slice page with its .php form.
        assert summary["phishing"]["resolvers"] >= 3
        assert summary["phishing_paypal"]["resolvers"] >= 1
        assert summary["phishing_paypal"]["posts_to_php"]
        assert summary["phishing_bank"]["resolvers"] >= 1
        # Malware updates: few IPs, more resolvers.
        assert summary["malware"]["resolvers"] >= 2
        assert summary["malware"]["ips"] <= 8
        # Mail: listeners exist; a couple of hosts copy genuine banners.
        listeners = summary["mail_listeners"]["resolvers"]
        assert listeners >= 2
        assert 1 <= summary["mail_banner_copies"]["resolvers"] <= listeners
        return summary

    @cached_property
    def diff_clusters(self):
        """Fine-grained diff clusters over the Ads set: the mechanism
        behind the ad-injection findings."""
        clusters = self.reports["Ads"].diff_clusters
        # At least one cluster's modification adds markup (the injected
        # banner/script) rather than removing it.
        assert any(sum(sum(profile.added.values()) for profile in cluster)
                   for cluster in clusters)
        for cluster in clusters:
            for profile in cluster:
                assert 0 < profile.modification_size <= 40
        return len(clusters)

    @cached_property
    def mail_share(self):
        report = self.reports["MX"]
        suspicious = report.prefilter.unknown_resolvers()
        listeners = {capture.resolver_ip for capture in report.mail_captures
                     if capture.fetched}
        return 100.0 * len(listeners & suspicious) / max(1, len(suspicious))

    @cached_property
    def prefilter_spill(self):
        """Unknown shares of the Alexa set under each prefilter rule
        subset."""
        results = self.prefilter_ablation
        shares = {name: result.stats()["unknown_share"]
                  for name, result in results.items()}
        # Each added rule monotonically reduces the unknown spill.
        assert shares["full"] <= shares["AS+cert"] <= shares["AS only"]
        assert shares["full"] <= shares["AS+rDNS"] <= shares["AS only"]
        # No rule subset loses bogus responses.
        full_suspicious = results["full"].unknown_resolvers()
        for name, result in results.items():
            assert full_suspicious <= result.unknown_resolvers(), name
        return shares


# -- ablations and extensions: tiny worlds of their own ----------------------

LINKAGE_THRESHOLD = 0.30


@cache
def clustering_corpus():
    """Families and page profiles of 18 pages: 6 families, several
    variants each."""
    corpus = []
    for country in ("TR", "ID", "RU", "GR"):
        corpus.append(("censorship", pages.censorship_landing(country)))
    for index, domain in enumerate(("dead-a.com", "dead-b.net",
                                    "dead-c.org")):
        corpus.append(("parking", pages.parking_page(domain, seed=index)))
    for provider in ("WebSearch", "FindFast", "LookupNow"):
        corpus.append(("search", pages.search_page(provider=provider)))
    for status in (404, 500, 503):
        corpus.append(("error", pages.error_page(status)))
    for vendor in ("TP-LINK", "ZyXEL"):
        corpus.append(("login", pages.router_login(vendor)))
    library = SiteLibrary(seed=3)
    for domain in ("alpha.example", "beta.example", "gamma.example"):
        corpus.append(("site", library.page_for(domain)))
    return ([family for family, __ in corpus],
            [extract_features(html) for __, html in corpus])


def purity(clusters, families):
    """Weighted purity: majority-family share per cluster, in percent."""
    total = agreeing = 0
    for cluster in clusters:
        members = [families[index] for index in cluster.indices]
        agreeing += max(members.count(family) for family in members)
        total += len(members)
    return 100.0 * agreeing / total if total else 100.0


@cache
def distance_ablation():
    """§3.6: cluster purity with the full seven-feature distance and with
    each feature removed."""
    families, profiles = clustering_corpus()
    distances = {"full": PageDistance()}
    for dropped in PageDistance.FEATURE_NAMES:
        distances["-" + dropped] = PageDistance(weights={
            name: 1.0 for name in PageDistance.FEATURE_NAMES
            if name != dropped})
    scores = {name: purity(hierarchical_cluster(
                  profiles, distance, LINKAGE_THRESHOLD)[0], families)
              for name, distance in distances.items()}
    # The full distance is at least as good as the average ablation.
    ablated = [score for name, score in scores.items() if name != "full"]
    assert scores["full"] >= sum(ablated) / len(ablated) - 1e-9
    return scores


@cache
def linkage_ablation():
    """§3.6: average (the paper's), single and complete linkage."""
    families, profiles = clustering_corpus()
    stats = {}
    for linkage in ("average", "single", "complete"):
        clusters, __ = hierarchical_cluster(
            profiles, PageDistance(), LINKAGE_THRESHOLD, linkage=linkage)
        stats[linkage] = (len(clusters), purity(clusters, families))
    # Single linkage merges at least as eagerly as average, complete at
    # most as eagerly; average is no less pure than single.
    assert stats["single"][0] <= stats["average"][0] <= stats["complete"][0]
    assert stats["average"][1] >= stats["single"][1] - 1e-9
    return stats


REWRITE_SHARE = 0.05  # resolvers that mangle the response port


def attribution(codec, use_0x20, rng, population=4000):
    """§3.3: share of resolver IDs decoded right when some resolvers
    rewrite the response port, spread over the full 25-bit space."""
    correct = 0
    step = MAX_RESOLVER_ID // population
    for index in range(population):
        resolver_id = index * step
        txid, src_port, qname = codec.encode(resolver_id, "wikipedia.org")
        port = src_port
        if rng.random() < REWRITE_SHARE:
            port = rng.randint(1024, 5000)  # rewritten
        if use_0x20:
            decoded = codec.decode(txid, port, qname)
        else:
            # Port-only decoding: out-of-window ports lose the high bits.
            offset = port - codec.base_port
            high = offset if 0 <= offset < 1 << PORT_BITS else 0
            decoded = (high << TXID_BITS) | txid
        correct += decoded == resolver_id
    return 100.0 * correct / population


@cache
def encoding_ablation():
    codec = ResolverIdCodec()
    # Names with at least 9 letters carry every port bit in 0x20 case.
    for name in ("wikipedia.org", "liveupdate.symantecliveupdate.com"):
        assert recover_0x20_bits(name.upper())[1] >= PORT_BITS
        resolver_id = (0b101010101 << TXID_BITS) | 0x42
        txid, __, qname = codec.encode(resolver_id, name)
        assert codec.decode(txid, 53, qname) == resolver_id
    return {"0x20": attribution(codec, True, random.Random(11)),
            "port": attribution(codec, False, random.Random(11))}


ZONE_KEY = "ext-dnssec-zone-key"
DNSSEC_CLIENTS = 60


@cache
def dnssec_poisoning():
    """§5: share of first-response and wait-for-signature clients behind
    the Great Firewall that get a forged answer, per zone."""
    network = Network(SimClock(), seed=21)
    infra = PrefixAllocator().allocate(16)
    builder = HierarchyBuilder(network, infra)
    builder.register_domain("signed.example",
                            {"signed.example": ["198.18.0.5"]}
                            ).sign_with(ZONE_KEY)
    builder.register_domain("unsigned.example",
                            {"unsigned.example": ["198.18.0.6"]})
    service = ResolutionService(builder.hierarchy.root_ips,
                                infra.address_at(50000))
    network.add_middlebox(GreatFirewall(
        [Ipv4Network("110.0.0.0/16")],
        ["signed.example", "unsigned.example"], seed=5))
    resolvers = []
    for index in range(DNSSEC_CLIENTS):
        node = ResolverNode("110.0.0.%d" % (index + 10),
                            resolution_service=service, gfw_immune=True)
        network.register(node)
        resolvers.append(node.ip)
    poisoned, failed = {}, 0
    for zone, truth in (("signed", "198.18.0.5"), ("unsigned", "198.18.0.6")):
        for strategy in (STRATEGY_FIRST, STRATEGY_WAIT_SIGNED):
            client = ValidatingClient(
                network, infra.address_at(50001),
                validator=DnssecValidator({"signed.example": ZONE_KEY}),
                strategy=strategy)
            bad = 0
            for resolver_ip in resolvers:
                addresses, __ = client.query(resolver_ip,
                                             zone + ".example")
                failed += not addresses
                bad += bool(addresses) and addresses != [truth]
            poisoned[strategy, zone] = 100.0 * bad / len(resolvers)
    poisoned["failed"] = 100.0 * failed / (4 * len(resolvers))
    return poisoned


# (label, true expiry-to-re-add gap in seconds, expected class); None =
# an idle resolver.
POPULARITY_SUBJECTS = (
    ("busy-isp-resolver", 1.5, CLASS_HEAVY),
    ("office-resolver", 45.0, CLASS_MODERATE),
    ("home-cpe-evening", 420.0, CLASS_MODERATE),
    ("nearly-idle-cpe", 5400.0, CLASS_LIGHT),
    ("abandoned-cpe", None, CLASS_IDLE),
)


@cache
def popularity_gaps():
    """§2.6 follow-up: re-add gaps the adaptive fine-grained snooper
    measures at resolvers with known client request rates."""
    network = Network(SimClock(), seed=31)
    infra = PrefixAllocator().allocate(16)
    builder = HierarchyBuilder(network, infra)
    service = ResolutionService(builder.hierarchy.root_ips,
                                infra.address_at(50000))
    ips = {}
    for index, (label, gap, __) in enumerate(POPULARITY_SUBJECTS):
        if gap is None:
            activity = CacheActivityModel(CacheActivityModel.STYLE_IDLE,
                                          tld_patterns={"com": (0.0, 0.0)},
                                          ttl=3600)
        else:
            activity = CacheActivityModel(
                CacheActivityModel.STYLE_NORMAL,
                tld_patterns={"com": (gap, 137.0 * index)}, ttl=3600)
        node = ResolverNode(infra.address_at(45000 + index),
                            resolution_service=service, activity=activity)
        network.register(node)
        ips[label] = node.ip
    prober = PopularityProber(network, infra.address_at(50001), ("com",),
                              fine_interval=0.5, coarse_interval=300.0,
                              fine_window=20.0)
    estimates = {label: prober.estimate(ip, cycles=2)
                 for label, ip in ips.items()}
    for label, __, expected in POPULARITY_SUBJECTS:
        assert estimates[label].popularity_class == expected, label
    # Measured gaps reproduce the true ordering.
    gaps = [estimates[label].mean_gap
            for label, gap, __ in POPULARITY_SUBJECTS if gap is not None]
    assert gaps == sorted(gaps)
    return {label: estimate.mean_gap
            for label, estimate in estimates.items()}


# -- the rows -----------------------------------------------------------------

# Known deviations, each pointing at the ROADMAP item or the DESIGN.md
# substitution that explains it.
CHURN_ACROSS_SCANS = (
    "the paper's multi-day domain scan counts churning Chinese addresses "
    "more than once; ours reads one snapshot (ROADMAP 10a)")
POOL_DENSITY = ("addresses re-leased inside pools of density 1/24 keep "
                "their resolvers alive (ROADMAP 10d)")
ANSWER_SHAPES = ("behaviour-mix parameter of the population not calibrated "
                 "to this row (ROADMAP 10e)")
MIX_OFF = ("off the paper at every one of ten seeds: a parameter of the "
           "population's mix (ROADMAP 10f)")
FLOORS_SQUEEZE = ("the §4.3 case-study floors inflate Misc and squeeze the "
                  "organic labels at 1:12 000 (ROADMAP 14)")
DARK_NETWORKS_BUILT = (
    "the simulated Internet builds 6 dark networks (4 blocked, 1 "
    "filtered, 1 shut down), not the paper's 28 (DESIGN.md "
    "substitutions: the live IPv4 Internet)")

# Tolerances are absolute, in the row's unit, and come from what the seed
# alone moves.  Over seeds 1-9 and 11 at 1:12 000, sigma is a row's
# seed-to-seed standard deviation and its offset the distance from the
# paper.  A row whose mean offset is within max(3 sigma, 2) is ok, with
# the smallest step of 0.5, 1, 2, 3, 5, 8, 10, 15, 20, 25, 30, 40, 50,
# 80 that covers 3 sigma and the offset at every one of those seeds.  A
# row beyond it is a known deviation, with the largest step below its
# smallest offset.  Rows that do not depend on the seed keep a tolerance
# of their own.

# Table 1: the paper's top-10 countries, their Jan 2014 -> Feb 2015
# change and its tolerance.  Bands are the declines and growth the old
# checks asserted.
TABLE1 = {"US": (-14.2, 8), "CN": (-13.0, 10), "TR": (-32.2, 15),
          "VN": (-25.4, 20), "MX": (-14.4, 15), "IN": (+12.7, 10),
          "TH": (-53.5, 20), "IT": (-38.3, 20), "CO": (-36.2, 20),
          "TW": (-57.3, 15)}
TABLE1_BANDS = {"IN": "(0, inf)", "TH": "(-inf, -35)", "TW": "(-inf, -35)"}
TABLE2 = {"RIPE": (-33.2, 8), "APNIC": (-24.5, 5), "LACNIC": (-35.1, 5),
          "ARIN": (-12.1, 8), "AFRINIC": (-8.6, 8)}
TABLE3_VERSIONS = {
    "BIND 9.8.2": (19.8, 5), "BIND 9.3.6": (8.9, 3),
    "BIND 9.7.3": (5.7, 3), "BIND 9.9.5": (5.2, 5),
    "Unbound 1.4.22": (4.8, 2), "Dnsmasq 2.40": (4.6, 5),
    "BIND 9.8.4": (3.9, 2), "PowerDNS 3.5.3": (3.2, 3),
    "Dnsmasq 2.52": (2.9, 3), "MS DNS 6.1.7601": (2.5, 2)}
TABLE4_HARDWARE = {
    "Router": (34.1, 5, "(25, inf)"), "Embedded": (30.6, 8, None),
    "Firewall": (1.9, 3, None), "Camera": (1.8, 2, "(-inf, 6)"),
    "DVR": (1.2, 2, "(-inf, 6)"), "Others": (1.1, 1, None),
    "Unknown": (29.3, 5, None)}
UTILIZATION = {CLASS_EMPTY: (7.3, 1, "(-inf, 18)", MIX_OFF),
               CLASS_SINGLE: (3.3, 5, None, None),
               CLASS_IN_USE: (61.6, 15, "(45, 75)", None),
               CLASS_RESETTING: (19.6, 8, "(10, 30)", None),
               CLASS_DECREASING: (4.0, 2, None, MIX_OFF)}
# Table 5: (set, label) -> (paper average share, tol, band, deviation).
TABLE5 = {
    ("Adult", LABEL_CENSORSHIP): (88.6, 10, "(40, inf)", FLOORS_SQUEEZE),
    ("Antivirus", LABEL_HTTP_ERROR): (57.0, 30, None, None),
    ("Banking", LABEL_HTTP_ERROR): (55.4, 30, None, None),
    ("Banking", LABEL_LOGIN): (16.8, 20, "(4, 35)", None),
    ("Banking", LABEL_PARKING): (22.2, 25, "(7, 40)", None),
    ("Gambling", LABEL_CENSORSHIP): (75.9, 15, "(40, inf)", None),
    ("GroundTruth", LABEL_HTTP_ERROR): (55.0, 25, None, None),
    ("GroundTruth", LABEL_LOGIN): (16.1, 20, "(4, 35)", None),
    ("GroundTruth", LABEL_PARKING): (23.4, 20, "(7, 40)", None),
    ("Malware", LABEL_BLOCKING): (9.0, 20, "(1, inf)", None),
    ("Malware", LABEL_PARKING): (26.2, 20, None, None),
    ("Malware", LABEL_SEARCH): (21.4, 10, None, ANSWER_SHAPES),
    ("NX", LABEL_SEARCH): (35.7, 15, "(12, inf)", None),
    # The paper's text: Login near 10-17 %, Parking near 13-26 %.
    ("Antivirus", LABEL_LOGIN): ((10.0, 17.0), 20, "(4, 35)", None),
    ("Antivirus", LABEL_PARKING): ((13.0, 26.0), 25, "(7, 40)", None),
}
# §4.2 coverage: (set, domains, country) -> (paper, tol, band).
COVERAGE = {
    "MN adult coverage": (("Adult", tuple(d.name for d in
                                          DOMAIN_SETS["Adult"]), "MN"),
                          78.9, 50, "(50, 100]"),
    "GR gambling coverage": (("Gambling", GAMBLING, "GR"), 83.9, 30,
                             "(50, 100]"),
    "BE gambling coverage": (("Gambling", GAMBLING, "BE"), 78.6, 80,
                             "(50, 100]"),
    # Unlike China, some Turkish resolvers answer honestly.
    "TR youporn coverage (90% censor)": (("Adult", ("youporn.com",), "TR"),
                                         90.0, 15, "(-inf, 99)"),
}


def _country(cc):
    def measure(study):
        deltas = study.countries[0]
        need(cc in deltas, "%s not in the measured top 10" % cc)
        return deltas[cc]
    return measure


def _argentina(study):
    declines = dict(extreme_changes(study.first, study.last,
                                    study.scenario.geoip, min_first=10))
    need("AR" in declines, "AR has under 10 resolvers in week 0")
    return declines["AR"]


def _as_drop(country, telco):
    def measure(study):
        rows = [row for row in study.as_drops if row["country"] == country
                and (not telco or "Telecom" in row["name"])]
        if telco:
            assert rows, "the AR telco should be among the biggest drops"
        need(rows, "no %s network among the 10 largest drops" % country)
        return rows[0]["delta_pct"]
    return measure


def _gfw_doubles_seen(study):
    double = study.cn[1]
    # Coarse scales may miss the 1-2 double-response resolvers expected.
    need(double["country_resolvers"] >= 150,
         "only %d Chinese resolvers (needs 150)"
         % double["country_resolvers"])
    return double["double_response_resolvers"]


def _proxy_ratio(study):
    cases = study.case_studies
    return (cases["proxy_http_only"]["resolvers"]
            / max(1, cases["proxy_tls"]["resolvers"]))


ROWS = [
    # Figure 1: 26.8M NOERROR resolvers (Jan 31, 2014) declining to 17.8M
    # (Feb 2015); REFUSED stable; SERVFAIL well below both.
    Row("Figure 1", "NOERROR decline ratio (17.8M/26.8M)", 66.4,
        lambda s: 100 * decline_ratio(s.series), 1, "(50, 85)", MIX_OFF),
    Row("Figure 1", "REFUSED stability (last/first)", 100.0,
        lambda s: 100.0 * s.series[-1]["refused"]
        / max(1, s.series[0]["refused"]), 2),
    # Table 1: top-10 countries of Jan 2014, 49.1 % of all resolvers.
    Row("Table 1", "top-10 share of all resolvers", 49.1,
        lambda s: s.countries[1], 2, "(40, 60)"),
    *(Row("Table 1", "%s change" % cc, delta, _country(cc), tol,
          TABLE1_BANDS.get(cc))
      for cc, (delta, tol) in TABLE1.items()),
    Row("Table 1", "AR change (strongest declines)", -75.0, _argentina, 15,
        "(-inf, -55)"),
    # Table 2: every registry declines.
    *(Row("Table 2", "%s change" % rir, delta,
          lambda s, rir=rir: s.rirs[rir], tol, "(-inf, 0)")
      for rir, (delta, tol) in TABLE2.items()),
    # Figure 2: 52.2 % of the Jan-2014 cohort gone within a week, >40 %
    # within a day, 4.0 % on the same address after 55 weeks; 67.4 % of
    # the day-one leavers with rDNS carry dynamic-assignment tokens.
    Row("Figure 2", "gone within week 1", 52.2,
        lambda s: 100 - dict(s.survival)[1], 5, "(35, 70)"),
    Row("Figure 2", "still alive at week 55", 4.0,
        lambda s: s.survival[-1][1], 1, "(-inf, 15)", POOL_DENSITY),
    Row("Figure 2", "cohort gone within one day", (40.0, 100.0),
        lambda s: s.day_one["gone_pct"], 3, "(25, inf)"),
    Row("Figure 2", "day-1 leavers with dynamic rDNS", 67.4,
        lambda s: s.day_one["dynamic_share_pct"], 3, "(55, inf)", MIX_OFF),
    # §2.3: an Argentinean telco -97.8 %, a South Korean ISP 434,567 ->
    # 22, 28 networks with >1,000 resolvers vanish; <1 % (145,304) of the
    # NOERROR resolvers only the verification scan sees, most of them in
    # blocking networks; broadband providers host 76.4 % of the
    # resolvers of the Feb-2015 Top 25 networks.
    Row("§2.3", "AR telco change", -97.8, _as_drop("AR", True), 20,
        "(-inf, -70)"),
    Row("§2.3", "KR ISP change", -99.99, _as_drop("KR", False), 10,
        "(-inf, -90)"),
    Row("§2.3", "DarkNet networks found dark", 28,
        lambda s: sum(1 for name in s.dark if name.startswith("DarkNet")),
        20, "[4, inf)", DARK_NETWORKS_BUILT, unit="", fmt="%d"),
    Row("§2.3", "NOERROR resolvers missed by the weekly scan", (0.0, 1.0),
        lambda s: s.missed["share"], 0.5, "(-inf, 5)", fmt="%.2f"),
    Row("§2.3", "missed resolvers inside blocked networks", (50.0, 100.0),
        lambda s: s.missed["in_blocked"], 40),
    Row("§2.3", "broadband share of Top-25 resolvers", 76.4,
        lambda s: s.top25[0], 15, "(60, 97)", ANSWER_SHAPES),
    Row("§2.3", "broadband networks in Top 25", (20, 25),
        lambda s: s.top25[1], 3, "[17, 24]", unit="/25", fmt="%d"),
    # Table 3: of 19.9M responders 42.7 % error for both queries, 4.6 %
    # NOERROR without a version, 18.8 % hidden strings, 33.9 % leak.
    Row("Table 3", "error for both queries", 42.7,
        lambda s: s.software["error_share_pct"], 5, "(35, 50)"),
    Row("Table 3", "NOERROR, no version", 4.6,
        lambda s: s.software["no_version_share_pct"], 2),
    Row("Table 3", "hidden strings", 18.8,
        lambda s: s.software["hidden_share_pct"], 5, "(12, 26)"),
    Row("Table 3", "version leaked", 33.9,
        lambda s: s.software["version_share_pct"], 5, "(27, 41)"),
    *(Row("Table 3", name, share,
          lambda s, name=name: s.software["by_name"].get(name, 0.0), tol)
      for name, (share, tol) in TABLE3_VERSIONS.items()),
    # Table 4: 26.3 % answer on a TCP port; ZyNOS runs on 16.6 %.
    Row("Table 4", "TCP-responding share", 26.3,
        lambda s: s.devices["tcp_responding_share_pct"], 3, "(18, 36)"),
    *(Row("Table 4", "hardware " + name, share,
          lambda s, name=name: share_of(s.devices, "hardware", name), tol,
          band)
      for name, (share, tol, band) in TABLE4_HARDWARE.items()),
    Row("Table 4", "OS ZyNOS", 16.6,
        lambda s: share_of(s.devices, "os", "ZyNOS"), 8, "(10, 25)"),
    Row("Table 4", "OS Linux", 23.2,
        lambda s: share_of(s.devices, "os", "Linux"), 8),
    # §2.6: cache snooping of 400 resolvers.
    Row("§2.6", "responding", 83.2,
        lambda s: s.utilization["responding_share_pct"], 8, "(70, 95)"),
    *(Row("§2.6", cls, share,
          lambda s, cls=cls: s.utilization["class_shares_pct"].get(cls, 0.0),
          tol, band, deviation)
      for cls, (share, tol, band, deviation) in UTILIZATION.items()),
    Row("§2.6", "static or zero TTL", 4.0,
        lambda s: sum(s.utilization["class_shares_pct"].get(cls, 0.0)
                      for cls in (CLASS_STATIC_TTL, CLASS_ZERO_TTL)), 5),
    Row("§2.6", "frequently used", 38.7,
        lambda s: s.utilization["frequent_share_pct"], 15, "(25, 55)"),
    # §4.1: 85.8 % (MX) to 93.2 % (Antivirus) of responses filtered as
    # legitimate, 4.9-8.4 % empty (most for Malware), 0.6-4.4 %
    # unexpected with NX at 13.7 %.
    Row("§4.1", "legitimate share, web sets (lowest)", (85.8, 93.2),
        lambda s: s.prefilter["web_legit"], 10, "(75, inf)"),
    Row("§4.1", "unexpected share, web sets (highest)", (0.6, 4.4),
        lambda s: s.prefilter["web_unknown"], 2, "(-inf, 25)"),
    Row("§4.1", "legitimate share, censored sets (lowest)", (85.8, 93.2),
        lambda s: s.prefilter["censored_legit"], 25, "(55, inf)"),
    Row("§4.1", "Malware empty share (highest)", 8.4,
        lambda s: s.prefilter["malware_empty"], 2, deviation=MIX_OFF),
    Row("§4.1", "NX unexpected share", 13.7,
        lambda s: s.prefilter["nx_unknown"], 5, deviation=MIX_OFF),
    Row("§4.1", "return own IP for >=1 domain (max/set)", 15.1,
        lambda s: s.suspicious["self_ip_any_share_pct"], 10, "(-inf, 25)",
        ANSWER_SHAPES),
    Row("§4.1", "same IP set for >1 domain", 50.4,
        lambda s: s.suspicious["same_set_multi_share_pct"], 20,
        "(25, inf)", ANSWER_SHAPES),
    Row("§4.1", "static single IP for everything", 4.4,
        lambda s: s.suspicious["static_single_share_pct"], 3, "(0.5, 20)",
        MIX_OFF),
    Row("§4.1", "NS records only", 2.0,
        lambda s: s.suspicious["ns_only_share_pct"], 2),
    Row("§4.1", "self-IP across >=75% of sets (count)", 8194,
        lambda s: s.suspicious["self_ip_most_sets"], 0, "[1, inf)",
        "an Internet-wide count, 0.7 resolvers at 1:12 000; the self-IP "
        "population has a floor (ROADMAP 10e)", unit="", fmt="%d"),
    # Table 5: average share of suspicious resolvers per set and label;
    # Censorship spikes to 97.1 % for single Alexa domains, Parking to
    # 92.1 % for Malware ones; 97.6-99.9 % of responses classified.
    *(Row("Table 5", "%s / %s" % key, paper,
          lambda s, key=key: s.table5[key[0]][key[1]]["avg_pct"], tol,
          band, deviation)
      for key, (paper, tol, band, deviation) in TABLE5.items()),
    Row("Table 5", "Alexa / Censorship (max per domain)", 97.1,
        lambda s: s.table5["Alexa"][LABEL_CENSORSHIP]["max_pct"], 30,
        "(30, inf)", CHURN_ACROSS_SCANS),
    Row("Table 5", "Malware / Parking (max per domain)", 92.1,
        lambda s: s.table5["Malware"][LABEL_PARKING]["max_pct"], 20,
        "(40, inf)", ANSWER_SHAPES),
    Row("Table 5", "classified responses (lowest set)", (97.6, 99.9),
        lambda s: 100 * min(report.classified_share()
                            for report in s.reports.values()),
        10, "(85, inf)"),
    # Figure 4: over all responses no country above ~13 %; of the
    # unexpected ones 83.6 % sit in China and 12.9 % in Iran.
    Row("Figure 4", "top country, all responses", 13.0,
        lambda s: s.fig4["top_all"], 2, "(-inf, 25)"),
    Row("Figure 4", "CN share of unexpected", 83.6,
        lambda s: s.fig4["unexpected"]["CN"], 15, "(40, inf)",
        CHURN_ACROSS_SCANS),
    Row("Figure 4", "IR share of unexpected", 12.9,
        lambda s: s.fig4["unexpected"]["IR"], 5),
    Row("Figure 4", "CN + IR share of unexpected", 96.5,
        lambda s: s.fig4["unexpected"]["CN"] + s.fig4["unexpected"]["IR"],
        15, "(70, inf)", CHURN_ACROSS_SCANS),
    # §4.2: 99.7 % of Chinese resolvers bogus for the social domains,
    # 2.4 % with forged-then-legitimate doubles; coverage elsewhere high
    # but below China's; Estonian gambling answers land on Russian
    # censorship IPs; of the tuples with no HTTP payload up to 65.1 %
    # point at LAN addresses and up to 32.2 % into the resolver's own AS
    # or /24.
    Row("§4.2", "CN resolvers with bogus answers", 99.7,
        lambda s: s.cn[0]["coverage_pct"], 5, "(90, inf)"),
    Row("§4.2", "CN resolvers with forged-then-legit doubles", 2.4,
        lambda s: s.cn[1]["share_pct"], 3, "(-inf, 12)"),
    Row("§4.2", "CN double-response resolvers seen", (1, math.inf),
        _gfw_doubles_seen, 0, "[1, inf)", unit="", fmt="%d"),
    *(Row("§4.2", label, paper,
          lambda s, where=where: s.coverage(*where), tol, band)
      for label, (where, paper, tol, band) in COVERAGE.items()),
    Row("§4.2", "EE gambling answers on RU censorship IPs", 100.0,
        lambda s: s.estonia, 5, "(80, inf)"),
    Row("§4.2", "unfetchable pointing at LAN (max/set)", 65.1,
        lambda s: s.unfetchable["lan_share_pct"], 30, "(10, inf)",
        ANSWER_SHAPES),
    Row("§4.2", "unfetchable in own AS//24 (max/set)", 32.2,
        lambda s: s.unfetchable["same_network_share_pct"], 40, "(1, inf)"),
    # §4.3: 10,179 resolvers point at HTTP-only proxies, 99 at
    # TLS-capable ones; the PayPal clone is 46 <img> slices; 64.7 % of the
    # MX-set suspicious resolvers redirect to live mail listeners.
    Row("§4.3", "HTTP-only : TLS proxy resolvers", 10179 / 99,
        _proxy_ratio, 80, deviation=ANSWER_SHAPES, unit=":1"),
    Row("§4.3", "PayPal clone <img> slices", 46,
        lambda s: s.case_studies["phishing_paypal"]["img_tags"], 0,
        unit="", fmt="%d"),
    Row("§4.3", "fine-grained diff clusters, Ads set", (1, math.inf),
        lambda s: s.diff_clusters, 0, "[1, inf)", unit="", fmt="%d"),
    Row("§4.3", "MX suspicious resolvers hitting live mail hosts", 64.7,
        lambda s: s.mail_share, 25, "(35, inf)"),
    # Ablations: what the paper's design choices predict.
    Row("Ablations", "prefilter: CDN spill the certificate rule removes",
        (50.0, 100.0),
        lambda s: 100 * (1 - s.prefilter_spill["AS+cert"]
                         / s.prefilter_spill["AS only"]), 2, "(30, inf)"),
    *(Row("Ablations", "cluster purity, distance %s" % name, 100.0,
          lambda s, name=name: distance_ablation()[name],
          10 if name == "full" else 30,
          "[90, inf)" if name == "full" else "[70, inf)")
      for name in ["full"] + ["-" + feature
                              for feature in PageDistance.FEATURE_NAMES]),
    Row("Ablations", "cluster purity, average linkage", 100.0,
        lambda s: linkage_ablation()["average"][1], 10, "[90, inf)"),
    Row("Ablations", "IDs attributed with the 0x20 fallback", 100.0,
        lambda s: encoding_ablation()["0x20"], 0),
    # Only resolvers whose rewritten port keeps the low 9 bits survive.
    Row("Ablations", "IDs attributed by txid+port only",
        100 * (1 - REWRITE_SHARE),
        lambda s: encoding_ablation()["port"], 1,
        "(-inf, %g]" % (100 * (1 - REWRITE_SHARE * 0.8))),
    # Extensions: §5's DNSSEC argument and §2.6's popularity follow-up.
    Row("Extensions", "DNSSEC: first response poisoned, signed zone", 100.0,
        lambda s: dnssec_poisoning()[STRATEGY_FIRST, "signed"], 5,
        "(95, inf)"),
    Row("Extensions", "DNSSEC: wait-signed poisoned, signed zone", 0.0,
        lambda s: dnssec_poisoning()[STRATEGY_WAIT_SIGNED, "signed"], 0),
    Row("Extensions", "DNSSEC: first response poisoned, unsigned zone",
        100.0, lambda s: dnssec_poisoning()[STRATEGY_FIRST, "unsigned"],
        5, "(95, inf)"),
    Row("Extensions", "DNSSEC: wait-signed poisoned, unsigned zone", 100.0,
        lambda s: dnssec_poisoning()[STRATEGY_WAIT_SIGNED, "unsigned"], 5,
        "(95, inf)"),
    Row("Extensions", "DNSSEC: queries failed", 0.0,
        lambda s: dnssec_poisoning()["failed"], 0),
    *(Row("Extensions", "re-add gap, %s" % label, gap,
          lambda s, label=label: popularity_gaps()[label],
          max(0.35 * gap, 2.0), unit=" s")
      for label, gap, __ in POPULARITY_SUBJECTS if gap is not None),
]


if __name__ == "__main__":
    print(render(ROWS, Study()))
