"""Section 4 analyses: prefilter effectiveness (§4.1), the Table-5
classification matrix, Figure 4's censorship geography, per-country
censorship coverage, and Great-Firewall double-response detection."""

from repro.core.labeling import CATEGORY_LABELS
from repro.dnswire.name import normalize_name
from repro.util import percentage


# ---------------------------------------------------------------------------
# §4.1 — prefilter and DNS-level behaviour statistics
# ---------------------------------------------------------------------------

def prefilter_summary(report):
    """The §4.1 shares for one pipeline report."""
    stats = report.prefilter.stats()
    stats["unknown_tuples"] = len(report.prefilter.unknown)
    stats["suspicious_resolvers"] = len(
        report.prefilter.unknown_resolvers())
    return stats


def suspicious_behavior_stats(reports):
    """DNS-level behaviour of suspicious resolvers across domain sets.

    ``reports`` maps category -> PipelineReport.  Reproduces: the share
    of suspicious resolvers returning their own IP; resolvers returning
    their own IP for every domain in >=75% of the sets; the share
    returning the same IP set for more than one domain; static-single-IP
    resolvers; and NS-only resolvers.
    """
    per_resolver_domain_ips = {}
    self_ip_sets = {}
    suspicious = set()
    ns_only = set()
    all_with_obs = {}
    for category, report in reports.items():
        for response_tuple in report.prefilter.unknown:
            resolver = response_tuple.resolver_ip
            suspicious.add(resolver)
            per_resolver_domain_ips.setdefault(resolver, {}).setdefault(
                response_tuple.domain, set()).add(response_tuple.ip)
            if response_tuple.ip == resolver:
                self_ip_sets.setdefault(resolver, set()).add(category)
        for observation in report.observations:
            resolver = observation.resolver_ip
            key = (resolver, category)
            all_with_obs.setdefault(resolver, set()).add(category)
            if observation.ns_record_count and not observation.addresses:
                ns_only.add(resolver)

    self_ip_any = set(self_ip_sets)
    set_count = max(1, len(reports))
    self_ip_most_sets = {resolver for resolver, categories
                         in self_ip_sets.items()
                         if len(categories) >= 0.75 * set_count}
    same_set_multi = 0
    static_single = 0
    for resolver, domain_ips in per_resolver_domain_ips.items():
        ip_sets = [frozenset(ips) for ips in domain_ips.values()]
        if len(ip_sets) > 1 and len(set(ip_sets)) < len(ip_sets):
            same_set_multi += 1
        distinct = set().union(*ip_sets) if ip_sets else set()
        if len(distinct) == 1 and len(domain_ips) > 1:
            static_single += 1
    # Resolvers answering with NS records only are manipulating too —
    # the paper counts them among the suspicious population (§4.1).
    suspicious |= ns_only
    total = len(suspicious) or 1
    return {
        "suspicious_resolvers": len(suspicious),
        "self_ip_any_share_pct": percentage(len(self_ip_any), total),
        "self_ip_most_sets": len(self_ip_most_sets),
        "same_set_multi_share_pct": percentage(same_set_multi, total),
        "static_single_share_pct": percentage(static_single, total),
        "ns_only_share_pct": percentage(len(ns_only), total),
    }


# ---------------------------------------------------------------------------
# Table 5 — label distribution per domain category
# ---------------------------------------------------------------------------

def classification_table(reports):
    """Build the Table-5 matrix.

    ``reports`` maps category name -> PipelineReport (one pipeline run
    per domain set, as in the paper).  For every category and label:
    the *average* share of suspicious resolvers per domain, and the
    *highest* share seen for any single domain in the set (the
    parenthesised numbers of Table 5).
    """
    table = {}
    for category, report in reports.items():
        per_domain_label_resolvers = {}
        per_domain_total = {}
        for labeled in report.labeled:
            domain = normalize_name(labeled.capture.domain)
            resolver = labeled.capture.resolver_ip
            per_domain_label_resolvers.setdefault(
                domain, {}).setdefault(labeled.label, set()).add(resolver)
            per_domain_total.setdefault(domain, set()).add(resolver)
        rows = {}
        for label in CATEGORY_LABELS:
            shares = []
            for domain, total_resolvers in per_domain_total.items():
                labeled_set = per_domain_label_resolvers[domain].get(
                    label, set())
                shares.append(percentage(len(labeled_set),
                                         len(total_resolvers)))
            if shares:
                rows[label] = {
                    "avg_pct": sum(shares) / len(shares),
                    "max_pct": max(shares),
                }
            else:
                rows[label] = {"avg_pct": 0.0, "max_pct": 0.0}
        table[category] = rows
    return table


# ---------------------------------------------------------------------------
# Figure 4 + censorship coverage
# ---------------------------------------------------------------------------

class Fig4Result:
    """Country histograms for (a) all responses and (b) unexpected ones."""

    def __init__(self, all_counts, unexpected_counts):
        self.all_counts = all_counts
        self.unexpected_counts = unexpected_counts

    @staticmethod
    def _shares(counts):
        total = sum(counts.values()) or 1
        return sorted(((country, percentage(count, total))
                       for country, count in counts.items()),
                      key=lambda item: (-item[1], item[0]))

    def all_shares(self):
        return self._shares(self.all_counts)

    def unexpected_shares(self):
        return self._shares(self.unexpected_counts)


def social_geography(report, geoip, social_domains):
    """Figure 4: resolver-country distribution for the social domains."""
    social = {normalize_name(d) for d in social_domains}
    all_resolvers = set()
    unexpected_resolvers = set()
    for observation in report.observations:
        if normalize_name(observation.domain) in social:
            all_resolvers.add(observation.resolver_ip)
    for response_tuple in report.prefilter.unknown:
        if normalize_name(response_tuple.domain) in social:
            unexpected_resolvers.add(response_tuple.resolver_ip)
    return Fig4Result(geoip.count_by_country(all_resolvers),
                      geoip.count_by_country(unexpected_resolvers))


def censorship_coverage(report, geoip, domains, country):
    """Share of a country's resolvers with unexpected answers for each of
    ``domains`` (e.g. 99.7% of Chinese resolvers for the social set)."""
    domains = {normalize_name(d) for d in domains}
    responders = set()
    unexpected = set()
    for observation in report.observations:
        if normalize_name(observation.domain) not in domains:
            continue
        if geoip.country(observation.resolver_ip) != country:
            continue
        responders.add(observation.resolver_ip)
    for response_tuple in report.prefilter.unknown:
        if normalize_name(response_tuple.domain) not in domains:
            continue
        if geoip.country(response_tuple.resolver_ip) != country:
            continue
        unexpected.add(response_tuple.resolver_ip)
    return {
        "country": country,
        "responders": len(responders),
        "unexpected": len(unexpected),
        "coverage_pct": percentage(len(unexpected), len(responders)),
    }


def gfw_double_responses(report, geoip, legit_addresses, country="CN"):
    """Resolvers showing the GFW signature: more than one response, the
    first forged and a later one carrying the legitimate address(es).

    ``legit_addresses`` maps domain -> set of known-legitimate IPs.
    Returns counts over that country's resolvers.
    """
    country_resolvers = set()
    double = set()
    for observation in report.observations:
        if geoip.country(observation.resolver_ip) != country:
            continue
        country_resolvers.add(observation.resolver_ip)
        if len(observation.all_responses) < 2:
            continue
        legit = legit_addresses.get(normalize_name(observation.domain))
        if not legit:
            continue
        first_addresses = set(observation.all_responses[0][1])
        later_legit = any(set(addresses) & legit
                          for __, addresses in observation.all_responses[1:])
        if later_legit and not (first_addresses & legit):
            double.add(observation.resolver_ip)
    return {
        "country_resolvers": len(country_resolvers),
        "double_response_resolvers": len(double),
        "share_pct": percentage(len(double), len(country_resolvers)),
    }


def unfetchable_breakdown(report, as_registry=None):
    """Where the 11.1% of tuples without HTTP content point (§4.2):
    LAN addresses, addresses in the resolver's own AS or /24, or simply
    dark hosts (disabled CDN edges, dead space)."""
    from repro.netsim.address import is_private, same_slash24
    lan = 0
    same_network = 0
    other = 0
    for capture in report.failed_captures:
        if is_private(capture.ip):
            lan += 1
            continue
        same_as = (as_registry is not None
                   and as_registry.asn_of(capture.ip) is not None
                   and as_registry.asn_of(capture.ip)
                   == as_registry.asn_of(capture.resolver_ip))
        if same_as or same_slash24(capture.ip, capture.resolver_ip):
            same_network += 1
        else:
            other += 1
    total = lan + same_network + other
    return {
        "unfetchable": total,
        "lan_share_pct": percentage(lan, total),
        "same_network_share_pct": percentage(same_network, total),
        "other_share_pct": percentage(other, total),
    }


def legit_addresses_from_report(report):
    """Known-legitimate IPs per domain, from the prefilter's output."""
    legit = {}
    for response_tuple in report.prefilter.legitimate:
        legit.setdefault(normalize_name(response_tuple.domain),
                         set()).add(response_tuple.ip)
    return legit
