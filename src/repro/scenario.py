"""One-call construction of the paper-calibrated simulated Internet.

:func:`build_scenario` assembles everything: address allocation, the
AS/country/RIR plan (Tables 1/2), the DNS hierarchy with every scanned
domain, web/CDN/mail content, censorship landing pages for 34 countries,
the Great Firewall, the special-purpose hosts of the §4.3 case studies,
and the resolver population with its behaviors, churn, decline, and
growth schedules (Figures 1/2).

Counts are the paper's, divided by ``config.scale`` (default 1:2000) —
all reported results are shares and shapes, which are scale-invariant.
"""

import math
import random

from repro.authdns import HierarchyBuilder
from repro.datasets import (
    ALL_CATEGORIES,
    CATEGORY_ADULT,
    CATEGORY_FILESHARING,
    CATEGORY_GAMBLING,
    CATEGORY_MALWARE,
    DOMAIN_SETS,
    GROUND_TRUTH_DOMAIN,
    MEASUREMENT_DOMAIN,
    SNOOPING_TLDS,
    ScanDomain,
    all_domains,
)
from repro.datasets.domains import CATEGORY_MISC
from repro.inetmodel import (
    AsRegistry,
    AutonomousSystem,
    ChurnModel,
    GeoIpDatabase,
    PrefixAllocator,
    RdnsRegistry,
)
from repro.netsim import (
    DnsIngressFilter,
    GreatFirewall,
    Network,
    ScannerBlocker,
    SimClock,
)
from repro.netsim.clock import WEEK
from repro.resolvers import (
    AdInjectBehavior,
    SameNetworkBehavior,
    StaleCdnBehavior,
    BlockingBehavior,
    CensorshipBehavior,
    EmptyAnswerBehavior,
    LanIpBehavior,
    MailRedirectBehavior,
    MalwareBehavior,
    NsOnlyBehavior,
    NxRedirectBehavior,
    ParkingBehavior,
    PhishingBehavior,
    PopulationBuilder,
    ProxyAllBehavior,
    ResolutionService,
    ResolverSpec,
    SelfIpBehavior,
    StaticIpBehavior,
)
from repro.resolvers.resolver import (FLAG_DEVICE_HTTP, FLAG_PLAIN_NORMAL,
                                      FLAG_SELF_IP)
from repro.scanner import (
    Blacklist,
    ScanCampaign,
    ScanOptions,
    ScanTargetSpace,
)
from repro.core.pipeline import ManipulationPipeline
from repro.websim import (
    CdnProvider,
    CertificateAuthority,
    MailServer,
    SiteLibrary,
    TransparentProxy,
    WebServer,
)
from repro.websim.httpserver import ContentTransformServer, StaticPageServer
from repro.websim.mail import banners_for_provider, provider_for_hostname
from repro.websim import pages
from repro.util import PickTable, apportion

# ---------------------------------------------------------------------------
# Country plan: (country, Jan-2014 resolver count in paper units, relative
# change to Feb-2015).  Top-10 rows are Table 1 verbatim; the rest are
# reconstructed so totals, RIR shares (Table 2), and the overall 26.8M ->
# 17.8M decline (Fig. 1) come out right.
# ---------------------------------------------------------------------------
COUNTRY_PLAN = (
    ("US", 2958640, -0.142), ("CN", 2418949, -0.130),
    ("TR", 1439736, -0.322), ("VN", 1393618, -0.254),
    ("MX", 1372934, -0.144), ("IN", 1269714, +0.127),
    ("TH", 1214042, -0.535), ("IT", 1172001, -0.383),
    ("CO", 1062080, -0.362), ("TW", 1061218, -0.573),
    ("AR", 983000, -0.750), ("ID", 850000, -0.420),
    ("IR", 800000, -0.350), ("BR", 750000, -0.420),
    ("RU", 750000, -0.400), ("PL", 700000, -0.460),
    ("EG", 680000, -0.120), ("KR", 600000, -0.850),
    ("GB", 560000, -0.636), ("DZ", 560000, -0.100),
    ("DE", 520000, -0.470), ("FR", 450000, -0.450),
    ("JP", 420000, -0.420), ("UA", 380000, -0.460),
    ("ES", 350000, -0.430), ("SA", 330000, -0.250),
    ("VE", 300000, -0.480), ("PH", 290000, -0.430),
    ("PK", 280000, -0.250), ("RO", 270000, -0.460),
    ("NL", 250000, -0.480), ("MY", 240000, +0.597),
    ("CL", 230000, -0.450), ("PE", 220000, -0.470),
    ("CA", 210000, -0.150), ("BD", 200000, -0.280),
    ("MA", 200000, -0.080), ("NG", 190000, -0.100),
    ("GR", 180000, -0.300), ("ZA", 170000, -0.120),
    ("CZ", 160000, -0.330), ("SE", 150000, -0.350),
    ("AU", 150000, -0.250), ("HK", 140000, -0.300),
    ("EC", 130000, -0.350), ("BE", 120000, -0.330),
    ("CH", 110000, -0.350), ("SG", 90000, -0.280),
    ("KE", 90000, -0.100), ("TN", 80000, -0.080),
    ("MN", 60000, -0.200), ("LB", 60000, +0.767),
    ("EE", 50000, -0.300),
)

_ISP_NAMES = {
    "US": "Comtel Broadband", "CN": "ChinaNet Backbone",
    "TR": "AnadoluTel", "VN": "VietNamNet", "MX": "TelMexico",
    "IN": "BharatNet", "TH": "SiamOnline", "IT": "ItaliaCom",
    "CO": "ColombiaTel", "TW": "FormosaNet", "AR": "PatagoniaTel",
    "ID": "NusantaraNet", "IR": "ParsOnline", "BR": "BrasilConecta",
    "RU": "VolgaTelecom", "KR": "HanRiverNet", "GB": "AlbionNet",
    "DE": "RheinTelekom", "FR": "LoireTelecom",
}

# Social-network domains the Great Firewall poisons (Fig. 4 / §4.2).
GFW_CENSORED = ("facebook.com", "twitter.com", "youtube.com",
                "www.facebook.com", "www.twitter.com", "www.youtube.com")

# Per-country censorship policies: category (or explicit domain) ->
# probability that an individual resolver in that country censors it.
# Calibrated from §4.2's coverage observations.
CENSOR_POLICIES = {
    "IR": {"domains": {"facebook.com": 0.97, "twitter.com": 0.97,
                       "youtube.com": 0.97},
           "categories": {CATEGORY_ADULT: 0.30, "Dating": 0.35}},
    "TR": {"domains": {"youporn.com": 0.90, "rotten.com": 0.90,
                       "thepiratebay.se": 0.5, "kickass.to": 0.5},
           "categories": {CATEGORY_GAMBLING: 0.4}},
    "ID": {"domains": {"adultfinder.com": 0.916, "youporn.com": 0.80,
                       "blogspot.com": 0.885, "rotten.com": 0.80,
                       "xhamster.com": 0.60, "redtube.com": 0.287},
           "categories": {CATEGORY_GAMBLING: 0.287}},
    "MY": {"domains": {"youporn.com": 0.55},
           "categories": {CATEGORY_GAMBLING: 0.3}},
    "IT": {"categories": {CATEGORY_GAMBLING: 0.693,
                          CATEGORY_FILESHARING: 0.60}},
    "RU": {"categories": {CATEGORY_FILESHARING: 0.35,
                          CATEGORY_GAMBLING: 0.30}},
    "GR": {"categories": {CATEGORY_GAMBLING: 0.839}},
    "BE": {"categories": {CATEGORY_GAMBLING: 0.786}},
    "MN": {"categories": {CATEGORY_ADULT: 0.789}},
    "EE": {"categories": {CATEGORY_GAMBLING: 0.569},
           "landing_country": "RU"},
    "VN": {"domains": {"facebook.com": 0.08},
           "categories": {CATEGORY_ADULT: 0.20}},
    "TH": {"categories": {CATEGORY_ADULT: 0.25,
                          CATEGORY_GAMBLING: 0.25}},
    "SA": {"categories": {CATEGORY_ADULT: 0.50, CATEGORY_GAMBLING: 0.6,
                          "Dating": 0.4}},
    "EG": {"categories": {CATEGORY_ADULT: 0.25}},
    "PK": {"domains": {"youtube.com": 0.08},
           "categories": {CATEGORY_ADULT: 0.40}},
    "DZ": {"categories": {CATEGORY_GAMBLING: 0.4}},
}

# Background suspicious mix: where always-misbehaving resolvers point.
# Calibrated against Table 5's Ground-Truth column (HTTP Error 55.0,
# Login 16.1, Parking 23.4, Misc 5.1, Search/Blocking trace).
BACKGROUND_MIX = (
    ("error", 0.600), ("login", 0.140), ("parking", 0.210),
    ("misc", 0.045), ("search", 0.003), ("blocking", 0.002),
)
_BACKGROUND_KINDS = PickTable(BACKGROUND_MIX)
BACKGROUND_SHARE = 0.027       # share of all resolvers
EMPTY_ANSWER_SHARE = 0.055     # NOERROR-empty for everything (§4.1)
NS_ONLY_SHARE = 0.0011
NX_MONETIZER_SHARE = 0.016     # Search on NXDOMAIN
AV_BLOCKER_SHARE = 0.010       # Blocking for malware/dating/adult
MAIL_REDIRECT_SHARE = 0.030
LAN_IP_SHARE = 0.0020
SAME_NET_SHARE = 0.0012   # answers inside the resolver's own /24 (dead)
SELF_IP_SHARE = 0.0006
PARKING_DEAD_SHARE = 0.030     # parking for dead/re-registered domains
PARKING_DEAD_SHARE_CN = 0.350  # much higher in CN (the two CN domains)
STALE_CDN_SHARE = 0.0025

LANDING_IPS_PER_COUNTRY = 3    # censorship landing-page hosts per censor
MIN_POOL_COUNT = 2             # floor of every scaled resolver pool


class ScenarioConfig:
    """Tunable knobs for scenario construction."""

    def __init__(self, scale=2000, seed=7, loss_rate=0.002,
                 lazy_population=False, node_cache=8192):
        if scale < 1:
            raise ValueError("scale must be >= 1")
        if node_cache < 1:
            raise ValueError("node_cache must be >= 1")
        self.scale = scale
        self.seed = seed
        self.loss_rate = loss_rate
        # Memory-bounded mode: resolver pools keep compact derivation
        # records and materialize nodes on first probe through an LRU of
        # at most ``node_cache`` live nodes (see DESIGN.md
        # "Memory-bounded streaming").
        self.lazy_population = lazy_population
        self.node_cache = node_cache

    def scaled(self, paper_count, minimum=MIN_POOL_COUNT):
        return max(minimum, int(round(paper_count / self.scale)))


class Scenario:
    """The fully built world plus convenience accessors."""

    def __init__(self, config):
        self.config = config
        self.clock = SimClock()
        self.network = Network(self.clock, seed=config.seed,
                               loss_rate=config.loss_rate)
        self.allocator = PrefixAllocator()
        self.as_registry = AsRegistry()
        self.geoip = GeoIpDatabase(self.as_registry)
        self.rdns = RdnsRegistry()
        self.ca = CertificateAuthority()
        self.site_library = SiteLibrary(seed=config.seed)
        self.churn = ChurnModel(self.network, rdns=self.rdns,
                                seed=config.seed + 1)
        self.blacklist = Blacklist()
        self.domain_catalog = {d.name: d for d in all_domains()}
        self.cdn_providers = []
        self.special_ips = {}      # group name -> list of IPs
        self.landing_ips = {}      # country -> list of censorship IPs
        self.gfw = None
        self.hierarchy = None
        self.service = None
        self.population = None
        self.scanner_ip = None
        self.verification_scanner_ip = None
        self.pipeline_source_ip = None
        self.resolver_prefixes = []
        self._next_asn = 64500

    # -- accessors used by examples/benches -----------------------------------

    def target_space(self):
        return ScanTargetSpace(self.resolver_prefixes)

    def new_campaign(self, verify=True, perf=None, options=None, **knobs):
        """A weekly campaign over this world.  The scan knobs come as one
        :class:`~repro.scanner.options.ScanOptions` (``options=``) or as
        its fields by keyword (``shards=``, ``retries=``, ...)."""
        if options is None:
            options = ScanOptions(**knobs)
        elif knobs:
            raise TypeError("pass options= or its fields by keyword, "
                            "not both (got %s)" % ", ".join(sorted(knobs)))
        return ScanCampaign(
            self.network, self.churn, self.target_space(),
            self.scanner_ip, MEASUREMENT_DOMAIN, blacklist=self.blacklist,
            verification_source_ip=(self.verification_scanner_ip
                                    if verify else None),
            perf=perf, options=options)

    def new_pipeline(self, **kwargs):
        return ManipulationPipeline(
            self.network, self.service, self.as_registry, self.rdns,
            self.ca,
            known_cdn_common_names=[p.common_name.lstrip("*.")
                                    for p in self.cdn_providers],
            source_ip=self.pipeline_source_ip,
            domain_catalog=all_domains() + [ScanDomain(
                GROUND_TRUTH_DOMAIN, "GroundTruth")],
            **kwargs)

    def online_resolver_ips(self):
        return self.population.online_resolver_ips()

    def next_asn(self):
        self._next_asn += 1
        return self._next_asn

    def new_as(self, name, country, kind=AutonomousSystem.BROADBAND,
               prefix_length=None, prefix=None):
        """Create an AS with one prefix and register it."""
        if prefix is None:
            prefix = self.allocator.allocate(prefix_length or 20)
        asys = AutonomousSystem(self.next_asn(), name, country, kind,
                                [prefix])
        self.as_registry.add(asys)
        return asys, prefix


# ---------------------------------------------------------------------------
# Build helpers
# ---------------------------------------------------------------------------

def _prefix_length_for(count):
    """A CIDR length giving ~24x headroom over the resolver count.

    Sparse pools matter for Figure 2: on the real Internet resolver
    density is ~0.6% of the address space, so a churned-away address is
    almost never re-leased to another open resolver; dense simulated
    pools would inflate the long-term cohort survival with lookalikes.
    """
    needed = max(16, count * 24)
    length = 32 - max(4, math.ceil(math.log2(needed)))
    return max(12, min(26, length))


def _build_infrastructure(scenario):
    """DNS hierarchy, content servers, CDNs, mail, scanner hosts."""
    config = scenario.config
    # Infrastructure AS (hosting: AuthNS, scanner, trusted resolvers).
    infra_as, infra_prefix = scenario.new_as(
        "SimStudy Research", "US", AutonomousSystem.ACADEMIC, 16)
    builder = HierarchyBuilder(scenario.network, infra_prefix,
                               rdns_registry=scenario.rdns)
    scenario.hierarchy = builder.hierarchy
    scenario._hierarchy_builder = builder
    scenario.scanner_ip = infra_prefix.address_at(60001)
    scenario.pipeline_source_ip = infra_prefix.address_at(60002)
    trusted_source = infra_prefix.address_at(60003)
    # The verification scan runs from a different /8 (§2.2): carve its
    # prefix from the far end of the address space.
    ver_prefix = PrefixAllocator(start="203.64.0.0").allocate(24)
    ver_as = AutonomousSystem(scenario.next_asn(),
                              "SecondVantage Hosting", "DE",
                              AutonomousSystem.HOSTING, [ver_prefix])
    scenario.as_registry.add(ver_as)
    scenario.verification_scanner_ip = ver_prefix.address_at(10)

    scenario.service = ResolutionService(
        builder.hierarchy.root_ips, trusted_source,
        wildcard_suffixes=[MEASUREMENT_DOMAIN])

    # Measurement + ground-truth domains (we operate these AuthNS).
    gt_web_ip = infra_prefix.address_at(60010)
    builder.register_domain(MEASUREMENT_DOMAIN,
                            wildcard_address=infra_prefix.address_at(60011))
    builder.register_domain(GROUND_TRUTH_DOMAIN,
                            {GROUND_TRUTH_DOMAIN: [gt_web_ip]})
    scenario.site_library.set_category(GROUND_TRUTH_DOMAIN, CATEGORY_MISC)
    scenario.network.register(WebServer(
        gt_web_ip, scenario.site_library, [GROUND_TRUTH_DOMAIN],
        certificate=scenario.ca.issue(GROUND_TRUTH_DOMAIN)))

    # CDN providers.
    hosting_countries = ("US", "DE", "JP", "BR", "GB", "SG")
    for cdn_name, cn in (("EdgeSuite", "edgesuite-cdn.net"),
                         ("CloudVia", "cloudvia-edge.com")):
        provider = CdnProvider(cdn_name, cn, scenario.ca,
                               scenario.site_library, seed=config.seed)
        # Edges live in many foreign hosting ASes (the CDN problem, §3.4).
        for index, country in enumerate(hosting_countries):
            edge_as, edge_prefix = scenario.new_as(
                "%s Edge %s" % (cdn_name, country), country,
                AutonomousSystem.HOSTING, 24)
            provider.deploy_edge(scenario.network,
                                 edge_prefix.address_at(10))
            provider.deploy_edge(scenario.network,
                                 edge_prefix.address_at(11),
                                 enabled=(index % 3 != 2))
        scenario.cdn_providers.append(provider)

    # Content hosting ASes for origin web servers.
    origin_ases = []
    for country in ("US", "DE", "FR", "NL", "JP", "SG", "BR", "RU", "CN",
                    "IT", "GB", "IN"):
        asys, prefix = scenario.new_as(
            "%s WebHosting" % country, country, AutonomousSystem.HOSTING,
            22)
        origin_ases.append((asys, prefix, [0]))  # [next host index]

    rng = random.Random(config.seed + 11)

    def next_host_ip(preferred_country=None):
        candidates = origin_ases
        if preferred_country is not None:
            matching = [entry for entry in origin_ases
                        if entry[0].country == preferred_country]
            if matching:
                candidates = matching
        asys, prefix, counter = candidates[rng.randrange(len(candidates))]
        counter[0] += 1
        return prefix.address_at(counter[0] + 10)

    # Register every existing scanned domain: zone, origin server(s), TLS.
    cdn_cycle = 0
    web_server_ips = []
    for domain in all_domains():
        if not domain.exists:
            continue
        scenario.site_library.set_category(domain.name, domain.category)
        if domain.kind == ScanDomain.KIND_MAIL:
            continue  # mail hostnames are registered with their provider
        if domain.category == CATEGORY_MALWARE:
            continue  # handled below: dead, sinkholed, or re-registered
        if domain.cdn:
            provider = scenario.cdn_providers[
                cdn_cycle % len(scenario.cdn_providers)]
            cdn_cycle += 1
            provider.add_customer(domain.name)
            pool = provider.edge_pool_for(domain.name)
            builder.register_domain(domain.name,
                                    {domain.name: pool[:2],
                                     "www." + domain.name: pool[2:4]})
            scenario.service.register_cdn_pool(domain.name, pool)
        else:
            ips = [next_host_ip() for __ in range(rng.randint(1, 2))]
            builder.register_domain(domain.name,
                                    {domain.name: ips,
                                     "www." + domain.name: ips})
            certificate = (scenario.ca.issue(
                domain.name, san=(domain.name, "www." + domain.name))
                if domain.https else None)
            for ip in ips:
                scenario.network.register(WebServer(
                    ip, scenario.site_library, [domain.name],
                    certificate=certificate, https=domain.https))
                # Forward-confirmed rDNS for origin servers (§3.4 rule ii).
                ptr = "web%d.%s" % (rng.randint(1, 9), domain.name)
                scenario.rdns.set_ptr(ip, ptr)
                web_server_ips.append(ip)
    scenario.special_ips["web_servers"] = web_server_ips

    # Malware domains: a third dead (NXDOMAIN), a third sinkholed with a
    # minimal page, a third re-registered by parking providers (§4.2).
    malware_domains = DOMAIN_SETS[CATEGORY_MALWARE]
    sinkholed = []
    for index, domain in enumerate(malware_domains):
        scenario.site_library.set_category(domain.name, CATEGORY_MALWARE)
        if index % 3 == 0:
            continue  # dead: no zone at all -> NXDOMAIN upstream
        ip = next_host_ip()
        builder.register_domain(domain.name, {domain.name: [ip]})
        if index % 3 == 1:
            scenario.network.register(WebServer(
                ip, scenario.site_library, [domain.name], https=False))
            sinkholed.append(domain.name)
        else:
            # Re-registered by a reseller: the zone itself points at
            # parking (even our trusted resolution sees it).
            scenario.network.register(StaticPageServer(
                ip, pages.parking_page(domain.name, seed=config.seed)))
    scenario.special_ips["sinkholed_malware"] = sinkholed

    # Mail providers: zones + legitimate mail servers.
    mail_provider_as, mail_prefix = scenario.new_as(
        "MailCloud Hosting", "US", AutonomousSystem.HOSTING, 22)
    mail_index = [0]
    provider_zone_done = set()
    for domain in DOMAIN_SETS["MX"]:
        provider = provider_for_hostname(domain.name)
        labels = domain.name.split(".")
        apex = ".".join(labels[-2:])
        if apex in ("me.com",):
            apex = "me.com"
        mail_index[0] += 1
        ip = mail_prefix.address_at(mail_index[0] + 5)
        scenario.network.register(MailServer(ip, provider=provider))
        zone = scenario.hierarchy.zone(apex)
        if zone is None:
            zone = builder.register_domain(apex)
        zone.add_a(domain.name, ip)
        provider_zone_done.add(apex)

    return builder


def _build_special_hosts(scenario, builder):
    """Censorship landing pages, blocking/parking/search/login/phish/ad/
    malware/proxy/mail hosts — the destinations of manipulated answers."""
    config = scenario.config
    network = scenario.network

    # Censorship landing pages: a small set of IPs per censoring country.
    for country in pages.CENSOR_COUNTRIES:
        asys, prefix = scenario.new_as(
            "%s National Gateway" % country, country,
            AutonomousSystem.ENTERPRISE, 26)
        ips = []
        for variant in range(LANDING_IPS_PER_COUNTRY):
            ip = prefix.address_at(variant + 5)
            network.register(StaticPageServer(
                ip, pages.censorship_landing(country, variant)))
            ips.append(ip)
        scenario.landing_ips[country] = ips
    scenario.special_ips["censorship_landing"] = [
        ip for ips in scenario.landing_ips.values() for ip in ips]

    svc_as, svc_prefix = scenario.new_as(
        "GlobalServices Hosting", "US", AutonomousSystem.HOSTING, 20)
    counter = [100]

    def svc_ip():
        counter[0] += 1
        return svc_prefix.address_at(counter[0])

    def static_group(name, bodies, status=200, **kwargs):
        ips = []
        for body in bodies:
            ip = svc_ip()
            network.register(StaticPageServer(ip, body, status=status,
                                              **kwargs))
            ips.append(ip)
        scenario.special_ips[name] = ips
        return ips

    static_group("blocking", [
        pages.isp_blocking_page("SafeNet Shield", "malicious"),
        pages.isp_blocking_page("FamilyGuard DNS", "adult"),
        pages.isp_blocking_page("SecureISP Filter", "phishing"),
        pages.isp_blocking_page("KidSafe Net", "dating"),
    ])
    static_group("parking", [
        pages.parking_page("parked-%d.example" % i,
                           reseller=("DomainMonetizer" if i % 2 == 0
                                     else "ParkingLotInc"),
                           seed=config.seed + i)
        for i in range(6)])
    static_group("search", [pages.search_page(provider="WebSearch"),
                            pages.search_page(provider="FindFast"),
                            pages.search_page(provider="LookupNow")])
    static_group("captive_portal", [
        pages.captive_portal("City Hotel", "hotel"),
        pages.captive_portal("Metro ISP", "isp"),
        pages.captive_portal("State University", "edu"),
        pages.webmail_login("ISP Webmail"),
    ])
    static_group("personal", [
        _personal_page(config.seed, i) for i in range(6)])
    static_group("dead", [])  # placeholder group; dead hosts below
    dead_ips = [svc_ip() for __ in range(5)]  # no node registered: timeouts
    scenario.special_ips["dead"] = dead_ips

    # Ad manipulation hosts (§4.3): 2 banner injectors, 2 script servers,
    # 7 ad blankers, 2 fake search pages with ads.
    ad_targets = [d.name for d in DOMAIN_SETS["Ads"]]
    inject_ips = []
    for transform in (pages.inject_ad_banner, pages.inject_ad_banner,
                      pages.inject_ad_script, pages.inject_ad_script):
        ip = svc_ip()
        network.register(ContentTransformServer(
            ip, scenario.site_library, transform, target_domains=None))
        inject_ips.append(ip)
    scenario.special_ips["ad_inject"] = inject_ips
    blank_ips = []
    for __ in range(7):
        ip = svc_ip()
        network.register(ContentTransformServer(
            ip, scenario.site_library, pages.blank_ads,
            target_domains=None))
        blank_ips.append(ip)
    scenario.special_ips["ad_blank"] = blank_ips
    static_group("fake_search", [pages.fake_search_with_ads("Google"),
                                 pages.fake_search_with_ads("Google")])

    # Transparent proxies: HTTP-only and TLS-capable (§4.3).  Proxies
    # relay web content only — asking them for a bare mail hostname gets
    # an error page, as on the real Internet.
    proxyable = {d.name for d in all_domains()
                 if d.exists and d.kind == ScanDomain.KIND_WEB}
    proxyable.add(GROUND_TRUTH_DOMAIN)
    http_proxy_ips = []
    for __ in range(10):
        ip = svc_ip()
        network.register(TransparentProxy(ip, scenario.site_library,
                                          https=False,
                                          web_domains=proxyable))
        http_proxy_ips.append(ip)
    scenario.special_ips["proxy_http"] = http_proxy_ips
    # TLS-capable proxies terminate TLS with their own issuing CA —
    # their certificates are well-formed (so §4.3 classifies them as
    # TLS-capable) but not trusted by the study's store, which is why
    # the prefilter's certificate rule does not whitewash them.
    proxy_ca = CertificateAuthority("ProxyTrust CA")
    tls_proxy_ips = []
    for __ in range(10):
        ip = svc_ip()
        network.register(TransparentProxy(ip, scenario.site_library,
                                          https=True, ca=proxy_ca,
                                          web_domains=proxyable))
        tls_proxy_ips.append(ip)
    scenario.special_ips["proxy_tls"] = tls_proxy_ips

    # Phishing hosts: PayPal image-slice pages (some HTTPS/self-signed),
    # and two bank clones (Brazilian and Russian networks, HTTP-only).
    paypal_ips = []
    for index in range(4):
        ip = svc_ip()
        cert = (CertificateAuthority.self_signed("paypal.com")
                if index == 0 else None)
        network.register(StaticPageServer(ip, pages.phishing_paypal(),
                                          certificate=cert))
        paypal_ips.append(ip)
    scenario.special_ips["phish_paypal"] = paypal_ips
    bank_page = scenario.site_library.page_for("intesasanpaolo.it")
    br_as, br_prefix = scenario.new_as("BR BulletHost", "BR",
                                       AutonomousSystem.HOSTING, 26)
    ru_as, ru_prefix = scenario.new_as("RU BulletHost", "RU",
                                       AutonomousSystem.HOSTING, 26)
    bank_phish_ips = [br_prefix.address_at(5), ru_prefix.address_at(5)]
    for ip in bank_phish_ips:
        network.register(StaticPageServer(
            ip, pages.phishing_bank(bank_page)))
    scenario.special_ips["phish_bank"] = bank_phish_ips

    # Malware-download update pages.
    malware_ips = []
    for index in range(8):
        ip = svc_ip()
        product = ("Adobe Flash Player" if index % 2 == 0
                   else "Java Runtime Environment")
        network.register(StaticPageServer(
            ip, pages.malware_update_page(product)))
        malware_ips.append(ip)
    scenario.special_ips["malware_update"] = malware_ips

    # Rogue mail listeners; two copy the genuine provider banners (§4.3).
    rogue_mail_ips = []
    for __ in range(10):
        ip = svc_ip()
        network.register(MailServer(ip, provider=None))  # generic banners
        rogue_mail_ips.append(ip)
    scenario.special_ips["mail_rogue"] = rogue_mail_ips
    copy_ips = []
    cn_research_as, cn_research_prefix = scenario.new_as(
        "CN Research Network", "CN", AutonomousSystem.ACADEMIC, 26)
    for index, provider in enumerate(("gmail.com", "yandex.ru")):
        ip = cn_research_prefix.address_at(index + 5)
        network.register(MailServer(
            ip, banners=banners_for_provider(provider)))
        copy_ips.append(ip)
    scenario.special_ips["mail_banner_copy"] = copy_ips


def _personal_page(seed, index):
    from repro.websim.html import HtmlPage
    rng = random.Random("%s|personal|%s" % (seed, index))
    page = HtmlPage("My %s Page" % rng.choice(
        ("Photo", "Travel", "Recipe", "Garden", "Model Train", "Shop")))
    page.add_heading("Welcome to my homepage")
    for __ in range(rng.randint(2, 5)):
        page.add_paragraph("Lorem ipsum dolor sit amet %d." % rng.random())
    page.add_image("/photos/%d.jpg" % index, alt="photo")
    return page.render()


# ---------------------------------------------------------------------------
# Behavior factory: per-resolver manipulation assignment
# ---------------------------------------------------------------------------

def _make_behavior_factory(scenario):
    special = scenario.special_ips
    landing = scenario.landing_ips
    catalog = scenario.domain_catalog
    malware_names = [d.name for d in DOMAIN_SETS[CATEGORY_MALWARE]]
    dead_parked = [name for name in malware_names
                   if scenario.hierarchy.zone(name) is None]
    torproject = ["torproject.org"]
    mail_names = [d.name for d in DOMAIN_SETS["MX"]]
    dating_names = [d.name for d in DOMAIN_SETS["Dating"]]
    adult_names = [d.name for d in DOMAIN_SETS["Adult"]]
    by_category = {category: [d.name for d in DOMAIN_SETS[category]]
                   for category in ALL_CATEGORIES}

    def background_behavior(rng, spec):
        kind = _BACKGROUND_KINDS.pick(rng)
        if kind == "error":
            pool = special["web_servers"] + special["dead"]
            return StaticIpBehavior(pool[rng.randrange(len(pool))])
        if kind == "login":
            if rng.random() < 0.917:
                return SelfIpBehavior()
            pool = special["captive_portal"]
            return StaticIpBehavior(pool[rng.randrange(len(pool))])
        if kind == "parking":
            pool = special["parking"]
            return StaticIpBehavior(pool[rng.randrange(len(pool))])
        if kind == "search":
            pool = special["search"]
            return StaticIpBehavior(pool[rng.randrange(len(pool))])
        if kind == "blocking":
            pool = special["blocking"]
            return StaticIpBehavior(pool[rng.randrange(len(pool))])
        # misc: proxies and personal pages.
        point = rng.random()
        if point < 0.30:
            return ProxyAllBehavior(special["proxy_http"])
        if point < 0.33:
            return ProxyAllBehavior(special["proxy_tls"])
        pool = special["personal"]
        return StaticIpBehavior(pool[rng.randrange(len(pool))])

    def censorship_behaviors(rng, spec):
        policy = CENSOR_POLICIES.get(spec.country)
        if policy is None:
            return []
        landing_country = policy.get("landing_country", spec.country)
        ips = landing.get(landing_country)
        if not ips:
            return []
        censored = set()
        for domain, probability in policy.get("domains", {}).items():
            if rng.random() < probability:
                censored.add(domain)
        for category, probability in policy.get("categories", {}).items():
            names = by_category.get(category, ())
            if rng.random() < probability:
                censored.update(names)
        if not censored:
            return []
        return [CensorshipBehavior(censored, ips, country=spec.country)]

    def factory(rng, spec, index, ip):
        behaviors = []
        behaviors.extend(censorship_behaviors(rng, spec))
        if rng.random() < AV_BLOCKER_SHARE:
            blocked = list(malware_names)
            if rng.random() < 0.5:
                blocked += dating_names
            if rng.random() < 0.3:
                blocked += adult_names
            pool = special["blocking"]
            behaviors.append(BlockingBehavior(
                blocked, pool[rng.randrange(len(pool))],
                empty_answer=rng.random() < 0.5))
        parking_share = (PARKING_DEAD_SHARE_CN if spec.country == "CN"
                         else PARKING_DEAD_SHARE)
        if rng.random() < parking_share:
            targets = list(dead_parked)
            if rng.random() < 0.35:
                targets += torproject
            behaviors.append(ParkingBehavior(targets, special["parking"]))
        if rng.random() < NX_MONETIZER_SHARE:
            pool = special["search"]
            behaviors.append(NxRedirectBehavior(
                pool[rng.randrange(len(pool))]))
        if rng.random() < MAIL_REDIRECT_SHARE:
            behaviors.append(MailRedirectBehavior(
                mail_names, special["mail_rogue"]))
        if rng.random() < LAN_IP_SHARE:
            behaviors.append(LanIpBehavior(
                "192.168.%d.1" % rng.randint(0, 5)))
            return behaviors
        if rng.random() < SAME_NET_SHARE:
            behaviors.append(SameNetworkBehavior(
                offset=rng.randint(180, 250)))
            return behaviors
        if rng.random() < SELF_IP_SHARE:
            behaviors.append(SelfIpBehavior())
            return behaviors
        if rng.random() < EMPTY_ANSWER_SHARE:
            behaviors.append(EmptyAnswerBehavior())
            return behaviors
        if rng.random() < NS_ONLY_SHARE:
            behaviors.append(NsOnlyBehavior())
            return behaviors
        if rng.random() < STALE_CDN_SHARE and scenario.cdn_providers:
            provider = scenario.cdn_providers[
                rng.randrange(len(scenario.cdn_providers))]
            stale = {domain: [edge.ip for edge in provider.edges
                              if not edge.enabled][:2]
                     for domain in provider.customer_domains}
            stale = {d: ips for d, ips in stale.items() if ips}
            if stale:
                behaviors.append(StaleCdnBehavior(stale))
        if rng.random() < BACKGROUND_SHARE:
            behaviors.append(background_behavior(rng, spec))
        return behaviors

    return factory


def _assign_case_study_resolvers(scenario, rng):
    """Hand-pick small resolver groups for the §4.3 case studies, so they
    exist at every scale (their paper counts are below 1/scale)."""
    special = scenario.special_ips
    config = scenario.config
    # Only long-lived hosts qualify: the case studies are measured at the
    # END of the 13-month campaign, so a decommissioned host would
    # silently shrink these already-tiny populations.  ``lazy_flags`` is
    # one predicate in both modes, so the shuffled candidates match.
    normal = [host.node for host in scenario.population.hosts
              if host.online and host.offline_after is None
              and host.online_after is None
              and host.node.lazy_flags & FLAG_PLAIN_NORMAL]
    rng.shuffle(normal)
    cursor = [0]

    def take(paper_count, minimum):
        count = min(len(normal) - cursor[0],
                    config.scaled(paper_count, minimum=minimum))
        # Chosen nodes get a behavior inserted below: materialize lazy
        # picks permanently so the mutation survives LRU eviction.
        chosen = [node.pin() for node in normal[cursor[0]:cursor[0] + count]]
        cursor[0] += count
        return chosen

    groups = {}
    ad_targets = [d.name for d in DOMAIN_SETS["Ads"]]
    for node in take(281, 3):
        node.behaviors.insert(0, AdInjectBehavior(
            ad_targets, special["ad_inject"]))
        groups.setdefault("ad_inject", []).append(node.ip)
    for node in take(14, 2):
        node.behaviors.insert(0, AdInjectBehavior(
            ad_targets, special["ad_blank"]))
        groups.setdefault("ad_blank", []).append(node.ip)
    for node in take(7, 2):
        node.behaviors.insert(0, StaticIpBehavior(
            special["fake_search"][0]))
        groups.setdefault("fake_search", []).append(node.ip)
    for node in take(176, 2):
        node.behaviors.insert(0, PhishingBehavior(
            ["paypal.com"], special["phish_paypal"]))
        groups.setdefault("phish_paypal", []).append(node.ip)
    for node in take(285, 2):
        node.behaviors.insert(0, PhishingBehavior(
            ["intesasanpaolo.it"], [special["phish_bank"][0]]))
        groups.setdefault("phish_bank_br", []).append(node.ip)
    for node in take(46, 2):
        node.behaviors.insert(0, PhishingBehavior(
            ["intesasanpaolo.it"], [special["phish_bank"][1]]))
        groups.setdefault("phish_bank_ru", []).append(node.ip)
    for node in take(228, 2):
        node.behaviors.insert(0, MalwareBehavior(
            ["get.adobe.com", "update.adobe.com", "java.com"],
            special["malware_update"]))
        groups.setdefault("malware", []).append(node.ip)
    for node in take(10179, 4):
        node.behaviors.insert(0, ProxyAllBehavior(special["proxy_http"]))
        groups.setdefault("proxy_http", []).append(node.ip)
    for node in take(99, 2):
        node.behaviors.insert(0, ProxyAllBehavior(special["proxy_tls"]))
        groups.setdefault("proxy_tls", []).append(node.ip)
    mail_names = [d.name for d in DOMAIN_SETS["MX"]]
    for node in take(8, 2):
        node.behaviors.insert(0, MailRedirectBehavior(
            mail_names, special["mail_banner_copy"]))
        groups.setdefault("mail_banner_copy", []).append(node.ip)
    scenario.case_study_resolvers = groups


# Broadband pool split per country: main telco, cable, wireless (§2.3).
BROADBAND_SPLIT_SHARES = (0.62, 0.26, 0.12)


def split_pool_counts(count, change):
    """Per-AS broadband pool counts for one country.

    Returns ``(pool_counts, grown_counts)``: the initial per-AS counts
    (largest-remainder apportioned so they sum exactly to ``count``
    before minimum floors) and the post-growth counts for growing
    countries (apportioned from the grown total, floored at the initial
    counts so growth never shrinks a pool).  Rounding each share
    independently drifts from the country total on roughly a quarter of
    all counts (a 4-host country rounds to 2+1+0 = 3 hosts); Hamilton's
    method is exact before the minimum floors.
    """
    minimums = [MIN_POOL_COUNT] * len(BROADBAND_SPLIT_SHARES)
    pool_counts = apportion(count, BROADBAND_SPLIT_SHARES,
                            minimums=minimums)
    if change > 0:
        grown_counts = apportion(int(round(count * (1 + change))),
                                 BROADBAND_SPLIT_SHARES,
                                 minimums=pool_counts)
    else:
        grown_counts = list(pool_counts)
    return pool_counts, grown_counts


def _build_population(scenario, builder):
    config = scenario.config
    factory = _make_behavior_factory(scenario)
    scenario.population = PopulationBuilder(
        scenario.network, scenario.churn, scenario.service,
        rdns=scenario.rdns, snooping_tlds=SNOOPING_TLDS,
        seed=config.seed + 2,
        lazy=config.lazy_population, node_cache=config.node_cache)
    rng = random.Random(config.seed + 3)
    gfw_prefixes = []
    decline_specs = []

    for country, paper_count, change in COUNTRY_PLAN:
        count = config.scaled(paper_count)
        # Split across a main broadband AS and up to two secondary ones.
        splits = ["%s Telecom" % _ISP_NAMES.get(country, country),
                  "%s Cable" % country,
                  "%s Wireless" % country]
        special_as_change = None
        if country == "AR":
            # The Argentinean telco whose resolvers all but vanished.
            special_as_change = {0: -0.978, 1: -0.30, 2: -0.30}
        elif country == "KR":
            special_as_change = {0: -0.9999, 1: -0.62, 2: -0.62}
        pool_counts, grown_counts = split_pool_counts(count, change)
        for index, name in enumerate(splits):
            pool_count = pool_counts[index]
            prefix_length = _prefix_length_for(pool_count)
            asys, prefix = scenario.new_as(
                name, country, AutonomousSystem.BROADBAND, prefix_length)
            scenario.resolver_prefixes.append(prefix)
            if country == "CN":
                gfw_prefixes.append(prefix)
            as_change = change
            if special_as_change is not None:
                as_change = special_as_change[index]
            spec_extra = {}
            if as_change < -0.9:
                # Near-total shutdowns (the AR/KR ISPs) take their closed
                # resolvers down too; without this the stable REFUSED
                # population would floor the decline at ~-91%.
                spec_extra = {"refused_share": 0.004,
                              "servfail_share": 0.008}
            spec = ResolverSpec(
                asys, prefix, pool_count,
                isp_domain="%s.example" % name.lower().replace(" ", "-"),
                offline_fraction=max(0.0, -as_change),
                **spec_extra,
                growth_fraction=(as_change / (1 + as_change)
                                 if as_change > 0 else 0.0),
                behavior_factory=factory,
                gfw_immune_share=(0.024 if country == "CN" else 0.0),
            )
            if as_change > 0:
                # Growth hosts must be built on top of the initial count.
                spec.count = grown_counts[index]
            decline_specs.append(spec)
            scenario.population.build_pool(spec)

    # Resolver fleets of hosting/datacenter providers: the non-broadband
    # minority of the Top-25 networks ("at least 20 offer end user
    # services" means a handful do not, §2.3).  Hosting resolvers sit on
    # static addresses and rarely vanish.
    hosting_pools = (("US", "Summit Hosting", 400000),
                     ("DE", "Rhein Datacenters", 300000),
                     ("JP", "Tokai Cloud", 250000),
                     ("SG", "Lion DC", 200000),
                     ("NL", "Polder Hosting", 150000))
    for country, name, paper_count in hosting_pools:
        pool_count = config.scaled(paper_count)
        prefix_length = _prefix_length_for(pool_count)
        asys, prefix = scenario.new_as(name, country,
                                       AutonomousSystem.HOSTING,
                                       prefix_length)
        scenario.resolver_prefixes.append(prefix)
        scenario.population.build_pool(ResolverSpec(
            asys, prefix, pool_count, behavior_factory=factory,
            offline_fraction=0.05, day_lease_share=0.0,
            week_lease_share=0.0, static_mean_weeks=100,
            rdns_coverage=0.9, dynamic_token_share=0.0))

    # The Great Firewall middlebox over the (main) Chinese prefixes.
    scenario.gfw = GreatFirewall(
        gfw_prefixes, GFW_CENSORED, seed=config.seed + 4,
        decoy_pool=scenario.special_ips["web_servers"][:20])
    scenario.network.add_middlebox(scenario.gfw)

    # The 28 dark networks (§2.3): blocked-scanner, DNS-filtered, shutdown.
    dark_total = 0
    blocked_networks = []
    for index in range(4):
        asys, prefix = scenario.new_as(
            "DarkNet Blocked %d" % index, ("BR", "UA", "PH", "RO")[index],
            AutonomousSystem.BROADBAND, 24)
        scenario.resolver_prefixes.append(prefix)
        pool_count = config.scaled(2750, minimum=4)
        scenario.population.build_pool(ResolverSpec(
            asys, prefix, pool_count, behavior_factory=factory,
            day_lease_share=0.0, week_lease_share=0.0,
            static_mean_weeks=500))
        blocked_networks.append(prefix)
        dark_total += pool_count
    scenario.network.add_middlebox(ScannerBlocker(
        [scenario.scanner_ip], blocked_networks,
        active_after=18 * WEEK))
    filtered_as, filtered_prefix = scenario.new_as(
        "DarkNet Filtered", "PL", AutonomousSystem.BROADBAND, 24)
    scenario.resolver_prefixes.append(filtered_prefix)
    scenario.population.build_pool(ResolverSpec(
        filtered_as, filtered_prefix, config.scaled(2750, minimum=4),
        behavior_factory=factory, day_lease_share=0.0,
        week_lease_share=0.0, static_mean_weeks=500))
    scenario.network.add_middlebox(DnsIngressFilter(
        [filtered_prefix], active_after=26 * WEEK))
    shut_as, shut_prefix = scenario.new_as(
        "DarkNet Shutdown", "CZ", AutonomousSystem.BROADBAND, 24)
    scenario.resolver_prefixes.append(shut_prefix)
    # Shutdowns are gradual (servers retired over months), unlike the
    # abrupt one-week disappearance of newly deployed DNS filtering —
    # that difference is what the >=100-resolvers heuristic keys on.
    scenario.population.build_pool(ResolverSpec(
        shut_as, shut_prefix, config.scaled(2750, minimum=4),
        behavior_factory=factory, offline_fraction=1.0,
        offline_start_week=8, offline_end_week=50,
        day_lease_share=0.0, week_lease_share=0.0,
        static_mean_weeks=500))

    _assign_case_study_resolvers(scenario, rng)
    _equip_self_ip_resolvers(scenario, rng)


def _equip_self_ip_resolvers(scenario, rng):
    """Give every self-IP-answering resolver a device login page.

    The paper finds 91.7% of Login-category redirects leading to router
    login pages of two large manufacturers, and 7.0% of self-IP answers
    belonging to one brand of IP cameras (§4.1/§4.2).
    """
    for node in scenario.population.resolvers:
        # ``lazy_flags`` answers both checks unmaterialized: one draw per
        # qualifying node below, in either mode.
        flags = node.lazy_flags
        if not flags & FLAG_SELF_IP or flags & FLAG_DEVICE_HTTP:
            continue
        node = node.pin()
        point = rng.random()
        if point < 0.55:
            node.device_page = pages.router_login("TP-LINK")
        elif point < 0.917:
            node.device_page = pages.router_login("ZyXEL")
        elif point < 0.987:
            node.device_page = pages.camera_login("NetCam")
        else:
            node.device_page = pages.webmail_login()


def build_scenario(config=None):
    """Build the complete simulated world; returns a :class:`Scenario`."""
    if config is None:
        config = ScenarioConfig()
    scenario = Scenario(config)
    builder = _build_infrastructure(scenario)
    _build_special_hosts(scenario, builder)
    _build_population(scenario, builder)
    return scenario
