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
    AddressPlan,
    AsRegistry,
    AutonomousSystem,
    ChurnModel,
    GeoIpDatabase,
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
# Addresses per resolver in a pool prefix.  Sparse pools matter for
# Figure 2: on the real Internet resolver density is ~0.6% of the
# address space, so a churned-away address is almost never re-leased to
# another open resolver; dense simulated pools would inflate the
# long-term cohort survival with lookalikes.
POOL_HEADROOM = 24

# Named hosts of the infrastructure block; its AuthNS servers take the
# block's cursor from host 1 up.
INFRA_HOSTS = {"scanner": 60001, "pipeline_source": 60002,
               "trusted_source": 60003, "ground_truth_web": 60010,
               "measurement_wildcard": 60011}

CDN_PROVIDERS = (("EdgeSuite", "edgesuite-cdn.net"),
                 ("CloudVia", "cloudvia-edge.com"))
CDN_EDGE_COUNTRIES = ("US", "DE", "JP", "BR", "GB", "SG")
ORIGIN_HOSTING_COUNTRIES = ("US", "DE", "FR", "NL", "JP", "SG", "BR", "RU",
                            "CN", "IT", "GB", "IN")

# Per-AS decline of the two near-total ISP shutdowns (§2.3): the main
# telco, cable and wireless AS of the country, replacing its change.
ISP_SHUTDOWNS = {"AR": (-0.978, -0.30, -0.30),   # the Argentinean telco
                 "KR": (-0.9999, -0.62, -0.62)}

# Resolver fleets of hosting/datacenter providers: the non-broadband
# minority of the Top-25 networks ("at least 20 offer end user
# services" means a handful do not, §2.3).  Hosting resolvers sit on
# static addresses and rarely vanish.
HOSTING_POOLS = (("US", "Summit Hosting", 400000),
                 ("DE", "Rhein Datacenters", 300000),
                 ("JP", "Tokai Cloud", 250000),
                 ("SG", "Lion DC", 200000),
                 ("NL", "Polder Hosting", 150000))

# The 28 dark networks (§2.3): four block the scanner from week 18, one
# filters DNS from week 26, one is shut down.  Shutdowns are gradual
# (servers retired over months), unlike the abrupt one-week
# disappearance of newly deployed DNS filtering — that difference is
# what the >=100-resolvers heuristic keys on.
DARK_NETWORKS = (("DarkNet Blocked 0", "BR", "blocked"),
                 ("DarkNet Blocked 1", "UA", "blocked"),
                 ("DarkNet Blocked 2", "PH", "blocked"),
                 ("DarkNet Blocked 3", "RO", "blocked"),
                 ("DarkNet Filtered", "PL", "filtered"),
                 ("DarkNet Shutdown", "CZ", "shutdown"))
_DARK_FATES = {"blocked": {}, "filtered": {},
               "shutdown": {"offline_fraction": 1.0, "offline_start_week": 8,
                            "offline_end_week": 50}}

# Answer styles that end a resolver's behaviour draws: (share, the
# behaviour from the resolver's rng), tried in order after the
# combinable manipulations.
_EXCLUSIVE_STYLES = (
    (LAN_IP_SHARE,
     lambda rng: LanIpBehavior("192.168.%d.1" % rng.randint(0, 5))),
    (SAME_NET_SHARE,
     lambda rng: SameNetworkBehavior(offset=rng.randint(180, 250))),
    (SELF_IP_SHARE, lambda rng: SelfIpBehavior()),
    (EMPTY_ANSWER_SHARE, lambda rng: EmptyAnswerBehavior()),
    (NS_ONLY_SHARE, lambda rng: NsOnlyBehavior()),
)


class ScenarioConfig:
    """Tunable knobs for scenario construction."""

    def __init__(self, scale=2000, seed=7, loss_rate=0.002,
                 lazy_population=False, node_cache=8192):
        if not 1 <= scale < math.inf:
            raise ValueError("scale must be finite and >= 1")
        if not 0 <= loss_rate <= 1:
            raise ValueError("loss_rate must be in [0, 1]")
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
        self.as_registry = AsRegistry()
        self.plan = AddressPlan(self.as_registry)
        self.geoip = GeoIpDatabase(self.as_registry)
        self.rdns = RdnsRegistry()
        self.ca = CertificateAuthority()
        self.site_library = SiteLibrary(seed=config.seed)
        self.churn = ChurnModel(self.network, rdns=self.rdns,
                                seed=config.seed + 1)
        self.blacklist = Blacklist()
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


# ---------------------------------------------------------------------------
# Build helpers
# ---------------------------------------------------------------------------

def _prefix_length_for(count):
    """A CIDR length giving about ``POOL_HEADROOM`` addresses per resolver."""
    needed = max(16, count * POOL_HEADROOM)
    length = 32 - max(4, math.ceil(math.log2(needed)))
    return max(12, min(26, length))


def _server(kind, *args, **kwargs):
    """A ``kind`` server waiting for its address."""
    return lambda ip: kind(ip, *args, **kwargs)


def _static_pages(*bodies):
    return [_server(StaticPageServer, body) for body in bodies]


def _serve(network, block, servers):
    """Give each server the next host of ``block`` and register it
    (``None``: an address where nothing listens); returns the hosts."""
    ips = []
    for server in servers:
        ip = block.next()
        if server is not None:
            network.register(server(ip))
        ips.append(ip)
    return ips


def _build_infrastructure(scenario):
    """DNS hierarchy, content servers, CDNs, mail, scanner hosts."""
    config = scenario.config
    plan = scenario.plan
    # Infrastructure AS (hosting: AuthNS, scanner, trusted resolvers).
    infra = plan.block("SimStudy Research", "US",
                       AutonomousSystem.ACADEMIC, 16)
    builder = HierarchyBuilder(scenario.network, infra,
                               rdns_registry=scenario.rdns)
    scenario.hierarchy = builder.hierarchy
    scenario.scanner_ip = infra.host(INFRA_HOSTS["scanner"])
    scenario.pipeline_source_ip = infra.host(INFRA_HOSTS["pipeline_source"])
    trusted_source = infra.host(INFRA_HOSTS["trusted_source"])
    # The verification scan runs from a different /8 (§2.2).
    scenario.verification_scanner_ip = plan.block(
        "SecondVantage Hosting", "DE", AutonomousSystem.HOSTING, 24,
        first=10, region="vantage").next()

    scenario.service = ResolutionService(
        builder.hierarchy.root_ips, trusted_source,
        wildcard_suffixes=[MEASUREMENT_DOMAIN])

    # Measurement + ground-truth domains (we operate these AuthNS).
    gt_web_ip = infra.host(INFRA_HOSTS["ground_truth_web"])
    builder.register_domain(
        MEASUREMENT_DOMAIN,
        wildcard_address=infra.host(INFRA_HOSTS["measurement_wildcard"]))
    builder.register_domain(GROUND_TRUTH_DOMAIN,
                            {GROUND_TRUTH_DOMAIN: [gt_web_ip]})
    scenario.site_library.set_category(GROUND_TRUTH_DOMAIN, CATEGORY_MISC)
    scenario.network.register(WebServer(
        gt_web_ip, scenario.site_library, [GROUND_TRUTH_DOMAIN],
        certificate=scenario.ca.issue(GROUND_TRUTH_DOMAIN)))

    # CDN providers: edges live in many foreign hosting ASes (the CDN
    # problem, §3.4); every third country's second edge is disabled.
    for cdn_name, cn in CDN_PROVIDERS:
        provider = CdnProvider(cdn_name, cn, scenario.ca,
                               scenario.site_library, seed=config.seed)
        for index, country in enumerate(CDN_EDGE_COUNTRIES):
            edges = plan.block("%s Edge %s" % (cdn_name, country), country,
                               AutonomousSystem.HOSTING, 24, first=10)
            provider.deploy_edge(scenario.network, edges.next())
            provider.deploy_edge(scenario.network, edges.next(),
                                 enabled=(index % 3 != 2))
        scenario.cdn_providers.append(provider)

    # Content hosting ASes for origin web servers; each origin server
    # lands in a randomly drawn one.
    origins = [plan.block("%s WebHosting" % country, country,
                          AutonomousSystem.HOSTING, 22, first=11)
               for country in ORIGIN_HOSTING_COUNTRIES]
    rng = random.Random(config.seed + 11)

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
            ips = [origins[rng.randrange(len(origins))].next()
                   for __ in range(rng.randint(1, 2))]
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
        ip = origins[rng.randrange(len(origins))].next()
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
    mail = plan.block("MailCloud Hosting", "US", AutonomousSystem.HOSTING,
                      22, first=6)
    for domain in DOMAIN_SETS["MX"]:
        ip = mail.next()
        scenario.network.register(MailServer(
            ip, provider=provider_for_hostname(domain.name)))
        apex = ".".join(domain.name.split(".")[-2:])
        zone = scenario.hierarchy.zone(apex)
        if zone is None:
            zone = builder.register_domain(apex)
        zone.add_a(domain.name, ip)


def _build_special_hosts(scenario):
    """Censorship landing pages, blocking/parking/search/login/phish/ad/
    malware/proxy/mail hosts — the destinations of manipulated answers."""
    config = scenario.config
    plan = scenario.plan
    network = scenario.network
    library = scenario.site_library

    # Censorship landing pages: a small set of IPs per censoring country.
    for country in pages.CENSOR_COUNTRIES:
        gateway = plan.block("%s National Gateway" % country, country,
                             AutonomousSystem.ENTERPRISE, 26, first=5)
        scenario.landing_ips[country] = _serve(
            network, gateway, _static_pages(
                *[pages.censorship_landing(country, variant)
                  for variant in range(LANDING_IPS_PER_COUNTRY)]))
    scenario.special_ips["censorship_landing"] = [
        ip for ips in scenario.landing_ips.values() for ip in ips]

    services = plan.block("GlobalServices Hosting", "US",
                          AutonomousSystem.HOSTING, 20, first=101)
    # Two bank-clone phishing hosts on Brazilian and Russian networks,
    # and two mail listeners copying genuine provider banners (§4.3).
    bullet_br = plan.block("BR BulletHost", "BR", AutonomousSystem.HOSTING,
                           26, first=5)
    bullet_ru = plan.block("RU BulletHost", "RU", AutonomousSystem.HOSTING,
                           26, first=5)
    cn_research = plan.block("CN Research Network", "CN",
                             AutonomousSystem.ACADEMIC, 26, first=5)

    # Transparent proxies relay web content only — asking them for a
    # bare mail hostname gets an error page, as on the real Internet.
    proxyable = {d.name for d in all_domains()
                 if d.exists and d.kind == ScanDomain.KIND_WEB}
    proxyable.add(GROUND_TRUTH_DOMAIN)
    # TLS-capable proxies terminate TLS with their own issuing CA —
    # their certificates are well-formed (so §4.3 classifies them as
    # TLS-capable) but not trusted by the study's store, which is why
    # the prefilter's certificate rule does not whitewash them.
    proxy_ca = CertificateAuthority("ProxyTrust CA")
    bank_clone = pages.phishing_bank(library.page_for("intesasanpaolo.it"))

    # (group, block, its servers), in address and registration order.
    hosts = (
        ("blocking", services, _static_pages(
            pages.isp_blocking_page("SafeNet Shield", "malicious"),
            pages.isp_blocking_page("FamilyGuard DNS", "adult"),
            pages.isp_blocking_page("SecureISP Filter", "phishing"),
            pages.isp_blocking_page("KidSafe Net", "dating"))),
        ("parking", services, _static_pages(*[
            pages.parking_page("parked-%d.example" % i,
                               reseller=("DomainMonetizer" if i % 2 == 0
                                         else "ParkingLotInc"),
                               seed=config.seed + i)
            for i in range(6)])),
        ("search", services, _static_pages(
            pages.search_page(provider="WebSearch"),
            pages.search_page(provider="FindFast"),
            pages.search_page(provider="LookupNow"))),
        ("captive_portal", services, _static_pages(
            pages.captive_portal("City Hotel", "hotel"),
            pages.captive_portal("Metro ISP", "isp"),
            pages.captive_portal("State University", "edu"),
            pages.webmail_login("ISP Webmail"))),
        ("personal", services, _static_pages(
            *[_personal_page(config.seed, i) for i in range(6)])),
        # Nothing listens: probes of these addresses time out.
        ("dead", services, [None] * 5),
        # Ad manipulation hosts (§4.3): 2 banner injectors, 2 script
        # servers, 7 ad blankers, 2 fake search pages with ads.
        ("ad_inject", services, [
            _server(ContentTransformServer, library, transform,
                    target_domains=None)
            for transform in (pages.inject_ad_banner, pages.inject_ad_banner,
                              pages.inject_ad_script,
                              pages.inject_ad_script)]),
        ("ad_blank", services, [_server(ContentTransformServer, library,
                                        pages.blank_ads,
                                        target_domains=None)] * 7),
        ("fake_search", services, _static_pages(
            pages.fake_search_with_ads("Google"),
            pages.fake_search_with_ads("Google"))),
        # Transparent proxies: HTTP-only and TLS-capable (§4.3).
        ("proxy_http", services, [_server(TransparentProxy, library,
                                          https=False,
                                          web_domains=proxyable)] * 10),
        ("proxy_tls", services, [_server(TransparentProxy, library,
                                         https=True, ca=proxy_ca,
                                         web_domains=proxyable)] * 10),
        # PayPal image-slice pages, the first HTTPS and self-signed.
        ("phish_paypal", services, [
            _server(StaticPageServer, pages.phishing_paypal(),
                    certificate=(CertificateAuthority.self_signed(
                        "paypal.com") if index == 0 else None))
            for index in range(4)]),
        ("phish_bank", bullet_br, _static_pages(bank_clone)),
        ("phish_bank", bullet_ru, _static_pages(bank_clone)),
        # Malware-download update pages.
        ("malware_update", services, _static_pages(*[
            pages.malware_update_page("Adobe Flash Player" if index % 2 == 0
                                      else "Java Runtime Environment")
            for index in range(8)])),
        # Rogue mail listeners with generic banners.
        ("mail_rogue", services, [_server(MailServer, provider=None)] * 10),
        ("mail_banner_copy", cn_research, [
            _server(MailServer, banners=banners_for_provider(provider))
            for provider in ("gmail.com", "yandex.ru")]),
    )
    for group, block, servers in hosts:
        scenario.special_ips.setdefault(group, []).extend(
            _serve(network, block, servers))


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
    malware_names = [d.name for d in DOMAIN_SETS[CATEGORY_MALWARE]]
    dead_parked = [name for name in malware_names
                   if scenario.hierarchy.zone(name) is None]
    torproject = ["torproject.org"]
    mail_names = [d.name for d in DOMAIN_SETS["MX"]]
    dating_names = [d.name for d in DOMAIN_SETS["Dating"]]
    adult_names = [d.name for d in DOMAIN_SETS["Adult"]]
    by_category = {category: [d.name for d in DOMAIN_SETS[category]]
                   for category in ALL_CATEGORIES}
    # Background kind -> the hosts one static answer is drawn from.
    static_pools = {"error": special["web_servers"] + special["dead"],
                    "login": special["captive_portal"],
                    "parking": special["parking"],
                    "search": special["search"],
                    "blocking": special["blocking"],
                    "misc": special["personal"]}

    def background_behavior(rng):
        kind = _BACKGROUND_KINDS.pick(rng)
        if kind == "login" and rng.random() < 0.917:
            return SelfIpBehavior()
        if kind == "misc":
            # Misc: proxies, else personal pages.
            point = rng.random()
            if point < 0.30:
                return ProxyAllBehavior(special["proxy_http"])
            if point < 0.33:
                return ProxyAllBehavior(special["proxy_tls"])
        pool = static_pools[kind]
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
        behaviors = censorship_behaviors(rng, spec)
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
        for share, style in _EXCLUSIVE_STYLES:
            if rng.random() < share:
                behaviors.append(style(rng))
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
            behaviors.append(background_behavior(rng))
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
    ads = [d.name for d in DOMAIN_SETS["Ads"]]
    mail_names = [d.name for d in DOMAIN_SETS["MX"]]
    # (group, paper count, floor, the behaviour each member gets), handed
    # the shuffled candidates in this order.
    groups = (
        ("ad_inject", 281, 3,
         lambda: AdInjectBehavior(ads, special["ad_inject"])),
        ("ad_blank", 14, 2,
         lambda: AdInjectBehavior(ads, special["ad_blank"])),
        ("fake_search", 7, 2,
         lambda: StaticIpBehavior(special["fake_search"][0])),
        ("phish_paypal", 176, 2,
         lambda: PhishingBehavior(["paypal.com"], special["phish_paypal"])),
        ("phish_bank_br", 285, 2,
         lambda: PhishingBehavior(["intesasanpaolo.it"],
                                  [special["phish_bank"][0]])),
        ("phish_bank_ru", 46, 2,
         lambda: PhishingBehavior(["intesasanpaolo.it"],
                                  [special["phish_bank"][1]])),
        ("malware", 228, 2,
         lambda: MalwareBehavior(
             ["get.adobe.com", "update.adobe.com", "java.com"],
             special["malware_update"])),
        ("proxy_http", 10179, 4,
         lambda: ProxyAllBehavior(special["proxy_http"])),
        ("proxy_tls", 99, 2,
         lambda: ProxyAllBehavior(special["proxy_tls"])),
        ("mail_banner_copy", 8, 2,
         lambda: MailRedirectBehavior(mail_names,
                                      special["mail_banner_copy"])),
    )
    resolvers = {}
    cursor = 0
    for group, paper_count, floor, behavior in groups:
        count = min(len(normal) - cursor,
                    config.scaled(paper_count, minimum=floor))
        # Chosen nodes get a behavior inserted below: materialize lazy
        # picks permanently so the mutation survives LRU eviction.
        chosen = [node.pin() for node in normal[cursor:cursor + count]]
        cursor += count
        for node in chosen:
            node.behaviors.insert(0, behavior())
        if chosen:
            resolvers[group] = [node.ip for node in chosen]
    scenario.case_study_resolvers = resolvers


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


def _build_population(scenario):
    config = scenario.config
    plan = scenario.plan
    network = scenario.network
    factory = _make_behavior_factory(scenario)
    scenario.population = PopulationBuilder(
        network, scenario.churn, scenario.service,
        rdns=scenario.rdns, snooping_tlds=SNOOPING_TLDS,
        seed=config.seed + 2,
        lazy=config.lazy_population, node_cache=config.node_cache)
    rng = random.Random(config.seed + 3)

    def resolver_pool(name, country, kind, prefix_length, count, **spec):
        """Carve a pool prefix, build ``count`` resolvers in it."""
        block = plan.block(name, country, kind, prefix_length)
        scenario.resolver_prefixes.append(block.prefix)
        scenario.population.build_pool(ResolverSpec(
            block.asys, block.prefix, count, behavior_factory=factory,
            **spec))
        return block.prefix

    gfw_prefixes = []
    for country, paper_count, change in COUNTRY_PLAN:
        # Split across a main broadband AS and up to two secondary ones.
        names = ("%s Telecom" % _ISP_NAMES.get(country, country),
                 "%s Cable" % country, "%s Wireless" % country)
        changes = ISP_SHUTDOWNS.get(country, (change,) * len(names))
        pool_counts, grown_counts = split_pool_counts(
            config.scaled(paper_count), change)
        for name, as_change, pool_count, grown_count in zip(
                names, changes, pool_counts, grown_counts):
            spec_extra = {}
            if as_change < -0.9:
                # Near-total shutdowns (the AR/KR ISPs) take their closed
                # resolvers down too; without this the stable REFUSED
                # population would floor the decline at ~-91%.
                spec_extra = {"refused_share": 0.004,
                              "servfail_share": 0.008}
            prefix = resolver_pool(
                name, country, AutonomousSystem.BROADBAND,
                _prefix_length_for(pool_count),
                # Growth hosts are built on top of the initial count.
                grown_count if as_change > 0 else pool_count,
                offline_fraction=max(0.0, -as_change),
                growth_fraction=(as_change / (1 + as_change)
                                 if as_change > 0 else 0.0),
                gfw_immune_share=(0.024 if country == "CN" else 0.0),
                **spec_extra)
            if country == "CN":
                gfw_prefixes.append(prefix)

    for country, name, paper_count in HOSTING_POOLS:
        pool_count = config.scaled(paper_count)
        resolver_pool(name, country, AutonomousSystem.HOSTING,
                      _prefix_length_for(pool_count), pool_count,
                      offline_fraction=0.05, day_lease_share=0.0,
                      week_lease_share=0.0, static_mean_weeks=100,
                      rdns_coverage=0.9, dynamic_token_share=0.0)

    # The Great Firewall middlebox over the (main) Chinese prefixes.
    scenario.gfw = GreatFirewall(
        gfw_prefixes, GFW_CENSORED, seed=config.seed + 4,
        decoy_pool=scenario.special_ips["web_servers"][:20])
    network.add_middlebox(scenario.gfw)

    dark = {fate: [] for fate in _DARK_FATES}
    for name, country, fate in DARK_NETWORKS:
        dark[fate].append(resolver_pool(
            name, country, AutonomousSystem.BROADBAND, 24,
            config.scaled(2750, minimum=4), day_lease_share=0.0,
            week_lease_share=0.0, static_mean_weeks=500,
            **_DARK_FATES[fate]))
    network.add_middlebox(ScannerBlocker(
        [scenario.scanner_ip], dark["blocked"], active_after=18 * WEEK))
    network.add_middlebox(DnsIngressFilter(
        dark["filtered"], active_after=26 * WEEK))

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
    _build_infrastructure(scenario)
    _build_special_hosts(scenario)
    _build_population(scenario)
    return scenario
