"""Recursive resolver nodes and the shared honest-resolution service."""

import random

from repro.dnswire.constants import (
    CLASS_CH,
    CLASS_IN,
    QTYPE_A,
    QTYPE_NS,
    QTYPE_PTR,
    QTYPE_TXT,
    RCODE_NOERROR,
    RCODE_NOTIMP,
    RCODE_REFUSED,
    RCODE_SERVFAIL,
)
from repro.dnswire.name import normalize_name
from repro.dnswire.records import ResourceRecord
from repro.dnswire.wire import WireReply, peek_query
from repro.util import stable_hash
from repro.authdns.resolution import IterativeResolver
from repro.netsim.address import ip_to_int
from repro.netsim.gfw import GreatFirewall
from repro.netsim.network import Node, UdpPacket
from repro.resolvers.cache import CacheActivityModel, DnsCache
from repro.resolvers.software import STYLE_ERROR, STYLE_HIDDEN, \
    STYLE_NO_VERSION, STYLE_VERSION
from repro.websim.http import HttpResponse

# Response modes: how the resolver reacts to ordinary lookups at all.
MODE_NORMAL = "normal"
MODE_REFUSED = "refused"      # closed resolver: REFUSED to outsiders
MODE_SERVFAIL = "servfail"    # broken resolver
MODE_SILENT = "silent"


class HonestResult:
    """The outcome of an honest (hierarchy-following) resolution.

    ``extra_records`` carries non-A answer records that must survive the
    resolver's re-synthesis — in particular the simulated DNSSEC
    signature records (:mod:`repro.authdns.dnssec`).
    """

    __slots__ = ("rcode", "addresses", "ttl", "extra_records")

    def __init__(self, rcode, addresses=(), ttl=300, extra_records=()):
        # Kept as given: every caller hands over sequences of its own.
        self.rcode = rcode
        self.addresses = addresses
        self.ttl = ttl
        self.extra_records = extra_records

    def __repr__(self):
        return "HonestResult(rcode=%d, %r)" % (self.rcode, self.addresses)


class ResolutionService:
    """Shared honest-resolution backend for the resolver population.

    The first lookup of each name walks the real hierarchy through the
    simulated network (root -> TLD -> AuthNS); the result is then cached
    for the whole population.  Three cases bypass the shared cache:

    * wildcard measurement domains (cached per suffix — every scan query
      carries a unique random prefix);
    * CDN customer domains, where each resolver deterministically sees its
      own slice of the edge pool (GeoDNS);
    * resolvers behind the Great Firewall querying censored names, whose
      resolution is performed live from the resolver's own address so the
      injected forged answer wins the race, exactly as on the real path.
    """

    def __init__(self, root_ips, source_ip, cdn_pools=None,
                 wildcard_suffixes=(), answers_per_query=2):
        self.root_ips = list(root_ips)
        self.source_ip = source_ip
        self.cdn_pools = {normalize_name(d): list(ips)
                          for d, ips in (cdn_pools or {}).items()}
        self.wildcard_suffixes = tuple(normalize_name(s)
                                       for s in wildcard_suffixes)
        self.answers_per_query = answers_per_query
        self._cache = {}
        self._suffix_cache = {}
        self._trusted = IterativeResolver(self.root_ips, source_ip)
        self.full_resolutions = 0

    def register_cdn_pool(self, domain, edge_ips):
        self.cdn_pools[normalize_name(domain)] = list(edge_ips)

    # -- internals ---------------------------------------------------------

    def _iterative(self, network, name, source_ip=None):
        resolver = (self._trusted if source_ip is None
                    else IterativeResolver(self.root_ips, source_ip))
        self.full_resolutions += 1
        result = resolver.resolve(network, name, QTYPE_A)
        from repro.authdns.dnssec import SIG_LABEL
        signatures = [record for record in result.records
                      if record.rtype == QTYPE_TXT
                      and normalize_name(record.name).startswith(
                          SIG_LABEL + ".")]
        return HonestResult(result.rcode, result.a_addresses(),
                            result.min_ttl(), extra_records=signatures)

    def _wildcard_suffix(self, name):
        for suffix in self.wildcard_suffixes:
            if name.endswith("." + suffix) or name == suffix:
                return suffix
        return None

    def _cdn_pool_for(self, name):
        """The GeoDNS edge pool for ``name``, or ``None``.

        Exact matching (plus the ``www.`` alias) only: a random
        subdomain of a CDN customer does NOT resolve to edges — the
        customer's zone answers NXDOMAIN for it, which matters for the
        NX domain set (rswkllf.twitter.com must not get addresses).
        """
        pool = self.cdn_pools.get(name)
        if pool is not None:
            return pool
        if name.startswith("www."):
            return self.cdn_pools.get(name[4:])
        return None

    # -- public API ----------------------------------------------------------

    def resolve_trusted(self, network, name):
        """Resolution from the study's own trusted vantage point."""
        name = normalize_name(name)
        pool = self._cdn_pool_for(name)
        if pool:
            # The trusted resolver sees its own GeoDNS slice of the pool.
            return HonestResult(RCODE_NOERROR,
                                pool[:self.answers_per_query], ttl=20)
        suffix = self._wildcard_suffix(name)
        if suffix is not None:
            cached = self._suffix_cache.get(suffix)
            if cached is None:
                cached = self._iterative(network, name)
                self._suffix_cache[suffix] = cached
            return cached
        cached = self._cache.get(name)
        if cached is None:
            cached = self._iterative(network, name)
            self._cache[name] = cached
        return cached

    def resolve_for(self, network, resolver, name):
        """What resolver ``resolver`` honestly obtains for ``name``."""
        name = normalize_name(name)
        if not resolver.gfw_immune:
            for gfw in network.middleboxes_of(GreatFirewall):
                if gfw.poisons(resolver.ip, name):
                    # Live resolution from inside the firewall: poisoned.
                    return self._iterative(network, name,
                                           source_ip=resolver.ip)
        pool = self._cdn_pool_for(name)
        if pool:
            offset = stable_hash(resolver.ip, name) % len(pool)
            count = min(self.answers_per_query, len(pool))
            return HonestResult(
                RCODE_NOERROR,
                [pool[(offset + i) % len(pool)] for i in range(count)],
                ttl=20)
        return self.resolve_trusted(network, name)


class ResolverNode(Node):
    """One open (or closed/broken) DNS resolver on the simulated Internet.

    Combines: a response mode, manipulation behaviors, a software profile
    (CHAOS fingerprinting), a device profile (TCP fingerprinting and the
    router/camera login page), a snoopable cache activity model, and an
    optional divergent answer source address (multi-homed hosts / DNS
    proxies answering from a different IP than queried, §2.2).
    """

    def __init__(self, ip, resolution_service=None, behaviors=(),
                 software=None, chaos_style=STYLE_ERROR, device=None,
                 activity=None, response_mode=MODE_NORMAL,
                 answer_source_ip=None, gfw_immune=False,
                 device_page=None, recursion_available=True,
                 forward_to=None, allowed_networks=None):
        super().__init__(ip)
        self.service = resolution_service
        # A forwarding DNS proxy (dnsmasq-style CPE): IN-class queries
        # are relayed verbatim to the upstream resolver; the device
        # surface (banners, login page) and CHAOS handling stay local.
        self.forward_to = forward_to
        # A properly-protected (closed) resolver: IN-class queries from
        # sources outside these prefixes are REFUSED (§2.1's closed
        # resolvers; ISP resolvers restricted to their customer space).
        self.allowed_networks = list(allowed_networks or [])
        self.behaviors = list(behaviors)
        self.software = software
        self.chaos_style = chaos_style
        self.device = device
        self.activity = activity or CacheActivityModel(
            CacheActivityModel.STYLE_IDLE)
        self.response_mode = response_mode
        self.answer_source_ip = answer_source_ip
        self.gfw_immune = gfw_immune
        self.device_page = device_page
        self.recursion_available = recursion_available
        self.cache = DnsCache()
        self.query_count = 0
        self._hidden_rng = random.Random(ip)

    # -- DNS ------------------------------------------------------------------

    def handle_udp(self, packet, network):
        if packet.dst_port != 53:
            return None
        faults = getattr(network, "faults", None)
        if faults is not None and faults.resolver_offline(
                ip_to_int(self.ip), network.clock.now):
            # Fault-injected offline episode (flapping CPE): the host is
            # unreachable this week — silence, exactly like churn.
            network.count_fault("resolver_flap")
            return None
        question = peek_query(packet.payload)
        if question is None:
            return None
        qname, qtype, qclass = question
        self.query_count += 1
        if self.forward_to is not None and qclass == CLASS_IN \
                and qtype != QTYPE_NS:
            return self._forward(packet, network)
        answer = self.respond(qname, qtype, qclass, network,
                              client_ip=packet.src_ip)
        if answer is None:
            return None
        payload = WireReply(packet.payload, question, *answer)
        if self.answer_source_ip is not None:
            return [(payload, self.answer_source_ip)]
        return payload

    def _forward(self, packet, network):
        """Relay the raw query to the upstream and return its answer."""
        upstream = UdpPacket(self.ip, 53535, self.forward_to, 53,
                             packet.payload)
        for response in network.send_udp(upstream):
            payload = response.packet.payload
            if self.answer_source_ip is not None:
                return [(payload, self.answer_source_ip)]
            return payload
        return None

    def _client_allowed(self, client_ip):
        if not self.allowed_networks or client_ip is None:
            return True
        return any(client_ip in network for network
                   in self.allowed_networks)

    def respond(self, qname, qtype, qclass, network, client_ip=None):
        """The answer to one question, as ``(rcode, ra, answer
        records)`` for :class:`~repro.dnswire.wire.WireReply`, or
        ``None`` for silence."""
        if qclass == CLASS_CH and qtype == QTYPE_TXT:
            return self._chaos_response(qname)
        if self.response_mode == MODE_SILENT:
            return None
        if self.response_mode == MODE_REFUSED \
                or not self._client_allowed(client_ip):
            return RCODE_REFUSED, False, ()
        if self.response_mode == MODE_SERVFAIL:
            return RCODE_SERVFAIL, True, ()
        if qclass != CLASS_IN:
            return RCODE_NOTIMP, True, ()
        if qtype == QTYPE_A:
            return self._a_response(qname, network)
        if qtype == QTYPE_NS:
            return self._ns_response(qname, network)
        if qtype == QTYPE_PTR:
            return self._ptr_response(qname, network)
        return RCODE_NOTIMP, True, ()

    def _a_response(self, qname, network):
        for behavior in self.behaviors:
            answer = behavior.answer(self, qname, network)
            if answer is not None:
                return (answer.rcode, True,
                        self._behavior_records(qname, answer))
        honest = self.resolve_honest(qname, network)
        records = [ResourceRecord.a(qname, address, ttl=honest.ttl)
                   for address in honest.addresses]
        # DNSSEC signature records pass through unmodified.
        records.extend(honest.extra_records)
        return honest.rcode, True, records

    @staticmethod
    def _behavior_records(qname, answer):
        if answer.ns_only:
            apex = ".".join(normalize_name(qname).split(".")[-2:])
            return [ResourceRecord.ns(qname, "ns1.%s" % apex,
                                      ttl=answer.ttl)]
        if answer.empty:
            return ()
        return [ResourceRecord.a(qname, address, ttl=answer.ttl)
                for address in answer.addresses]

    def resolve_honest(self, qname, network):
        """Hierarchy-following resolution with this resolver's cache."""
        if self.service is None:
            return HonestResult(RCODE_SERVFAIL)
        name = normalize_name(qname)
        now = network.clock.now
        cached = self.cache.lookup(name, QTYPE_A, now)
        if cached is not None:
            # A hit answers with the entry's decayed TTL; only the extra
            # records (DNSSEC signatures) are re-stamped with it.
            records, ttl = cached
            return HonestResult(
                RCODE_NOERROR,
                [record.data.address for record in records
                 if record.rtype == QTYPE_A], ttl,
                [record.with_ttl(ttl) for record in records
                 if record.rtype != QTYPE_A])
        result = self.service.resolve_for(network, self, name)
        if result.rcode == RCODE_NOERROR and result.addresses:
            self.cache.put(
                name, QTYPE_A,
                [ResourceRecord.a(name, a, ttl=result.ttl)
                 for a in result.addresses] + list(result.extra_records),
                now, ttl=result.ttl)
        return result

    def _ns_response(self, qname, network):
        """Cache-snooping view: NS records for TLDs with live cache TTLs."""
        tld = normalize_name(qname)
        observable = self.activity.observable_ttl(tld, network.clock.now)
        if self.activity.style == CacheActivityModel.STYLE_UNREACHABLE:
            return None
        if observable == "silent":
            return None
        if observable is None or observable == "empty":
            return RCODE_NOERROR, True, ()
        return RCODE_NOERROR, True, [
            ResourceRecord.ns(qname, host, ttl=int(observable))
            for host in ("a.nic.%s" % tld, "b.nic.%s" % tld)]

    def _ptr_response(self, qname, network):
        if self.service is None:
            return RCODE_SERVFAIL, True, ()
        # PTR answers come from the registry-backed in-addr.arpa zone.
        resolver = IterativeResolver(self.service.root_ips, self.ip)
        result = resolver.resolve(network, qname, QTYPE_PTR)
        return result.rcode, True, result.records

    def _chaos_response(self, qname):
        """Answer CHAOS version.bind / version.server per software style."""
        if normalize_name(qname) not in ("version.bind", "version.server"):
            return RCODE_NOTIMP, True, ()
        if self.chaos_style == STYLE_ERROR:
            rcode = RCODE_REFUSED if self._hidden_rng.random() < 0.7 \
                else RCODE_SERVFAIL
            return rcode, True, ()
        if self.chaos_style == STYLE_NO_VERSION:
            return RCODE_NOERROR, True, ()
        if self.chaos_style == STYLE_HIDDEN:
            from repro.resolvers.software import HIDDEN_VERSION_STRINGS
            text = HIDDEN_VERSION_STRINGS[
                self._hidden_rng.randrange(len(HIDDEN_VERSION_STRINGS))]
        else:  # STYLE_VERSION
            text = (self.software.version_string if self.software
                    else "unknown")
        return RCODE_NOERROR, True, [ResourceRecord.txt(qname, [text])]

    # -- TCP fingerprinting surface -------------------------------------------

    def tcp_ports(self):
        return self.device.open_ports() if self.device else frozenset()

    def tcp_banner(self, port, network=None):
        if self.device is None:
            return None
        return self.device.banners.get(port)

    def handle_http(self, request, network):
        """The device's web UI (router/camera login), served for any Host —
        which is why self-IP answers land in the Login category."""
        body = self.device_page
        if body is None and self.device is not None:
            body = self.device.http_body
        if body is None:
            return None
        return HttpResponse(200, body)
