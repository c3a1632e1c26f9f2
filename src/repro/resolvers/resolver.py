"""Recursive resolver nodes and the shared honest-resolution service."""

import random
from functools import lru_cache

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
from repro.dnswire.wire import WireReply, peek_query, relayed_answer, \
    reply_rows
from repro.util import stable_hash
from repro.authdns.resolution import IterativeResolver
from repro.netsim.address import ip_to_int
from repro.netsim.gfw import GreatFirewall
from repro.netsim.network import Node, UdpPacket
from repro.resolvers.behaviors import SelfIpBehavior
from repro.resolvers.cache import CacheActivityModel, DnsCache
from repro.resolvers.software import STYLE_ERROR, STYLE_HIDDEN, \
    STYLE_NO_VERSION, STYLE_VERSION
from repro.websim.http import HttpResponse

# Response modes: how the resolver reacts to ordinary lookups at all.
MODE_NORMAL = "normal"
MODE_REFUSED = "refused"      # closed resolver: REFUSED to outsiders
MODE_SERVFAIL = "servfail"    # broken resolver
MODE_SILENT = "silent"

# Per-node scenario-relevant facts: the scenario's wiring (case-study
# selection, self-IP device pages) reads them as ``node.lazy_flags``, so
# a lazy placeholder answers from its dry-pass record unmaterialized.
FLAG_PLAIN_NORMAL = 0x01   # normal mode, no forwarder, no behaviors
FLAG_SELF_IP = 0x02        # carries a SelfIpBehavior
FLAG_DEVICE_HTTP = 0x04    # device profile already serves an HTTP body


def resolver_flags(mode, forward_to, behaviors, device):
    """The ``FLAG_*`` bits of a resolver built with these settings."""
    flags = 0
    if mode == MODE_NORMAL and forward_to is None and not behaviors:
        flags |= FLAG_PLAIN_NORMAL
    if any(isinstance(behavior, SelfIpBehavior) for behavior in behaviors):
        flags |= FLAG_SELF_IP
    if device is not None and device.http_body:
        flags |= FLAG_DEVICE_HTTP
    return flags


def _ns_records(qname, ttl):
    """The two NS records a snooped TLD is answered with."""
    tld = normalize_name(qname)
    return [ResourceRecord.ns(qname, host, ttl=ttl)
            for host in ("a.nic.%s" % tld, "b.nic.%s" % tld)]


@lru_cache(maxsize=1024)
def _snooped_rdata(qname):
    """The rdata a stub reads off :func:`_ns_records` (at any TTL), or
    ``None`` when that reply does not parse."""
    rows = reply_rows(qname, QTYPE_NS, CLASS_IN, RCODE_NOERROR, True,
                      _ns_records(qname, 0))
    return rows and tuple(data for __, __, data in rows)


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


class AnswerClass:
    """What resolvers honestly answer an A question for one name, worked
    out once (DESIGN.md "Stub DNS client" → *Answer classes*): the GFWs
    (of ``boxes``) that censor it, its CDN pool, and ``answers``: per
    pool offset, or ``None`` for the trusted result, ``(result, records
    a resolver caches, (rtype, ttl, rdata) rows a stub reads or None)``.

    A wildcard suffix's class (``name`` ``None``) stands for every name
    under it: one trusted result, and rows that carry no owner name.
    Its ``records`` are the first name's; each name caches its own.
    """

    __slots__ = ("name", "boxes", "censors", "pool", "answers")

    def __init__(self, name, boxes, pool):
        self.name = name
        self.boxes = boxes
        self.censors = [gfw for gfw in boxes
                        if name is not None and gfw.censors_name(name)]
        self.pool = pool
        self.answers = {}


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
        self._index_cdn_pools()
        self.wildcard_suffixes = tuple(normalize_name(s)
                                       for s in wildcard_suffixes)
        self.answers_per_query = answers_per_query
        self._cache = {}
        self._suffix_cache = {}
        # name -> (its _cache result, the records resolvers cache for it)
        self._records = {}
        # name as asked -> its AnswerClass; wildcard suffix -> its class,
        # or None where a GFW or a CDN pool singles out names under it
        self._classes = {}
        self._wildcard_classes = {}
        self._trusted = IterativeResolver(self.root_ips, source_ip)
        self.full_resolutions = 0

    def register_cdn_pool(self, domain, edge_ips):
        self.cdn_pools[normalize_name(domain)] = list(edge_ips)
        self._index_cdn_pools()
        self._classes.clear()
        self._wildcard_classes.clear()

    def _index_cdn_pools(self):
        """Index every name a pool serves (:meth:`_cdn_pool_for`): its
        domain and, unless another pool has that name, the domain's
        ``www.`` alias."""
        served = {"www." + domain: pool
                  for domain, pool in self.cdn_pools.items()}
        served.update(self.cdn_pools)
        self._cdn_served = served

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
        return self._cdn_served.get(name)

    # -- public API ----------------------------------------------------------

    def resolve_trusted(self, network, name):
        """Resolution from the study's own trusted vantage point."""
        name = normalize_name(name)
        return self._trusted_answer(network, name, self._cdn_pool_for(name))

    def _trusted_answer(self, network, name, pool):
        """:meth:`resolve_trusted` of a normalized ``name`` and its pool."""
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
            return self._cdn_slice(pool,
                                   stable_hash(resolver.ip, name) % len(pool))
        return self._trusted_answer(network, name, pool)

    def _cdn_slice(self, pool, offset):
        """The GeoDNS slice of an edge ``pool`` that a resolver whose
        ``stable_hash(resolver ip, name)`` falls on ``offset`` sees."""
        count = min(self.answers_per_query, len(pool))
        return HonestResult(
            RCODE_NOERROR,
            [pool[(offset + i) % len(pool)] for i in range(count)], ttl=20)

    def answer_class(self, qname, network):
        """The :class:`AnswerClass` of ``qname``'s name, remade when the
        network's GFWs change: a wildcard name's is its suffix's, ``None``
        where names under that suffix do not all answer alike."""
        boxes = network.middleboxes_of(GreatFirewall)
        answer_class = self._classes.get(qname)
        if answer_class is None or answer_class.boxes is not boxes:
            name = normalize_name(qname)
            suffix = self._wildcard_suffix(name)
            if suffix is not None:
                return self._wildcard_class(suffix, boxes)
            answer_class = self._classes[qname] = AnswerClass(
                name, boxes, self._cdn_pool_for(name))
        return answer_class

    def _wildcard_class(self, suffix, boxes):
        """The class every name under the wildcard ``suffix`` shares:
        none if a GFW of ``boxes`` may censor one of them or a CDN pool
        may serve one (:meth:`resolve_for` then differs by name)."""
        entry = self._wildcard_classes.get(suffix)
        if entry is None or entry[0] is not boxes:
            singled_out = any(
                self._wildcard_suffix(name) == suffix
                for name in self._cdn_served
            ) or any(gfw.may_censor_under(suffix) for gfw in boxes)
            entry = (boxes, None if singled_out
                     else AnswerClass(None, boxes, None))
            self._wildcard_classes[suffix] = entry
        return entry[1]

    def settled_answer(self, answer_class, name, resolver, network):
        """:meth:`resolve_for`'s answer for ``resolver`` asking ``name``
        (normalized) as an entry of ``answer_class.answers``, with the
        records ``name`` caches; ``None`` -- no effect yet -- when a GFW
        poisons the resolver's own lookup."""
        if not resolver.gfw_immune:
            for gfw in answer_class.censors:
                if gfw.poisons(resolver.ip, name):
                    return None
        result = key = None
        if answer_class.pool:
            key = stable_hash(resolver.ip, name) % len(answer_class.pool)
        else:
            result = self._cache.get(name) or self._trusted_answer(
                network, name, None)
        settled = answer_class.answers.get(key)
        if settled is None or result is not None and settled[0] is not result:
            result = result or self._cdn_slice(answer_class.pool, key)
            records = self.cache_records(name, result)
            rows = reply_rows(name, QTYPE_A, CLASS_IN, result.rcode, True,
                              records)
            # Shared by every resolver's answer: never mutated.
            settled = answer_class.answers[key] = (
                result, records, rows and tuple(rows))
        elif answer_class.name is None:
            return settled[0], self.cache_records(name, settled[0]), \
                settled[2]
        return settled

    def cache_records(self, name, result):
        """What a resolver caches for ``result``, its answer for ``name``:
        one tuple shared by all if the shared cache holds it for ``name``."""
        entry = self._records.get(name)
        if entry is None or entry[0] is not result:
            entry = (result, tuple(
                [ResourceRecord.a(name, address, ttl=result.ttl)
                 for address in result.addresses]
                + list(result.extra_records)))
            if self._cache.get(name) is result:
                self._records[name] = entry
        return entry[1]


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
        # Seeded from the birth address (churn rebinds ``ip``, lazy
        # materialization overwrites it), and made on first use.
        self._birth_ip = ip
        self._chaos_rng = None

    @property
    def _hidden_rng(self):
        """The RNG of error-style and hidden-version CHAOS answers: a
        2.5 KB Mersenne Twister that most nodes never draw from."""
        rng = self._chaos_rng
        if rng is None:
            rng = self._chaos_rng = random.Random(self._birth_ip)
        return rng

    @property
    def lazy_flags(self):
        return resolver_flags(self.response_mode, self.forward_to,
                              self.behaviors, self.device)

    def pin(self):
        """This node: it is already live (see ``LazyResolverNode.pin``)."""
        return self

    # -- DNS ------------------------------------------------------------------

    def _offline(self, network):
        """Whether a fault-injected offline episode (flapping CPE) keeps
        the host unreachable this week: silence, exactly like churn."""
        faults = network.faults
        if faults is not None and faults.resolver_offline(
                ip_to_int(self.ip), network.clock.now):
            network.count_fault("resolver_flap")
            return True
        return False

    def handle_udp(self, packet, network):
        if packet.dst_port != 53 or self._offline(network):
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

    def settle(self, port, question, client_ip, network, query):
        """:meth:`handle_udp`'s replies to the stub query of ``question``
        that ``query`` renders, from ``client_ip``, as :attr:`Node.settle`
        declares them: the same effects in the same order, each answer as
        the rows a stub reads off it.  A forwarder relays the question
        through :meth:`Network.relay` and answers with what the upstream
        said; A and NS questions a normal resolver answers come from
        :meth:`_settled_a` and :meth:`_settled_ns`, anything else from
        :meth:`respond`."""
        qname, qtype, qclass, txid = question
        if port != 53 or network.faults is not None \
                and self._offline(network):
            return []
        self.query_count += 1
        if self.forward_to is not None and qclass == CLASS_IN \
                and qtype != QTYPE_NS:
            reply = network.relay(self.ip, 53535, self.forward_to, 53,
                                  question, query)
            if reply is None:
                return []
            if type(reply) is tuple:
                answer = reply[2:4]
            else:   # the upstream's datagram, relayed as it arrived
                answer = relayed_answer(reply.packet.payload, txid)
        elif qtype not in (QTYPE_A, QTYPE_NS) or qclass != CLASS_IN \
                or self.response_mode != MODE_NORMAL \
                or not self._client_allowed(client_ip):
            answer = self._rows(qname, qtype, qclass, self.respond(
                qname, qtype, qclass, network, client_ip=client_ip))
        elif qtype == QTYPE_A:
            answer = self._settled_a(qname, network)
        else:
            answer = self._settled_ns(qname, network)
        if answer is None:
            return []
        return [answer + (self.answer_source_ip,)]

    @staticmethod
    def _rows(qname, qtype, qclass, answer):
        """``(rcode, rows)`` of a :meth:`respond` answer (``None``:
        silence)."""
        if answer is None:
            return None
        rcode, ra, records = answer
        return rcode & 0xF, reply_rows(qname, qtype, qclass, rcode, ra,
                                       records)

    def _settled_a(self, qname, network):
        """:meth:`_a_response` as ``(rcode, rows)``: a behaviour's answer,
        else the name's :class:`AnswerClass` -- a cache hit on the records
        the class shares, or a miss the class settles -- and
        :meth:`_honest_response` where neither holds."""
        if self.behaviors:
            answer = self._behavior_response(qname, network)
            if answer is not None:
                return self._rows(qname, QTYPE_A, CLASS_IN, answer)
        service = self.service
        answer_class = None if service is None else service.answer_class(
            qname, network)
        if answer_class is not None:
            name = answer_class.name or normalize_name(qname)
            now = network.clock.now
            cached = self.cache.lookup(name, QTYPE_A, now)
            if cached is None:
                settled = service.settled_answer(answer_class, name, self,
                                                 network)
                if settled is not None:
                    result, records, rows = settled
                    if result.rcode == RCODE_NOERROR and result.addresses:
                        self.cache.put(name, QTYPE_A, records, now,
                                       ttl=result.ttl)
                    return result.rcode & 0xF, rows
            else:
                trusted = answer_class.answers.get(None)
                if trusted is not None and cached[0] is trusted[1]:
                    # A hit answers every record at the decayed TTL.
                    ttl = cached[1] & 0xFFFFFFFF
                    return RCODE_NOERROR, trusted[2] and [
                        (rtype, ttl, data) for rtype, __, data in trusted[2]]
        return self._rows(qname, QTYPE_A, CLASS_IN,
                          self._honest_response(qname, network))

    def _settled_ns(self, qname, network):
        """:meth:`_ns_response` as ``(rcode, rows)``, or ``None``."""
        ttl = self._snooped(qname, network)
        if ttl is None:
            return None
        if ttl == "empty":
            return RCODE_NOERROR, []
        rdata = _snooped_rdata(qname)
        return RCODE_NOERROR, rdata and [
            (QTYPE_NS, ttl & 0xFFFFFFFF, data) for data in rdata]

    def _forward(self, packet, network):
        """Relay the raw query to the upstream and return its answer (the
        first datagram back, as it arrived)."""
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
        answer = self._behavior_response(qname, network)
        if answer is None:
            answer = self._honest_response(qname, network)
        return answer

    def _behavior_response(self, qname, network):
        """The answer of the first behaviour that wants ``qname``."""
        for behavior in self.behaviors:
            answer = behavior.answer(self, qname, network)
            if answer is not None:
                return (answer.rcode, True,
                        self._behavior_records(qname, answer))
        return None

    def _honest_response(self, qname, network):
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
            self.cache.put(name, QTYPE_A,
                           self.service.cache_records(name, result), now,
                           ttl=result.ttl)
        return result

    def _ns_response(self, qname, network):
        """Cache-snooping view: NS records for TLDs with live cache TTLs."""
        ttl = self._snooped(qname, network)
        if ttl is None:
            return None
        if ttl == "empty":
            return RCODE_NOERROR, True, ()
        return RCODE_NOERROR, True, _ns_records(qname, ttl)

    def _snooped(self, qname, network):
        """The NS TTL a snooper sees for the TLD ``qname``: ``None`` for
        silence, ``"empty"`` for an answer without records."""
        observable = self.activity.observable_ttl(normalize_name(qname),
                                                  network.clock.now)
        if self.activity.style == CacheActivityModel.STYLE_UNREACHABLE \
                or observable == "silent":
            return None
        if observable is None or observable == "empty":
            return "empty"
        return int(observable)

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
