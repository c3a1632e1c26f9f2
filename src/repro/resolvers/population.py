"""Resolver population generator.

Synthesises pools of open resolvers inside ISP prefixes with the
distributions the paper reports: response modes (NOERROR/REFUSED/SERVFAIL),
CHAOS version-response styles and software versions (Table 3), device
profiles and their TCP surface (Table 4), cache-activity styles (§2.6),
lease/churn characteristics (Figure 2), decline and growth schedules
(Figure 1, Tables 1/2), divergent answer sources (§2.2), and per-pool
manipulation behaviors supplied by the scenario (§4).
"""

import random
from array import array
from collections import OrderedDict, namedtuple

from repro.inetmodel.churn import LeasedHost
from repro.inetmodel.rdns import dynamic_pool_name, static_name
from repro.netsim.address import int_to_ip, ip_to_int
from repro.netsim.clock import DAY, WEEK
from repro.resolvers.cache import CacheActivityModel
from repro.resolvers.devices import (
    ANONYMOUS_PROFILE_KEYS,
    DEVICE_CATALOG,
    prevalence_of,
    profiles_with_tcp,
)
from repro.resolvers.resolver import (
    MODE_NORMAL,
    MODE_REFUSED,
    MODE_SERVFAIL,
    ResolverNode,
    resolver_flags,
)
from repro.resolvers.software import (
    CHAOS_STYLE_SHARES,
    LONG_TAIL_SOFTWARE,
    SOFTWARE_CATALOG,
    STYLE_VERSION,
)
from repro.util import PickTable

# Hardware-category weights among TCP-responding resolvers (Table 4).
_HARDWARE_WEIGHTS = {
    "Router": 34.1, "Embedded": 30.6, "Firewall": 1.9, "Camera": 1.8,
    "DVR": 1.2, "Others": 1.1, "Unknown": 29.3,
}

# §2.6 cache-activity style shares among snoop-responding resolvers.
_ACTIVITY_SHARES = (
    (CacheActivityModel.STYLE_EMPTY, 0.073),
    (CacheActivityModel.STYLE_SINGLE, 0.033),
    (CacheActivityModel.STYLE_STATIC_TTL, 0.020),
    (CacheActivityModel.STYLE_ZERO_TTL, 0.020),
    (CacheActivityModel.STYLE_RESETTING, 0.196),
    (CacheActivityModel.STYLE_NORMAL, 0.616),
    (CacheActivityModel.STYLE_IDLE, 0.042),
)
_SNOOP_UNREACHABLE_SHARE = 0.168
# Within in-use resolvers: share refreshed within <=5s of expiry (38.7 of
# 61.6 in-use).
_FREQUENT_WITHIN_IN_USE = 0.387 / 0.616
_IN_USE_STYLES = (CacheActivityModel.STYLE_NORMAL,
                  CacheActivityModel.STYLE_RESETTING,
                  CacheActivityModel.STYLE_IDLE)

# Draw tables: every weighted pick of a member's derivation, summed once
# at import (see ``PickTable``).  Software is the catalogue plus the long
# tail sharing the rest; devices are each hardware class's TCP profiles
# by prevalence ("Others" being NAS, DSLAM and servers).
_CHAOS_STYLES = PickTable(CHAOS_STYLE_SHARES)
_SOFTWARE = PickTable(
    list(SOFTWARE_CATALOG)
    + [(profile, (1.0 - sum(share for __, share in SOFTWARE_CATALOG))
        / len(LONG_TAIL_SOFTWARE)) for profile in LONG_TAIL_SOFTWARE])
_HARDWARE = PickTable(_HARDWARE_WEIGHTS.items())
_DEVICES = {hardware: PickTable(
    (profile, prevalence_of(profile)) for profile in profiles_with_tcp()
    if profile.hardware == hardware or (
        hardware == "Others"
        and profile.hardware in ("NAS", "DSLAM", "Server")))
    for hardware in _HARDWARE_WEIGHTS if hardware != "Unknown"}
_ACTIVITY = PickTable(_ACTIVITY_SHARES)


class ResolverSpec:
    """Distribution knobs for one resolver pool (usually one ISP)."""

    def __init__(self, autonomous_system, pool_prefix, count,
                 isp_domain=None,
                 refused_share=0.085, servfail_share=0.045,
                 day_lease_share=0.46, week_lease_share=0.10,
                 static_mean_weeks=19.0,
                 offline_fraction=0.0, offline_start_week=1,
                 offline_end_week=55,
                 growth_fraction=0.0,
                 divergent_source_share=0.03,
                 rdns_coverage=0.80, dynamic_token_share=0.62,
                 tcp_service_share=0.263,
                 behavior_factory=None,
                 gfw_immune_share=0.0,
                 forwarder_share=0.08):
        self.autonomous_system = autonomous_system
        self.pool_prefix = pool_prefix
        self.count = count
        self.isp_domain = isp_domain or "%s.example" % (
            autonomous_system.name.lower().replace(" ", "-"))
        self.refused_share = refused_share
        self.servfail_share = servfail_share
        self.day_lease_share = day_lease_share
        self.week_lease_share = week_lease_share
        self.static_mean_weeks = static_mean_weeks
        self.offline_fraction = offline_fraction
        self.offline_start_week = offline_start_week
        self.offline_end_week = offline_end_week
        self.growth_fraction = growth_fraction
        self.divergent_source_share = divergent_source_share
        self.rdns_coverage = rdns_coverage
        self.dynamic_token_share = dynamic_token_share
        self.tcp_service_share = tcp_service_share
        self.behavior_factory = behavior_factory
        self.gfw_immune_share = gfw_immune_share
        # Share of pool members that are dnsmasq-style DNS proxies
        # forwarding to the ISP's recursive resolver (§2.2 observed
        # 630k-750k such proxies per week).
        self.forwarder_share = forwarder_share

    @property
    def country(self):
        return self.autonomous_system.country


# Sentinel: "_synthesize should really allocate the divergent source
# address from the churn model" (the dry pass / eager build).  A replay
# passes the recorded address (or None) instead, so materialization
# never touches the shared churn RNG.
_ALLOCATE = object()


# Everything one per-node derivation replay produces.
_Synthesis = namedtuple("_Synthesis", (
    "node", "device", "behaviors", "forward_to", "divergent", "mode",
    "lease", "offline_after", "online_after"))


class LazyPool:
    """Compact per-pool substrate for lazily materialized resolvers.

    Holds the spec plus four parallel arrays — the 64-bit derivation
    seed, the original address, the divergent answer source (0 = none),
    and the scenario flags — 17 bytes per node instead of a full
    ``ResolverNode``/``CacheActivityModel`` object graph.  Node state is
    a pure function of ``(seed, spec, index, ip)``: :meth:`synthesize`
    replays exactly the draw sequence the eager builder performs, so
    materialization order can never change outcomes.
    """

    __slots__ = ("builder", "spec", "provider_ip", "built_at",
                 "seeds", "ips", "divergents", "flags", "pinned")

    def __init__(self, builder, spec, provider_ip, built_at):
        self.builder = builder
        self.spec = spec
        self.provider_ip = provider_ip
        self.built_at = built_at
        self.seeds = array("Q")
        self.ips = array("I")
        self.divergents = array("I")
        self.flags = bytearray()
        self.pinned = {}             # index -> permanently live node

    def synthesize(self, index):
        """Materialize node ``index`` from its stored derivation key."""
        divergent = self.divergents[index]
        syn = self.builder._synthesize(
            random.Random(self.seeds[index]), self.spec, index,
            int_to_ip(self.ips[index]), self.provider_ip, self.built_at,
            divergent_ip=int_to_ip(divergent) if divergent else None)
        return syn.node


class LazyResolverNode:
    """Network-registered stand-in for a not-yet-materialized resolver.

    Keeps only the current address and its ``(pool, index)`` derivation
    key; every service entry point materializes the real node through
    the builder's bounded LRU and delegates.  Attribute reads fall back
    to the materialized node too, so code that inspects resolvers stays
    correct (at the cost of a materialization) — scan hot paths only
    ever touch ``ip`` and the handler methods.
    """

    __slots__ = ("ip", "_pool", "_index")

    # The checkpoint plane walks every registered node looking for warm
    # DNS caches (``node.cache``, ``None`` on a ``Node``).  A lazy node's
    # cache is reconstructible-by-definition (evicted nodes drop theirs),
    # so it has none instead of materializing the whole world.
    cache = None

    def __init__(self, ip, pool, index):
        self.ip = ip
        self._pool = pool
        self._index = index

    @property
    def service(self):
        # Shared resolution service, reachable without materializing
        # (checkpointing deduplicates it by identity across nodes).
        return self._pool.builder.service

    @property
    def lazy_flags(self):
        """The dry pass's ``resolver_flags`` record for this node."""
        return self._pool.flags[self._index]

    def _real(self):
        return self._pool.builder._materialize(
            self._pool, self._index, self)

    def warm(self):
        """Materialize into the builder's LRU if it fits there without
        evicting a node; False once it is full (:meth:`~repro.netsim.
        network.Node.warm`)."""
        return self._pool.builder._warm(self._pool, self._index, self)

    def pin(self):
        """Materialize permanently (exempt from LRU eviction) — for
        nodes the scenario mutates after construction."""
        return self._pool.builder._pin(self._pool, self._index, self)

    def handle_udp(self, packet, network):
        return self._real().handle_udp(packet, network)

    def settle(self, port, question, client_ip, network, query):
        return self._real().settle(port, question, client_ip, network,
                                   query)

    def tcp_ports(self):
        return self._real().tcp_ports()

    def tcp_banner(self, port, network=None):
        return self._real().tcp_banner(port, network)

    def handle_http(self, request, network):
        return self._real().handle_http(request, network)

    def tls_certificate(self, sni, network=None):
        return self._real().tls_certificate(sni, network)

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._real(), name)

    def __repr__(self):
        return "LazyResolverNode(ip=%r)" % (self.ip,)


class PopulationBuilder:
    """Creates resolver pools and wires them into network/churn/rDNS."""

    def __init__(self, network, churn_model, resolution_service, rdns=None,
                 snooping_tlds=(), seed=0, lazy=False, node_cache=8192):
        if node_cache < 1:
            raise ValueError("node_cache must be >= 1")
        self.network = network
        self.churn = churn_model
        self.service = resolution_service
        self.rdns = rdns
        self.snooping_tlds = tuple(snooping_tlds)
        self._rng = random.Random(seed)
        self.lazy = lazy
        self.node_cache_limit = node_cache
        self._node_cache = OrderedDict()   # (pool id, index) -> node
        self.synthesis_count = 0     # LRU misses: nodes synthesized
        self.lazy_pools = []
        self.resolvers = []          # all ResolverNode objects ever built
        self.hosts = []              # matching LeasedHost objects
        self.by_country = {}

    # -- per-resolver attribute draws ---------------------------------------

    # Each ``a + (b - a) * rng.random()`` below is ``rng.uniform(a, b)``
    # inlined: the same expression, so the same float.

    def _draw_chaos(self, rng):
        style = _CHAOS_STYLES.pick(rng)
        software = _SOFTWARE.pick(rng) if style == STYLE_VERSION else None
        return style, software

    def _draw_device(self, rng, tcp_service_share):
        if rng.random() >= tcp_service_share:
            return DEVICE_CATALOG["silent-cpe"]
        hardware = _HARDWARE.pick(rng)
        if hardware == "Unknown":
            key = ANONYMOUS_PROFILE_KEYS[
                rng.randrange(len(ANONYMOUS_PROFILE_KEYS))]
            return DEVICE_CATALOG[key]
        return _DEVICES[hardware].pick(rng)

    def _draw_activity(self, rng):
        if rng.random() < _SNOOP_UNREACHABLE_SHARE:
            return CacheActivityModel(CacheActivityModel.STYLE_UNREACHABLE)
        style = _ACTIVITY.pick(rng)
        patterns = None
        if style in _IN_USE_STYLES:
            # Refresh gap in seconds: uniform in [0.5, 5) or [30, 3600).
            low, span = ((0.5, 5.0 - 0.5)
                         if rng.random() < _FREQUENT_WITHIN_IN_USE
                         else (30.0, 3600.0 - 30.0))
            tlds = self.snooping_tlds
            # In-use resolvers refresh several TLDs; with a 36h probe
            # window over 48h TTLs only ~75% of refreshes are observable,
            # so >=5 patterns are needed for >=3 observed re-adds.
            tld_count = rng.randint(5, max(5, len(tlds)))
            random_ = rng.random
            patterns = {tld: (low + span * random_(),
                              0 + (172800 - 0) * random_())
                        for tld in rng.sample(tlds,
                                              min(tld_count, len(tlds)))}
        # Snooped TLD NS TTLs are two days (172800s) at the registries.
        return CacheActivityModel(style, tld_patterns=patterns, ttl=172800)

    def _draw_lease(self, rng, spec):
        point = rng.random()
        if point < spec.day_lease_share:
            # Consumer CPE leases mostly expire within the first day
            # (>40% of the cohort disappears in 24h, Fig. 2).
            return DAY * (0.25 + (0.85 - 0.25) * rng.random())
        if point < spec.day_lease_share + spec.week_lease_share:
            return WEEK * (0.4 + (1.2 - 0.4) * rng.random())
        # "Static" addresses still churn eventually (Fig 2's slow decay).
        return rng.expovariate(1.0 / (spec.static_mean_weeks * WEEK))

    def _draw_mode(self, rng, spec):
        point = rng.random()
        if point < spec.refused_share:
            return MODE_REFUSED
        if point < spec.refused_share + spec.servfail_share:
            return MODE_SERVFAIL
        return MODE_NORMAL

    # -- pool construction ----------------------------------------------------

    def _build_provider(self, spec):
        """The ISP's own recursive resolver that pool forwarders use:
        honest, stable, and busy (it serves the ISP's client base)."""
        rng = random.Random(self._rng.getrandbits(64))
        ip = self.churn.allocate_address(spec.pool_prefix)
        patterns = {tld: (rng.uniform(0.5, 4.0), rng.uniform(0, 172800))
                    for tld in self.snooping_tlds}
        chaos_style, software = self._draw_chaos(rng)
        provider = ResolverNode(
            ip, resolution_service=self.service,
            chaos_style=chaos_style, software=software,
            # Closed: only the ISP's own customer space may query it —
            # the scanner (outside) sees REFUSED.
            allowed_networks=[spec.pool_prefix],
            activity=CacheActivityModel(CacheActivityModel.STYLE_NORMAL,
                                        tld_patterns=patterns,
                                        ttl=172800))
        self.network.register(provider)
        host = LeasedHost(provider, spec.pool_prefix,
                          isp_domain=spec.isp_domain)
        self.churn.add(host)
        self.resolvers.append(provider)
        self.hosts.append(host)
        return provider

    def _synthesize(self, rng, spec, index, ip, provider_ip, now,
                    build_node=True, divergent_ip=_ALLOCATE):
        """One node's full derivation — THE keyed-derivation function.

        Node state is a pure function of the per-node RNG (seeded from a
        single 64-bit key), the spec, the index, and the original
        address; both the eager builder and lazy materialization run
        this exact draw sequence, so they are bit-identical by
        construction.  ``divergent_ip`` decouples replay from the shared
        churn RNG: the dry pass allocates for real (``_ALLOCATE``) and
        records the answer, replays inject the recorded address.  With
        ``build_node=False`` every draw still happens (the stream
        position must match), only the ``ResolverNode`` is skipped.
        """
        chaos_style, software = self._draw_chaos(rng)
        device = self._draw_device(rng, spec.tcp_service_share)
        behaviors = []
        gfw_immune = rng.random() < spec.gfw_immune_share
        if spec.behavior_factory is not None:
            behaviors = spec.behavior_factory(rng, spec, index, ip) or []
        divergent = None
        if rng.random() < spec.divergent_source_share:
            divergent = (self.churn.allocate_address(spec.pool_prefix)
                         if divergent_ip is _ALLOCATE else divergent_ip)
        forward_to = None
        if provider_ip is not None and \
                rng.random() < spec.forwarder_share:
            # A plain DNS proxy: no local manipulation, answers come
            # from (and are poisoned at) the ISP resolver.
            forward_to = provider_ip
            behaviors = []
        activity = self._draw_activity(rng)
        mode = self._draw_mode(rng, spec)
        lease = self._draw_lease(rng, spec)
        offline_after = None
        if rng.random() < spec.offline_fraction:
            start = spec.offline_start_week
            offline_after = now + WEEK * (
                start + (spec.offline_end_week - start) * rng.random())
        if mode == MODE_REFUSED:
            # Closed resolvers are deliberately-operated servers: they
            # neither churn nor vanish (Fig. 1: REFUSED stays stable).
            lease = 1000 * WEEK
            offline_after = None
        online_after = None
        if rng.random() < spec.growth_fraction:
            online_after = now + WEEK * (2 + (50 - 2) * rng.random())
        node = None
        if build_node:
            node = ResolverNode(
                ip,
                resolution_service=self.service,
                forward_to=forward_to,
                behaviors=behaviors,
                software=software,
                chaos_style=chaos_style,
                device=device,
                activity=activity,
                response_mode=mode,
                answer_source_ip=divergent,
                gfw_immune=gfw_immune,
            )
        return _Synthesis(node, device, behaviors, forward_to, divergent,
                          mode, lease, offline_after, online_after)

    def build_pool(self, spec):
        """Create ``spec.count`` resolvers inside the spec's pool prefix.

        Eager and lazy builds make the same draws in the same order, so
        the shared builder and churn RNG streams advance identically.
        A lazy build keeps only the 17-byte derivation record per node
        and registers a placeholder.  Deliberately skipped relative to
        eager: the per-node rDNS draws and PTR registration — they are
        terminal on the per-node stream and touch no shared RNG, so
        nothing downstream of the skip can diverge; lazy worlds simply
        have no PTR records for pool members (documented in DESIGN.md).
        """
        now = self.network.clock.now
        # Tiny pools (scaled-down small countries) skip the provider +
        # forwarder structure; it only matters at realistic pool sizes.
        provider = (self._build_provider(spec)
                    if spec.forwarder_share > 0 and spec.count >= 12
                    else None)
        built = [provider] if provider is not None else []
        provider_ip = provider.ip if provider is not None else None
        pool = None
        if self.lazy:
            pool = LazyPool(self, spec, provider_ip, now)
            self.lazy_pools.append(pool)
        for index in range(spec.count):
            seed = self._rng.getrandbits(64)
            ip = self.churn.allocate_address(spec.pool_prefix)
            rng = random.Random(seed)
            syn = self._synthesize(rng, spec, index, ip, provider_ip, now,
                                   build_node=pool is None)
            node = syn.node
            if pool is not None:
                pool.seeds.append(seed)
                pool.ips.append(ip_to_int(ip))
                pool.divergents.append(
                    ip_to_int(syn.divergent) if syn.divergent else 0)
                pool.flags.append(resolver_flags(
                    syn.mode, syn.forward_to, syn.behaviors, syn.device))
                node = LazyResolverNode(ip, pool, index)
            host = LeasedHost(node, spec.pool_prefix,
                              lease_duration=syn.lease,
                              offline_after=syn.offline_after,
                              isp_domain=spec.isp_domain,
                              online_after=syn.online_after)
            if host.online:
                self.network.register(node)
                if pool is None and self.rdns is not None \
                        and rng.random() < spec.rdns_coverage:
                    dynamic_ptr = (syn.lease <= WEEK * 1.5
                                   and rng.random() < spec.dynamic_token_share)
                    name = (dynamic_pool_name(ip, spec.isp_domain)
                            if dynamic_ptr
                            else static_name(ip, spec.isp_domain))
                    self.rdns.set_ptr(ip, name)
            self.churn.add(host)
            self.resolvers.append(node)
            self.hosts.append(host)
            built.append(node)
        self.by_country.setdefault(spec.country, []).extend(built)
        return built

    # -- lazy materialization -------------------------------------------------

    def _materialize(self, pool, index, placeholder):
        """The bounded-LRU gateway from placeholder to real node."""
        node = pool.pinned.get(index)
        if node is None:
            key = (id(pool), index)
            cache = self._node_cache
            node = cache.get(key)
            if node is None:
                node = pool.synthesize(index)
                self.synthesis_count += 1
                cache[key] = node
                if len(cache) > self.node_cache_limit:
                    cache.popitem(last=False)
            else:
                cache.move_to_end(key)
        if node.ip != placeholder.ip:
            # Churn rebound the host since construction: the live
            # address lives on the placeholder (the network re-keys it),
            # the derivation always replays from the original address.
            node.ip = placeholder.ip
        return node

    def _warm(self, pool, index, placeholder):
        """:meth:`LazyResolverNode.warm`: never pins, never evicts."""
        if len(self._node_cache) >= self.node_cache_limit \
                and index not in pool.pinned \
                and (id(pool), index) not in self._node_cache:
            return False
        self._materialize(pool, index, placeholder)
        return True

    def _pin(self, pool, index, placeholder):
        node = self._materialize(pool, index, placeholder)
        pool.pinned[index] = node
        self._node_cache.pop((id(pool), index), None)
        return node

    def online_resolver_ips(self):
        """Addresses of all currently-online resolvers."""
        return [host.node.ip for host in self.hosts if host.online]
