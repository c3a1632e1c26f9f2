"""Fine-grained cache snooping: resolver popularity estimation.

The paper closes §2.6 suggesting "a more fine-grained DNS cache snooping
technique to evaluate the time gap between recaching entries, aiming to
approximate the popularity of open resolvers, as suggested by Rajab et
al." — this module implements that follow-up.

The idea: the time between a cache entry expiring and a client lookup
re-adding it is (approximately) an inter-arrival gap of the resolver's
client request process.  Hourly probes cannot resolve sub-minute gaps,
so the prober tracks an entry's TTL coarsely, switches to high-frequency
probing just before expiry, timestamps the re-add precisely, and repeats
over several cycles.  The mean observed gap estimates the per-TLD
request rate; aggregated over TLDs it ranks resolvers by client load.
"""

from repro.scanner.snooping import snoop_ns_ttls

# UDP source port: it keys packet fates (DESIGN.md "Stub DNS client").
SOURCE_PORT = 31700

CLASS_HEAVY = "heavy"        # re-adds within seconds: busy resolver
CLASS_MODERATE = "moderate"  # re-adds within minutes
CLASS_LIGHT = "light"        # re-adds within hours
CLASS_IDLE = "idle"          # never re-added while watched

HEAVY_GAP_SECONDS = 10.0
MODERATE_GAP_SECONDS = 600.0


class PopularityEstimate:
    """Result of fine-grained snooping against one resolver."""

    def __init__(self, resolver_ip, gaps, watched_tlds, cycles_observed):
        self.resolver_ip = resolver_ip
        self.gaps = list(gaps)
        self.watched_tlds = list(watched_tlds)
        self.cycles_observed = cycles_observed

    @property
    def mean_gap(self):
        return sum(self.gaps) / len(self.gaps) if self.gaps else None

    @property
    def request_rate_hz(self):
        """Estimated client-lookup rate for the watched names."""
        mean = self.mean_gap
        return (1.0 / mean) if mean else 0.0

    @property
    def popularity_class(self):
        mean = self.mean_gap
        if mean is None:
            return CLASS_IDLE
        if mean <= HEAVY_GAP_SECONDS:
            return CLASS_HEAVY
        if mean <= MODERATE_GAP_SECONDS:
            return CLASS_MODERATE
        return CLASS_LIGHT

    def __repr__(self):
        return "PopularityEstimate(%s, %s, %d gaps)" % (
            self.resolver_ip, self.popularity_class, len(self.gaps))


class PopularityProber:
    """Adaptive-rate snooper measuring expiry-to-re-add gaps precisely.

    Unlike :class:`CacheSnoopingProber`, which probes every resolver at a
    fixed hourly cadence, this prober follows ONE resolver at a time and
    modulates its probe rate: coarse while the entry's TTL is high, fine
    (sub-second) around the expected expiry, so the re-add timestamp —
    and therefore the gap — is measured to ``fine_interval`` precision.
    """

    def __init__(self, network, source_ip, tlds, fine_interval=0.5,
                 coarse_interval=600.0, fine_window=30.0,
                 max_fine_probes=4000):
        self.network = network
        self.source_ip = source_ip
        self.tlds = tuple(tlds)
        self.fine_interval = fine_interval
        self.coarse_interval = coarse_interval
        self.fine_window = fine_window
        self.max_fine_probes = max_fine_probes
        self._txid = 0
        self.probes_sent = 0

    def _observe_ttl(self, resolver_ip, tld):
        """One NS probe; returns the observed TTL, ``None`` when silent
        or uncached, ``"empty"`` for empty answers."""
        self._txid = (self._txid + 1) & 0xFFFF
        self.probes_sent += 1
        return snoop_ns_ttls(self.network, self.source_ip, SOURCE_PORT,
                             resolver_ip, [(tld, self._txid)])[0]

    def _measure_one_gap(self, resolver_ip, tld):
        """Track one expiry/re-add cycle; returns the gap or ``None``.

        Advances the simulated clock.
        """
        clock = self.network.clock
        # Coarse phase: wait for the TTL to run low.  An "empty" answer
        # means we landed inside a gap — keep waiting for the re-add and
        # the next decay cycle.
        for __ in range(int(14 * 86400 / self.coarse_interval)):
            ttl = self._observe_ttl(resolver_ip, tld)
            if ttl is None:
                return None  # resolver silent: nothing to measure
            if isinstance(ttl, (int, float)) and 0 < ttl <= \
                    self.fine_window:
                break
            if isinstance(ttl, (int, float)) and ttl > self.fine_window:
                # Sleep to just before the expected expiry, but never
                # past the coarse cadence (the entry may be refreshed
                # under us).
                clock.advance(min(ttl - self.fine_window / 2,
                                  self.coarse_interval))
            else:
                clock.advance(self.coarse_interval)
        else:
            return None
        # Fine phase: catch the expiry, then the re-add.  Long gaps are
        # covered by exponential backoff after the expiry: precision
        # degrades to half the current probe interval, which is plenty
        # to separate the popularity classes.
        expiry_time = None
        last_empty = None
        interval = self.fine_interval
        misses_since_expiry = 0
        for __ in range(self.max_fine_probes):
            ttl = self._observe_ttl(resolver_ip, tld)
            now = clock.now
            if isinstance(ttl, (int, float)) and ttl > 0:
                if expiry_time is not None:
                    # Re-added between the last empty probe and now:
                    # take the midpoint as the re-add estimate.
                    readd = ((last_empty + now) / 2.0
                             if last_empty is not None else now)
                    return max(0.0, readd - expiry_time)
                if ttl <= self.fine_interval:
                    expiry_time = now + ttl  # expires within this step
            elif expiry_time is None:
                expiry_time = now  # entry already gone: it expired
                last_empty = now
            else:
                last_empty = now
                misses_since_expiry += 1
                if misses_since_expiry % 40 == 0:
                    interval = min(interval * 2, self.coarse_interval)
            clock.advance(interval)
        return None

    def estimate(self, resolver_ip, cycles=2):
        """Estimate one resolver's popularity over ``cycles`` re-adds per
        TLD; returns a :class:`PopularityEstimate`."""
        gaps = []
        observed = 0
        for tld in self.tlds:
            for __ in range(cycles):
                gap = self._measure_one_gap(resolver_ip, tld)
                if gap is not None:
                    gaps.append(gap)
                    observed += 1
        return PopularityEstimate(resolver_ip, gaps, self.tlds, observed)
