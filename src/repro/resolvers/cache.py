"""Resolver caches with TTL decay, and the client-activity model that
makes them snoopable.

Cache snooping (§2.6) sends non-recursive NS queries for 15 TLDs and
watches the returned TTLs over 36 hours: a TTL that counts down and then
reappears at full value means a real client re-triggered the lookup.  The
activity model gives each resolver a deterministic refresh pattern
(period + idle gap per TLD) so the prober observes exactly the behaviour
classes the paper reports — frequently used, in use, idle, static-TTL,
zero-TTL, TTL-resetting, empty-response, and single-response-then-silent.
"""


class DnsCache:
    """A TTL-decaying cache of the answers a resolver was given: each
    entry holds the :class:`~repro.resolvers.resolver.HonestResult` it
    was handed, as handed (DESIGN.md "Stub DNS client" → *Answer
    classes*).  Once :meth:`put` has doubled what the last prune kept
    and an entry has expired (before then a prune drops nothing), it
    keeps only what :meth:`live` keeps: no call can tell, and unique
    probe names do not pile up."""

    def __init__(self, max_entries=10000):
        self._entries = {}  # (name, qtype) -> (result, stored_at, ttl)
        self._kept = 0      # entries the last prune kept
        # No entry expires before this (a bound: evictions and expired
        # lookups may drop the entry that set it).
        self._expires = float("inf")
        self.max_entries = max_entries

    def put(self, name, qtype, result, now, ttl):
        key = (name.lower(), qtype)
        entries = self._entries
        if key not in entries and len(entries) >= self.max_entries:
            # Evict the entry closest to expiry — but only when the
            # insert would actually grow the cache; refreshing an
            # existing entry at capacity must not shrink the cache.
            # Ties go to the smaller key, so the victim depends on the
            # entries alone, not on the order they were stored in.
            victim = min(entries, key=lambda k: (entries[k][1]
                                                 + entries[k][2], k))
            del entries[victim]
        entries[key] = (result, now, ttl)
        if now + ttl < self._expires:
            self._expires = now + ttl
        if len(entries) > 2 * self._kept and self._expires <= now:
            self._prune(now)

    def lookup(self, name, qtype, now):
        """``(stored result, decayed TTL)``, or ``None`` when
        absent/expired.  The result is the entry's own, as stored."""
        key = (name.lower(), qtype)
        entry = self._entries.get(key)
        if entry is None:
            return None
        result, stored_at, ttl = entry
        if stored_at + ttl <= now:
            del self._entries[key]
            return None
        return result, int(ttl - (now - stored_at))

    def live(self, now):
        """Drop the entries expired at ``now``; a copy of the rest.  No
        later call can tell: ``lookup`` calls them absent, and ``put``
        at capacity evicts them before any live entry."""
        self._prune(now)
        return dict(self._entries)

    def _prune(self, now):
        self._hold({key: entry for key, entry in self._entries.items()
                    if entry[1] + entry[2] > now})
        self._kept = len(self._entries)

    def replace(self, entries):
        """Hold exactly ``entries``, as :meth:`live` returned them."""
        self._hold(dict(entries))

    def _hold(self, entries):
        self._entries = entries
        self._expires = min((stored_at + ttl for __, stored_at, ttl
                             in entries.values()), default=float("inf"))

    def __len__(self):
        return len(self._entries)


class CacheActivityModel:
    """Deterministic client-driven cache behaviour for the snoopable TLDs.

    ``style`` selects the §2.6 behaviour class; for the ``normal`` style,
    each TLD has a refresh pattern: the NS record is cached for ``ttl``
    seconds, then the cache is empty for ``gap`` seconds until a client
    lookup re-adds it.  The observable TTL at time ``t`` is a pure function
    of ``t``, so no event queue is needed no matter how long the probe runs.
    """

    STYLE_NORMAL = "normal"                # TTL decays, client re-adds
    STYLE_IDLE = "idle"                    # cached once, never re-added
    STYLE_STATIC_TTL = "static_ttl"        # same TTL on every probe
    STYLE_ZERO_TTL = "zero_ttl"            # TTL always 0
    STYLE_RESETTING = "resetting"          # TTL resets before expiry
    STYLE_EMPTY = "empty"                  # empty responses instead of NS
    STYLE_SINGLE = "single"                # one response, then silence
    STYLE_UNREACHABLE = "unreachable"      # never answers (IP churned away)

    def __init__(self, style=STYLE_NORMAL, tld_patterns=None, ttl=172800):
        self.style = style
        self.ttl = ttl
        # tld -> (gap_seconds, phase_seconds); gap <= 5 means "frequent".
        self.tld_patterns = dict(tld_patterns or {})
        self._single_answered = set()

    def observable_ttl(self, tld, now):
        """The TTL a snooper sees for ``tld`` at ``now``.

        Returns ``None`` when the record is not in the cache (idle TLD or
        currently inside the refresh gap), or a special marker per style.
        """
        if self.style == self.STYLE_UNREACHABLE:
            return None
        if self.style == self.STYLE_EMPTY:
            return "empty"
        if self.style == self.STYLE_SINGLE:
            # One answer per TLD, then the host falls silent entirely
            # (presumably churned away, §2.6).
            if tld in self._single_answered:
                return "silent"
            self._single_answered.add(tld)
            return int(self.ttl)
        if self.style == self.STYLE_STATIC_TTL:
            return int(self.ttl)
        if self.style == self.STYLE_ZERO_TTL:
            return 0
        pattern = self.tld_patterns.get(tld)
        if pattern is None:
            return None  # this resolver's clients never query the TLD
        gap, phase = pattern
        if self.style == self.STYLE_RESETTING:
            # Reset well before expiry: observed TTL stays in the top
            # quarter of the range, never approaching zero.
            cycle = self.ttl / 4.0
            position = (now + phase) % cycle
            return int(self.ttl - position)
        if self.style == self.STYLE_IDLE:
            # Cached at t=-phase, decays once, never refreshed.
            remaining = self.ttl - (now + phase)
            return int(remaining) if remaining > 0 else None
        # Normal: decay for ttl seconds, gone for gap seconds, repeat.
        cycle = self.ttl + gap
        position = (now + phase) % cycle
        if position < self.ttl:
            return int(self.ttl - position)
        return None
