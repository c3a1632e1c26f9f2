"""Hostile defensive middleboxes: the network side of the arms race.

Real operators do not answer Internet-wide scans passively — they
rate-limit aggressive sources, blocklist them outright, and tarpit their
flows to burn scanner timeout budget ("Aggressive Internet-Wide
Scanners", PAPERS.md).  This module models that defensive population as
deterministic, seed-keyed middleboxes so the scanner's adaptive pacing
controller (:mod:`repro.scanner.pacing`) has something real to fight.

Determinism contract
--------------------

A naive implementation would give each box mutable per-source counters
(token buckets, probes-per-window tallies).  Counter state makes a box's
verdict depend on *how many probes it has already seen*, which differs
between a sequential scan and the same scan split over forked shard
workers — and bit-identical shard merges are a load-bearing invariant of
this repo.  Instead, every verdict here is a *pure function* of

    (box seed, source, destination, declared probe rate)

where the declared rate is ``network.scan_rate_bucket`` — an integer
probes-per-second bucket the scanner publishes before each probe (see
``Ipv4Scanner``).  The defenses behave as if they observed that
steady-state rate: a token bucket refilled at ``sustainable_pps`` admits
a ``sustainable/declared`` share of an overload, a reactive blocklister
cuts off any source whose rate crosses its ban threshold, a tarpit traps
flows from sources probing above its trigger.  ``None`` (no declared
bucket — an unpaced scanner, or background traffic) is treated as
full-line-rate: hostile networks punish what they cannot see throttling
itself.  Because the fate is a pure hash, the scanner-side pacing plan
can *replay* each admonishment without sending a packet — the same
pattern ``Network.cold_sweep_columns`` uses for baseline loss — which is
what keeps sharded and bulk-settled scans bit-identical under defense.

Each box also implements ``scan_interest`` returning its protected
ranges, so the batched sweep marks defended destinations "hot" and sends
them down the full per-packet wire path — except where the sweep hands
the network a pacing plan that already drew this box's verdict for the
rate it will declare, and the verdict is "pass": such a probe meets no
defense at all and settles with the cold remainder at columnar speed
(``Network.cold_sweep_columns``).  Signalled, suppressed and
multiply-covered targets, and every target of an unpaced scan, stay hot.

Dropped probes are attributed: the box exposes ``drop_cause`` (a
``defense:*`` string) which the network records in the flight recorder
and tallies via ``count_fault`` so the counters survive forked workers.
"""

from repro.netsim.address import RangeIndex, ip_to_int
from repro.netsim.middlebox import Middlebox, PATH_DROP, PATH_IGNORE
from repro.util import M64, mix64

# Hash salts for defense draws — disjoint from the network's packet-fate
# salts (0x51-0x54), the fault plane's (0x55-0x57, 0x61-0x6A).
_SALT_RATE_LIMIT = 0x71
_SALT_BLOCKLIST = 0x72
_SALT_TARPIT = 0x73
_SALT_BAN_SPAN = 0x74
_SALT_STALL = 0x75

CAUSE_RATE_LIMITED = "defense:rate_limited"
CAUSE_BLOCKLISTED = "defense:blocklisted"
CAUSE_BLOCKLIST_WARNING = "defense:blocklist_warning"
CAUSE_TARPIT = "defense:tarpit"

# Fault-counter key for virtual seconds burned by tarpit stalls (ms so
# the counter stays integral; counters ride back from shard workers).
TARPIT_STALL_COUNTER = "tarpit_stall_ms"


def _draw(seed, salt, src_int, dst_int):
    """Uniform 64-bit draw, pure in (seed, salt, src, dst)."""
    return mix64(((seed & 0xFFFFFFFF) << 24) ^ (salt << 56) ^
                 ((src_int * 0x9E3779B1) & M64) ^
                 ((dst_int * 0x85EBCA77) & M64))


class DefenseMiddlebox(Middlebox):
    """Base for rate-reactive defenses guarding a set of prefixes.

    Subclasses implement :meth:`probe_fate` — the pure verdict function
    shared verbatim by the on-path check (``path_verdict``) and the
    scanner's pacing-plan builder.
    """

    drop_cause = "defense:dropped"
    port = 53
    ban_span = None     # or a method: how many targets a ban suppresses

    def __init__(self, protected_networks, seed=0, active_after=0.0):
        self.protected_networks = list(protected_networks)
        self.seed = seed
        self.active_after = active_after
        self._protect_masks = [(net.base, net.mask)
                               for net in self.protected_networks]
        self._protected = RangeIndex(self._protect_masks)
        self._src_ints = {}

    # -- pure core ----------------------------------------------------

    def probe_fate(self, src_int, dst_int, rate_bucket):
        """Fate of one probe at a declared rate: a ``defense:*`` cause
        string if this box drops it, else ``None``.

        Pure in its arguments plus the box's frozen configuration —
        callable by the scanner-side pacing plan without side effects.
        ``rate_bucket`` is probes/sec (int) or ``None`` for unpaced.
        """
        raise NotImplementedError

    # -- middlebox protocol -------------------------------------------

    def _covers(self, dst_int):
        return self._protected.find(dst_int) is not None

    def _src_int(self, src_ip):
        cached = self._src_ints.get(src_ip)
        if cached is None:
            cached = ip_to_int(src_ip)
            if len(self._src_ints) < 4096:
                self._src_ints[src_ip] = cached
        return cached

    def path_verdict(self, src_ip, dst_int, dst_port, network):
        if dst_port != self.port or network.clock.now < self.active_after:
            return PATH_IGNORE
        if not self._covers(dst_int):
            return PATH_IGNORE
        cause = self.probe_fate(self._src_int(src_ip), dst_int,
                                network.scan_rate_bucket)
        if cause is None:
            return PATH_IGNORE
        # Attribution: the network reads ``drop_cause`` off the box it
        # saw drop the probe; set-then-read happens within one
        # send_probe call, so this is order-safe.
        self.drop_cause = cause
        self._on_drop(src_ip, dst_int, network)
        return PATH_DROP

    def _on_drop(self, src_ip, dst_int, network):
        network.count_fault(self.drop_cause)

    def scan_interest(self, src_ip, dst_port, network, qname_suffix=None):
        """Defended ranges are hot: probes into them take the full wire
        path inside the batched sweep — the pacing plan's proven passes
        aside (module docstring) — which is exactly what keeps the bulk
        path bit-identical to per-probe under defense.  They are also
        the ranges the pacing controller paces over."""
        if dst_port != self.port or network.clock.now < self.active_after:
            return []
        return list(self._protect_masks)


class TokenBucketRateLimiter(DefenseMiddlebox):
    """Per-source token bucket with ICMP-style admonishment.

    A bucket refilled at ``sustainable_pps`` facing a source probing at
    a sustained declared rate ``r > sustainable_pps`` admits a
    ``sustainable/r`` share of probes and drops the rest; each drop is
    the admonishment signal the pacing controller backs off on.  The
    admitted share is drawn per (source, destination) with a seeded
    hash, monotonic in ``r``: lowering the declared rate only ever turns
    drops into passes, never the reverse — which is what makes AIMD
    convergence deterministic.  Unpaced sources (``rate_bucket is
    None``) are treated as overload and shed at ``overload_drop_share``.
    """

    drop_cause = CAUSE_RATE_LIMITED

    def __init__(self, protected_networks, sustainable_pps=300.0,
                 overload_drop_share=0.92, seed=0, active_after=0.0):
        super().__init__(protected_networks, seed=seed,
                         active_after=active_after)
        self.sustainable_pps = float(sustainable_pps)
        self.overload_drop_share = float(overload_drop_share)

    def probe_fate(self, src_int, dst_int, rate_bucket):
        if rate_bucket is None:
            share = self.overload_drop_share
        elif rate_bucket <= self.sustainable_pps:
            return None
        else:
            share = min(1.0 - self.sustainable_pps / rate_bucket,
                        self.overload_drop_share)
        draw = _draw(self.seed, _SALT_RATE_LIMIT, src_int, dst_int)
        if draw < int(share * M64):
            return CAUSE_RATE_LIMITED
        return None


class ReactiveBlocklister(DefenseMiddlebox):
    """Cuts off sources probing past a threshold, with seeded unban.

    A source declaring ``rate >= ban_pps`` (or unpaced) is blocklisted:
    every probe into the protected ranges is dropped with
    ``defense:blocklisted``.  Between ``warn_pps`` and ``ban_pps`` a
    seeded share of probes is dropped with ``defense:blocklist_warning``
    — the pre-ban admonishment that lets a paced scanner back off before
    tripping the ban.  Below ``warn_pps`` the source passes clean.

    The "seeded decay/unban" of a triggered ban is expressed as
    :meth:`ban_span`: a pure per-(source, window) draw of how many
    subsequent targets stay cut off before the blocklist entry decays
    and the source may re-enter (the pacing plan suppresses exactly that
    span, then re-enters at its floor rate).  A naive scanner that keeps
    blasting at a banned rate stays cut off indefinitely — the verdict
    is rate-keyed, so constant aggression means constant bans.
    """

    drop_cause = CAUSE_BLOCKLISTED

    def __init__(self, protected_networks, warn_pps=600.0, ban_pps=1200.0,
                 warn_drop_share=0.5, ban_span=(48, 160), seed=0,
                 active_after=0.0):
        super().__init__(protected_networks, seed=seed,
                         active_after=active_after)
        self.warn_pps = float(warn_pps)
        self.ban_pps = float(ban_pps)
        self.warn_drop_share = float(warn_drop_share)
        self.ban_span_range = (int(ban_span[0]), int(ban_span[1]))

    def probe_fate(self, src_int, dst_int, rate_bucket):
        if rate_bucket is None or rate_bucket >= self.ban_pps:
            return CAUSE_BLOCKLISTED
        if rate_bucket >= self.warn_pps:
            draw = _draw(self.seed, _SALT_BLOCKLIST, src_int, dst_int)
            if draw < int(self.warn_drop_share * M64):
                return CAUSE_BLOCKLIST_WARNING
        return None

    def ban_span(self, src_int, window_base):
        """How many targets a fresh ban suppresses before decaying."""
        lo, hi = self.ban_span_range
        if hi <= lo:
            return lo
        draw = _draw(self.seed, _SALT_BAN_SPAN, src_int, window_base)
        return lo + draw % (hi - lo + 1)


class Tarpit(DefenseMiddlebox):
    """Accepts flows from aggressive sources, then stalls them.

    Sources probing at or above ``trigger_pps`` (or unpaced) have a
    seeded share of their flows trapped: the query is accepted but never
    answered, and a seeded stall of ``stall_seconds`` virtual seconds is
    charged against the scanner's timeout budget (tallied in the
    ``tarpit_stall_ms`` fault counter, which survives forked shard
    workers).  Below the trigger the tarpit ignores the source — tarpits
    key on scan-like aggression, so a paced scanner slips under.
    """

    drop_cause = CAUSE_TARPIT

    def __init__(self, protected_networks, trigger_pps=250.0,
                 stall_seconds=(20.0, 75.0), trap_share=1.0, seed=0,
                 active_after=0.0):
        super().__init__(protected_networks, seed=seed,
                         active_after=active_after)
        self.trigger_pps = float(trigger_pps)
        self.stall_range = (float(stall_seconds[0]), float(stall_seconds[1]))
        self.trap_share = float(trap_share)

    def probe_fate(self, src_int, dst_int, rate_bucket):
        if rate_bucket is not None and rate_bucket < self.trigger_pps:
            return None
        if self.trap_share < 1.0:
            draw = _draw(self.seed, _SALT_TARPIT, src_int, dst_int)
            if draw >= int(self.trap_share * M64):
                return None
        return CAUSE_TARPIT

    def stall_seconds(self, src_int, dst_int):
        """Virtual seconds one trapped flow burns, seeded per flow."""
        lo, hi = self.stall_range
        draw = _draw(self.seed, _SALT_STALL, src_int, dst_int)
        return lo + (draw / M64) * (hi - lo)

    def _on_drop(self, src_ip, dst_int, network):
        network.count_fault(self.drop_cause)
        stall = self.stall_seconds(self._src_int(src_ip), dst_int)
        network.count_fault(TARPIT_STALL_COUNTER, int(stall * 1000))


def default_hostile_population(prefixes, seed=0):
    """The canonical hostile population the bench and chaos jobs fight.

    Deterministic assignment over the scenario's populated prefixes:
    roughly half sit behind token-bucket rate limiters, one prefix is a
    tarpit, and the smallest prefix is hard-blocklisted (``ban_pps=0``:
    every declared rate triggers the ban, so only the error-budget
    suppression path gets coverage there — the "prefix that stays dark"
    of the issue).  Returns the list of boxes, not yet installed.
    """
    ordered = sorted(prefixes, key=lambda net: (net.num_addresses,
                                                net.base))
    if not ordered:
        return []
    hard_blocked = ordered[0]
    rest = ordered[1:]
    tarpitted = [rest[0]] if rest else []
    limited = [net for index, net in enumerate(rest[1:]) if index % 2 == 0]
    boxes = [ReactiveBlocklister([hard_blocked], warn_pps=0.0, ban_pps=0.0,
                                 seed=seed)]
    if tarpitted:
        boxes.append(Tarpit(tarpitted, trigger_pps=250.0, seed=seed + 1))
    if limited:
        boxes.append(TokenBucketRateLimiter(limited, sustainable_pps=300.0,
                                            seed=seed + 2))
    return boxes


def install_hostile_population(network, prefixes, seed=0):
    """Build and install the default hostile population; returns it."""
    boxes = default_hostile_population(prefixes, seed=seed)
    for box in boxes:
        network.add_middlebox(box)
    return boxes
