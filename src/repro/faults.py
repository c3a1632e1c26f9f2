"""Deterministic, seed-keyed fault injection (chaos plane).

The paper's 13-month campaign ran against an Internet full of burst
loss, ICMP rate limiting, flapping resolvers, and hung web servers.
This module injects those conditions into the simulator *reproducibly*:
every fault draw is a pure splitmix64 hash of (plan seed, fault salt,
flow key, occurrence) — the same scheme :meth:`Network._packet_fate`
uses for baseline loss — so an injected fault plan yields bit-identical
scan and pipeline results for any shard count, worker interleaving, or
rerun with the same seed.

A :class:`FaultPlan` is installed on the network via
``network.install_faults(plan)``; the network, resolvers, and scan
engine then consult it at well-defined decision points:

* ``query_fate`` — drop a UDP query (uniform extra loss, spatial burst
  windows, ICMP-style per-flow rate limiting of repeated sends);
* ``truncates_response`` — damage a delivered response below
  parseability (the paper's "invalid UDP checksum" completeness bucket);
* ``tcp_stall_seconds`` — stall a TCP connect (hung web/mail servers);
* ``resolver_offline`` — flap a resolver through offline episodes;
* ``worker_dies`` — kill a scan worker process (supervision testing).

Faults absorbed or injected anywhere increment
``network.fault_counters``; the scan engine flushes those into its
:class:`repro.perf.PerfRegistry` as ``fault_*`` counters.

The crash plane (``crashes`` / ``torn_write``) is consulted by the
checkpoint supervisor rather than the network: a crash draw raises
:class:`InjectedCrash` at a unit-of-work boundary, and a torn-write draw
truncates the write-ahead journal mid-record, so chaos tests can kill a
campaign anywhere and assert a resumed run converges bit-identically.
"""

import zlib
from itertools import compress, count
from operator import mul, sub

from repro.util import M64, fate_counts, fate_threshold, mix64

# Exit code for a run terminated by an injected crash (BSD EX_SOFTWARE).
CRASH_EXIT_CODE = 70


class InjectedCrash(BaseException):
    """A fault-plane-ordered process death at a checkpoint boundary.

    Derives from ``BaseException`` so the pipeline's per-stage
    ``except Exception`` degradation guards cannot absorb it — an
    injected crash must kill the run, exactly like SIGKILL would, and
    only the top-level CLI handler may observe it.
    """

    def __init__(self, kind, point):
        super().__init__("injected %s crash at %s" % (kind, point))
        self.kind = kind
        self.point = point


# Fault-plane salts: disjoint from the network's packet-fate salts
# (0x51..0x53) so a fault draw never correlates with a baseline loss
# draw on the same flow.
_SALT_EXTRA_LOSS = 0x61
_SALT_BURST_WINDOW = 0x62
_SALT_BURST_LOSS = 0x63
_SALT_RATE_LIMIT = 0x64
_SALT_TRUNCATION = 0x65
_SALT_TCP_HANG = 0x66
_SALT_FLAP = 0x67
_SALT_WORKER_DEATH = 0x68
_SALT_CRASH = 0x69
_SALT_TORN = 0x6A

_WEEK = 7 * 24 * 3600.0

_PROFILE_FIELDS = (
    "loss_rate", "burst_share", "burst_loss_rate", "rate_limit_share",
    "rate_limit_step", "truncation_rate", "tcp_hang_rate",
    "tcp_stall_seconds", "flap_share", "flap_period", "flap_duty",
    "worker_death_rate", "crash_rate", "torn_write_rate",
)


class FaultProfile:
    """One named bundle of fault intensities (all default to inert).

    ``kill_shards`` maps a shard index to the number of consecutive
    worker attempts that die for it (``{0: 2}`` = shard 0's first two
    workers are killed); it forces deterministic worker deaths for
    supervision tests and chaos smoke runs.

    ``crash_points`` lists canonical checkpoint-boundary names (see
    :meth:`FaultPlan.crash_point`, e.g. ``"week:3"``) at which the first
    arrival is killed; ``torn_points`` lists journal sequence numbers
    whose append is torn mid-record.  Both force deterministic deaths
    for kill-anywhere resume tests, alongside the corresponding
    ``crash_rate`` / ``torn_write_rate`` probabilistic draws.
    """

    def __init__(self, loss_rate=0.0, burst_share=0.0, burst_loss_rate=0.0,
                 rate_limit_share=0.0, rate_limit_step=0,
                 truncation_rate=0.0, tcp_hang_rate=0.0,
                 tcp_stall_seconds=30.0, flap_share=0.0, flap_period=4,
                 flap_duty=0.25, worker_death_rate=0.0, kill_shards=None,
                 crash_rate=0.0, torn_write_rate=0.0, crash_points=(),
                 torn_points=()):
        self.loss_rate = loss_rate
        # Spatial burst windows: a share of /16-sized destination windows
        # suffers elevated loss for the whole scan epoch (lightning-storm
        # loss localized in address space, since the simulated clock is
        # frozen within one scan).
        self.burst_share = burst_share
        self.burst_loss_rate = burst_loss_rate
        # ICMP-style rate limiting: a share of destinations drop every
        # send on a flow beyond the first ``rate_limit_step`` occurrences
        # within one scan epoch — retransmissions hit this first.
        self.rate_limit_share = rate_limit_share
        self.rate_limit_step = rate_limit_step
        self.truncation_rate = truncation_rate
        # Hung TCP connects: a share of connection attempts stall for
        # ``tcp_stall_seconds`` of simulated time before completing.
        self.tcp_hang_rate = tcp_hang_rate
        self.tcp_stall_seconds = tcp_stall_seconds
        # Resolver flapping: a share of resolvers cycle through offline
        # episodes, ``flap_duty`` of every ``flap_period`` weeks, with a
        # per-resolver phase so episodes do not synchronise.
        self.flap_share = flap_share
        self.flap_period = flap_period
        self.flap_duty = flap_duty
        self.worker_death_rate = worker_death_rate
        self.kill_shards = dict(kill_shards or {})
        self.crash_rate = crash_rate
        self.torn_write_rate = torn_write_rate
        self.crash_points = tuple(crash_points)
        self.torn_points = tuple(int(seq) for seq in torn_points)

    def replace(self, **overrides):
        """A copy of this profile with the given fields replaced."""
        fields = {name: getattr(self, name) for name in _PROFILE_FIELDS}
        fields["kill_shards"] = dict(self.kill_shards)
        fields["crash_points"] = self.crash_points
        fields["torn_points"] = self.torn_points
        fields.update(overrides)
        return FaultProfile(**fields)

    def __repr__(self):
        active = ["%s=%r" % (name, getattr(self, name))
                  for name in _PROFILE_FIELDS
                  if getattr(self, name) not in (0, 0.0)]
        if self.kill_shards:
            active.append("kill_shards=%r" % self.kill_shards)
        if self.crash_points:
            active.append("crash_points=%r" % (self.crash_points,))
        if self.torn_points:
            active.append("torn_points=%r" % (self.torn_points,))
        return "FaultProfile(%s)" % ", ".join(active)


PROFILES = {
    "none": FaultProfile(),
    "mild": FaultProfile(
        loss_rate=0.01, burst_share=0.05, burst_loss_rate=0.30,
        rate_limit_share=0.05, rate_limit_step=2,
        truncation_rate=0.005, tcp_hang_rate=0.02,
        flap_share=0.02),
    "aggressive": FaultProfile(
        loss_rate=0.10, burst_share=0.15, burst_loss_rate=0.60,
        rate_limit_share=0.20, rate_limit_step=1,
        truncation_rate=0.03, tcp_hang_rate=0.10,
        flap_share=0.08, flap_period=3, flap_duty=0.34),
}


def parse_fault_spec(spec):
    """Parse a ``--faults`` CLI spec into a :class:`FaultProfile`.

    Grammar: ``[profile][,key=value]...`` — a base profile name
    (default ``mild``) followed by field overrides, e.g.
    ``aggressive,loss_rate=0.2,kill=0:2,kill=1``.  ``kill=N[:M]`` adds a
    forced worker death entry (shard ``N`` dies ``M`` times, default 1).
    ``crash=POINT`` adds a forced checkpoint-boundary crash (e.g.
    ``crash=week:3``, using ``/`` for key separators: ``crash=week:3/scan``)
    and ``torn=SEQ`` adds a forced torn journal append at that sequence
    number; both fire only on their first arrival so a resumed run
    proceeds past them.
    """
    profile = None
    overrides = {}
    kills = {}
    crash_points = []
    torn_points = []
    for token in str(spec).split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            if profile is not None:
                raise ValueError("duplicate profile name %r in fault "
                                 "spec %r" % (token, spec))
            try:
                profile = PROFILES[token]
            except KeyError:
                raise ValueError(
                    "unknown fault profile %r (choose from: %s)"
                    % (token, ", ".join(sorted(PROFILES))))
            continue
        key, __, raw = token.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key == "kill":
            shard, __, times = raw.partition(":")
            kills[int(shard)] = int(times) if times else 1
            continue
        if key == "crash":
            crash_points.append(raw)
            continue
        if key == "torn":
            torn_points.append(int(raw))
            continue
        if key not in _PROFILE_FIELDS:
            raise ValueError("unknown fault field %r (choose from: %s)"
                             % (key, ", ".join(_PROFILE_FIELDS)))
        value = float(raw)
        if key in ("rate_limit_step", "flap_period"):
            value = int(value)
        overrides[key] = value
    if profile is None:
        profile = PROFILES["mild"]
    if kills:
        merged = dict(profile.kill_shards)
        merged.update(kills)
        overrides["kill_shards"] = merged
    if crash_points:
        overrides["crash_points"] = \
            profile.crash_points + tuple(crash_points)
    if torn_points:
        overrides["torn_points"] = \
            profile.torn_points + tuple(torn_points)
    return profile.replace(**overrides) if overrides else profile


class FaultPlan:
    """A profile bound to a seed: the pure fault-draw functions.

    Every method is a pure function of its arguments and the plan seed —
    no internal state, no sequential RNG — so any caller (a forked scan
    worker, a retried shard, a rerun) observes identical faults.
    """

    def __init__(self, profile, seed=0):
        if isinstance(profile, str):
            profile = PROFILES[profile]
        self.profile = profile
        self.seed = seed
        self._seed_high = (mix64(seed ^ 0xFA017) << 1) & M64

    # -- draw primitives --------------------------------------------------

    def _chance(self, salt, key, occurrence, rate):
        if rate <= 0.0:
            return False
        draw = mix64(self._seed_high ^ (salt << 56) ^ (key & M64)
                     ^ mix64(occurrence + 1))
        return draw < rate * (M64 + 1)

    # -- UDP query plane --------------------------------------------------

    def query_fate(self, flow_key, dst_int, occurrence, now):
        """The injected fate of one UDP query send, or ``None``.

        ``flow_key`` is the network's unsalted flow hash; ``occurrence``
        counts sends of this flow within the current scan epoch (a
        retransmission is a fresh occurrence and gets a fresh draw).
        Returns a counter-name suffix: ``"injected_loss"``,
        ``"burst_loss"``, or ``"rate_limited"``.  ``now=None`` applies
        only the rules that do not read the clock (every rule but the
        burst windows).
        """
        profile = self.profile
        if profile.rate_limit_share > 0.0 and \
                occurrence > profile.rate_limit_step and \
                self._chance(_SALT_RATE_LIMIT, dst_int, 0,
                             profile.rate_limit_share):
            return "rate_limited"
        if now is not None and profile.burst_share > 0.0 and \
                self._in_burst(dst_int, now) and \
                self._chance(_SALT_BURST_LOSS, flow_key, occurrence,
                             profile.burst_loss_rate):
            return "burst_loss"
        if self._chance(_SALT_EXTRA_LOSS, flow_key, occurrence,
                        profile.loss_rate):
            return "injected_loss"
        return None

    def _in_burst(self, dst_int, now):
        """Whether ``dst_int`` sits in a burst window this epoch.

        Burst windows are keyed spatially (per destination /16) and per
        epoch: the clock is constant within one scan, so a "burst"
        manifests as elevated loss over an address window."""
        return self._chance(_SALT_BURST_WINDOW,
                            (dst_int >> 16) ^ (int(now) << 20), 0,
                            self.profile.burst_share)

    def query_fate_columns(self, flow_const, addresses, draws, now,
                           remember):
        """Column form of :meth:`query_fate`, for flows nothing answers.

        Flow ``i`` — unsalted key ``flow_const ^ addresses[i] *
        0x85EBCA77``, the network's flow hash with the destination term
        split off — is sent ``draws[i]`` times this epoch: occurrences
        ``0 .. draws[i] - 1``, since an unanswered flow is re-sent
        whatever each send's fate.  Returns ``{reason: bytearray}``: per
        address, how many of those sends each rule dropped.  The reasons
        come in the order one clock-free :meth:`query_fate` walk over the
        addresses and their sends first meets them, then burst loss.

        The rules that do not read the clock are tallied once per
        address column and kept in the caller's memo (``remember(key,
        build)``); only the flows inside this epoch's burst windows are
        tallied again with the clock.  Both tallies draw through
        :func:`repro.util.fate_counts`.
        """
        profile = self.profile
        steady = remember(
            (self._seed_high, profile.loss_rate, profile.rate_limit_share,
             profile.rate_limit_step),
            lambda: self._steady_fates(flow_const, addresses, draws))
        if profile.burst_share <= 0.0:
            return steady
        window_of = [value >> 16 for value in addresses]
        bursting = {window: self._in_burst(window << 16, now)
                    for window in set(window_of)}
        stormy = bytes(map(bursting.__getitem__, window_of))
        # The rate limit is clock-free: a stormy flow's other rules see
        # the sends the steady tally left them.
        spared = compress(draws, stormy)
        if "rate_limited" in steady:
            spared = map(sub, spared, compress(steady["rate_limited"],
                                               stormy))
        tallied = zip(("burst_loss", "injected_loss"), fate_counts(
            list(compress(addresses, stormy)),
            [self._flow_rule(_SALT_BURST_LOSS, flow_const,
                             profile.burst_loss_rate),
             self._flow_rule(_SALT_EXTRA_LOSS, flow_const,
                             profile.loss_rate)],
            bytes(spared)))
        positions = list(compress(range(len(addresses)), stormy))
        counts = {reason: bytearray(column)
                  for reason, column in steady.items()}
        # Injected loss strikes a stormy flow only where it struck in the
        # steady tally: burst loss is the one reason this adds, last.
        for reason, column in tallied:
            if reason not in counts:
                if not any(column):
                    continue
                counts[reason] = bytearray(len(addresses))
            into = counts[reason]
            for position, dropped in zip(positions, column):
                into[position] = dropped
        return counts

    def _steady_fates(self, flow_const, addresses, draws):
        """:meth:`query_fate_columns` without the clock: the rate limit,
        one address-keyed draw that claims every send past
        ``rate_limit_step``, then injected loss on the sends it spares."""
        profile = self.profile
        rate_limited = bytes(len(addresses))
        if profile.rate_limit_share > 0.0:
            limited, = fate_counts(
                addresses,
                [(self._seed_high ^ _SALT_RATE_LIMIT << 56, 1,
                  fate_threshold(profile.rate_limit_share))],
                b"\x01" * len(addresses))
            cap = profile.rate_limit_step + 1
            rate_limited = bytearray(map(mul, draws.translate(bytes(
                max(sent - cap, 0) for sent in range(256))), limited))
            draws = bytes(map(sub, draws, rate_limited))
        injected, = fate_counts(
            addresses, [self._flow_rule(_SALT_EXTRA_LOSS, flow_const,
                                        profile.loss_rate)], draws)
        # One walk meets a reason at its first flow; at a flow that meets
        # both, injected loss strikes below the cap, the rate limit past it.
        met = sorted(
            (next(compress(count(), column)), reason == "rate_limited",
             reason, column)
            for reason, column in (("rate_limited", rate_limited),
                                   ("injected_loss", injected))
            if any(column))
        return {reason: column for __, ___, reason, column in met}

    def _flow_rule(self, salt, flow_const, rate):
        """A :func:`repro.util.fate_counts` rule drawing what
        :meth:`_chance` draws for ``(salt, flow key)`` at ``rate``."""
        return (self._seed_high ^ salt << 56 ^ flow_const & M64,
                0x85EBCA77, fate_threshold(rate))

    # -- UDP response plane -----------------------------------------------

    def truncates_response(self, flow_key, occurrence):
        """Whether one delivered response arrives truncated (unparseable)."""
        return self._chance(_SALT_TRUNCATION, flow_key, occurrence,
                            self.profile.truncation_rate)

    # -- TCP plane --------------------------------------------------------

    def tcp_stall_seconds(self, flow_key, occurrence):
        """Simulated stall before one TCP connect completes (0.0 = none)."""
        if self._chance(_SALT_TCP_HANG, flow_key, occurrence,
                        self.profile.tcp_hang_rate):
            return self.profile.tcp_stall_seconds
        return 0.0

    # -- resolver plane ---------------------------------------------------

    def resolver_offline(self, ip_int, now):
        """Whether a flapping resolver is in an offline episode at ``now``.

        A ``flap_share`` subset of resolvers (hash-selected, stable for
        the campaign) cycles offline ``flap_duty`` of every
        ``flap_period`` weeks, phase-shifted per resolver.  The simulated
        clock is frozen within one scan, so episodes toggle between
        weekly scans — the mid-campaign flapping the paper's churn
        analysis must survive.
        """
        profile = self.profile
        if profile.flap_share <= 0.0 or profile.flap_period <= 0:
            return False
        if not self._chance(_SALT_FLAP, ip_int, 0, profile.flap_share):
            return False
        phase = mix64(self._seed_high ^ (_SALT_FLAP << 48) ^ ip_int) \
            % profile.flap_period
        week = int(now // _WEEK)
        position = (week + phase) % profile.flap_period
        return position < profile.flap_period * profile.flap_duty

    # -- worker plane -----------------------------------------------------

    def worker_dies(self, shard_index, attempt):
        """Whether the scan worker for (shard, attempt) is killed.

        Forced deaths (``kill_shards``) take priority; otherwise a
        ``worker_death_rate`` draw keyed on (shard, attempt) applies.
        """
        forced = self.profile.kill_shards.get(shard_index, 0)
        if attempt < forced:
            return True
        return self._chance(_SALT_WORKER_DEATH,
                            (shard_index << 20) ^ attempt, 0,
                            self.profile.worker_death_rate)

    # -- crash plane (checkpoint boundaries) ------------------------------

    @staticmethod
    def crash_point(kind, key):
        """Canonical name of one checkpoint boundary: ``kind:a/b/c``."""
        return "%s:%s" % (kind, "/".join(str(part) for part in key))

    def crashes(self, kind, key, occurrence=0):
        """Whether the process dies at this checkpoint boundary.

        Forced ``crash_points`` fire on the boundary's first arrival
        only (``occurrence`` counts prior crashes journaled at this
        point), so resumes proceed; probabilistic ``crash_rate`` draws
        are keyed on (point, occurrence) and likewise move on.
        """
        point = self.crash_point(kind, key)
        if occurrence == 0 and point in self.profile.crash_points:
            return True
        return self._chance(_SALT_CRASH,
                            zlib.crc32(point.encode("utf-8")),
                            occurrence, self.profile.crash_rate)

    def torn_write(self, seq, epoch=0):
        """Whether the journal append for record ``seq`` is torn.

        ``epoch`` counts prior quarantined spans in the checkpoint
        directory, so a forced ``torn_points`` entry (or a rate draw on
        the same sequence number) does not re-tear after resume.
        """
        if epoch == 0 and seq in self.profile.torn_points:
            return True
        return self._chance(_SALT_TORN, seq, epoch,
                            self.profile.torn_write_rate)

    def __repr__(self):
        return "FaultPlan(seed=%d, %r)" % (self.seed, self.profile)
