"""Adaptive probe pacing: the scanner side of the arms race.

Hostile networks (:mod:`repro.netsim.defense`) rate-limit, blocklist,
and tarpit sources that probe too fast.  This module is the counter:
an AIMD controller that maintains a probes-per-second window per
(/16 destination prefix, defense domain) pair, backs off
multiplicatively on each defense admonishment, ramps additively while
clean, trips a circuit breaker
into a "cool-off" after consecutive signals (re-entering at the floor
rate after a jittered number of targets), and — when a prefix keeps
signalling past the error budget — stops probing it entirely, recording
the skipped targets as ``suppressed`` coverage instead of silently
losing them.

Real scanners drive this loop from observed signals — timeouts, REFUSED
bursts, ICMP admonishments ("Ten Years of ZMap", PAPERS.md).  Bare
timeouts are useless as a signal here: ~97% of the space is legitimately
dark, so silence cannot distinguish "empty" from "throttled".  The
simulator's defenses therefore emit *deterministic* admonishments — pure
hash draws keyed on (box seed, source, destination, declared rate) —
and the controller replays exactly those draws without sending a packet,
the same way the sweep replays baseline loss draws
(``Network.cold_sweep_columns``).  The result is a **pacing plan**: a
precomputed map from defended target to declared rate bucket (or to a
suppression cause), pure in

    (target space, LFSR walk, defense configuration, controller config,
     scanner identity)

and — critically — computed over the *full* target space in canonical
global LFSR order, never over a shard slice.  Every forked shard worker
replays the identical per-window recurrence (evaluating fates for
targets outside its slice without sending them), so rate buckets and
suppression cut-points are shard-invariant by construction and sharded
scans stay bit-identical to sequential ones under defense.
"""

from itertools import compress

from repro.netsim.address import RangeIndex
from repro.netsim.defense import CAUSE_BLOCKLISTED, DefenseMiddlebox
from repro.util import mix64

_SALT_REENTRY = 0x76


class PacingConfig:
    """Tuning of the AIMD pacing controller.

    ``initial_pps`` seeds each window's rate; clean probes add
    ``additive_pps`` up to ``max_pps``; each admonishment multiplies by
    ``decrease`` down to ``min_pps`` and ratchets a learned ceiling just
    below the rate that drew the signal, so the window converges under a
    fixed defense threshold instead of oscillating across it.  ``breaker_threshold`` consecutive
    signals trip the circuit breaker: the window holds at the floor for
    ``cooloff_targets`` probes plus a scanner-seeded jitter of up to
    ``cooloff_jitter`` (jittered re-entry).  A window accumulating
    ``error_budget`` signals is suppressed for the rest of the scan.
    Windows are /``window_bits`` destination prefixes.
    """

    __slots__ = ("initial_pps", "min_pps", "max_pps", "additive_pps",
                 "decrease", "breaker_threshold", "cooloff_targets",
                 "cooloff_jitter", "error_budget", "window_bits")

    def __init__(self, initial_pps=100.0, min_pps=8.0, max_pps=2000.0,
                 additive_pps=4.0, decrease=0.5, breaker_threshold=4,
                 cooloff_targets=64, cooloff_jitter=32, error_budget=24,
                 window_bits=16):
        if min_pps <= 0 or initial_pps <= 0 or max_pps <= 0:
            raise ValueError("pacing rates must be > 0")
        if not 0 < decrease < 1:
            raise ValueError("decrease must be in (0, 1)")
        self.initial_pps = float(initial_pps)
        self.min_pps = float(min_pps)
        self.max_pps = float(max_pps)
        self.additive_pps = float(additive_pps)
        self.decrease = float(decrease)
        self.breaker_threshold = int(breaker_threshold)
        self.cooloff_targets = int(cooloff_targets)
        self.cooloff_jitter = int(cooloff_jitter)
        self.error_budget = int(error_budget)
        self.window_bits = int(window_bits)

    @property
    def window_mask(self):
        return (~((1 << (32 - self.window_bits)) - 1)) & 0xFFFFFFFF


def normalize_pacing(pacing, max_pps=None):
    """Canonical pacing setting: ``None`` (off) or a PacingConfig.

    Accepts the CLI spellings (``"off"``/``"adaptive"``), booleans, or a
    ready config; ``max_pps`` overrides the config ceiling when given.
    """
    if pacing is None or pacing is False or pacing == "off":
        return None
    if pacing is True or pacing == "adaptive":
        config = PacingConfig()
    elif isinstance(pacing, PacingConfig):
        config = pacing
    else:
        raise ValueError("unknown pacing setting: %r (expected 'off', "
                         "'adaptive', or a PacingConfig)" % (pacing,))
    if max_pps is not None:
        config = PacingConfig(
            initial_pps=min(config.initial_pps, float(max_pps)),
            min_pps=min(config.min_pps, float(max_pps)),
            max_pps=float(max_pps),
            additive_pps=config.additive_pps, decrease=config.decrease,
            breaker_threshold=config.breaker_threshold,
            cooloff_targets=config.cooloff_targets,
            cooloff_jitter=config.cooloff_jitter,
            error_budget=config.error_budget,
            window_bits=config.window_bits)
    return config


def defense_plane(network, source_ip, dst_port=53):
    """Armed defense boxes and their ranges: ``[(box, ranges), ...]``.

    A box is part of the plane when it is a :class:`DefenseMiddlebox`
    (it has the pure ``probe_fate`` verdict) whose ``scan_interest``
    names at least one range for this source right now.
    """
    plane = []
    for box in network.middleboxes_of(DefenseMiddlebox):
        ranges = box.scan_interest(source_ip, dst_port, network)
        if ranges:
            plane.append((box, ranges))
    return plane


class _Window:
    """Mutable AIMD state of one destination window during plan build."""

    __slots__ = ("base", "pps", "ceiling", "consec", "hold", "skip",
                 "skip_cause", "dark_cause", "signals", "sent",
                 "suppressed", "trips")

    def __init__(self, base, initial_pps):
        self.base = base
        self.pps = initial_pps
        self.ceiling = None      # learned safe-rate ceiling (ratchets down)
        self.consec = 0          # consecutive admonishments
        self.hold = 0            # cool-off targets left at the floor
        self.skip = 0            # ban-decay targets left to suppress
        self.skip_cause = None
        self.dark_cause = None   # error budget exhausted: stays dark
        self.signals = 0
        self.sent = 0
        self.suppressed = 0
        self.trips = 0


class PacingPlan:
    """Precomputed pacing decisions for every defended target.

    ``rates`` maps target int -> declared rate bucket (int pps);
    ``suppressed`` maps target int -> ``defense:*`` cause for targets
    the scan must skip (graceful degradation).  ``windows`` holds one
    summary dict per destination window for observability.

    ``passed`` keeps the fates already drawn, for the sweep's cold
    settlement (``Network.cold_sweep_columns``): aligned with the state
    address column, 1 where exactly one box of ``plane`` covers the
    target and lets its probe through at the declared bucket — so no
    defense acts on that probe at all.
    """

    __slots__ = ("config", "rates", "suppressed", "windows", "signals",
                 "suppressed_count", "plane", "passed")

    def __init__(self, config, rates, suppressed, windows, signals,
                 plane, passed):
        self.config = config
        self.rates = rates
        self.suppressed = suppressed
        self.windows = windows
        self.signals = signals
        self.suppressed_count = len(suppressed)
        self.plane = plane
        self.passed = passed

    @property
    def window_mask(self):
        return self.config.window_mask

    def window_rates(self):
        """Final per-window rates (the pacing-window histogram feed)."""
        return [entry["pps"] for entry in self.windows]


def build_pacing_plan(plane, src_int, identity, walk, selector,
                      state_addresses, config):
    """Run the per-window AIMD recurrence over the defended targets.

    ``walk`` is the scan's LFSR permutation and ``selector`` the
    state-aligned mask of defended+allowed targets over the *full*
    space; iterating their compression visits defended targets in
    exactly the order the sequential scan probes them, which is what
    makes the recurrence — and therefore every declared rate bucket and
    suppression cut-point — identical in every shard worker.
    """
    rates = {}
    suppressed = {}
    windows = {}
    signals_total = 0
    window_mask = config.window_mask
    min_pps = config.min_pps
    max_pps = config.max_pps
    additive = config.additive_pps
    decrease = config.decrease
    breaker = config.breaker_threshold
    budget = config.error_budget
    checks = [(RangeIndex(ranges).find, ranges, box.probe_fate,
               box.ban_span) for box, ranges in plane]
    # Which ranges and which window hold an address is constant across
    # any block as fine as the finest of them, so the plane is consulted
    # once per block, not once per target.
    block_mask = window_mask
    for __, ranges in plane:
        for __, range_mask in ranges:
            block_mask |= range_mask
    governors = {}
    passed = bytearray(len(state_addresses))
    addr_of = state_addresses.__getitem__
    for state in compress(walk, map(selector.__getitem__, walk)):
        value = addr_of(state)
        # Resolve the governing defense domain first: windows are keyed
        # by (/window_bits prefix, defense range) so one blocklister's
        # ban spans or exhausted error budget never suppress targets of
        # an unrelated defense sharing the same destination prefix.
        governor = governors.get(value & block_mask)
        if governor is None:
            covering = []
            for find, ranges, box_fate, ban_span in checks:
                position = find(value)
                if position is not None:
                    covering.append((box_fate, ban_span, ranges[position]))
            governor = ()
            if covering:
                # The first covering box governs; ``sole`` says no
                # other box's verdict rides on the same probe.
                fate_fn, span_fn, range_key = covering[0]
                base = value & window_mask
                key = (base, range_key[0], range_key[1])
                window = windows.get(key)
                if window is None:
                    window = windows[key] = _Window(base,
                                                    config.initial_pps)
                governor = (fate_fn, span_fn, range_key[0], window,
                            len(covering) == 1)
            governors[value & block_mask] = governor
        if not governor:
            continue
        fate_fn, span_fn, range_base, window, sole = governor
        if window.dark_cause is not None:
            suppressed[value] = window.dark_cause
            window.suppressed += 1
            continue
        if window.skip > 0:
            window.skip -= 1
            suppressed[value] = window.skip_cause
            window.suppressed += 1
            continue
        bucket = int(window.pps)
        if bucket < 1:
            bucket = 1
        rates[value] = bucket
        window.sent += 1
        fate = fate_fn(src_int, value, bucket)
        if fate is None:
            passed[state] = sole
            window.consec = 0
            cap = window.ceiling if window.ceiling is not None else max_pps
            if window.hold > 0:
                window.hold -= 1
            elif window.pps < cap:
                pps = window.pps + additive
                window.pps = pps if pps < cap else cap
            continue
        window.signals += 1
        signals_total += 1
        # Ratchet the ceiling just below the rate that drew the signal:
        # pure additive-increase/multiplicative-decrease oscillates
        # around a defense threshold forever (each cycle burning more of
        # the error budget); remembering the failure point makes the
        # window *converge* into the clean region and stay there.
        ceiling = window.pps - additive
        if ceiling < min_pps:
            ceiling = min_pps
        if window.ceiling is None or ceiling < window.ceiling:
            window.ceiling = ceiling
        if window.signals >= budget:
            # Error budget exhausted: the window stays dark for the
            # rest of this scan — recorded, never silently lost.
            window.dark_cause = fate
            continue
        window.trips += 1
        jitter = mix64((_SALT_REENTRY << 56) ^ identity
                       ^ window.base * 0x9E3779B1
                       ^ range_base * 0x85EBCA77
                       ^ window.trips) % (config.cooloff_jitter or 1)
        if fate == CAUSE_BLOCKLISTED:
            # The blocklist entry decays after a seeded span (the box's
            # ban_span); suppress exactly that many targets, then
            # re-enter at the floor rate.
            span = (span_fn(src_int, window.base) if span_fn is not None
                    else config.cooloff_targets)
            window.skip = span + jitter
            window.skip_cause = fate
            window.pps = min_pps
            window.consec = 0
            continue
        window.consec += 1
        pps = window.pps * decrease
        window.pps = pps if pps > min_pps else min_pps
        if window.consec >= breaker:
            # Circuit breaker: hold at the floor for a jittered
            # cool-off before probing the window normally again.
            window.hold = config.cooloff_targets + jitter
            window.pps = min_pps
            window.consec = 0
    summaries = [
        {"window": key[0], "range": key[1], "pps": window.pps,
         "ceiling": window.ceiling, "signals": window.signals,
         "sent": window.sent, "suppressed": window.suppressed,
         "trips": window.trips, "dark": window.dark_cause}
        for key, window in windows.items()]
    summaries.sort(key=lambda entry: (entry["window"], entry["range"]))
    return PacingPlan(config, rates, suppressed, summaries, signals_total,
                      plane, passed)
