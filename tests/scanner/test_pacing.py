"""The adaptive pacing controller: plan purity, AIMD dynamics, CLI.

``build_pacing_plan`` is a pure recurrence — these tests drive it with
stub defense boxes to pin the ramp/backoff/breaker/budget behaviour,
then check the scanner records planned suppressions as first-class
coverage degradation.  ``TestCoverageFrontier`` holds the coverage
frontier on a scenario world armed with the hostile population.
"""

import pytest

from repro.cli import build_parser
from repro.netsim.address import ip_to_int
from repro.netsim.clock import WEEK
from repro.netsim.defense import (
    CAUSE_BLOCKLISTED,
    CAUSE_RATE_LIMITED,
    TokenBucketRateLimiter,
    install_hostile_population,
)
from repro.obs import Observability
from repro.perf import PerfRegistry
from repro.scanner.ipv4scan import _sweep_columns
from repro.scanner.pacing import (
    PacingConfig,
    build_pacing_plan,
    defense_plane,
    normalize_pacing,
)
from repro.scenario import ScenarioConfig, build_scenario

BASE = 0x0A000000            # 10.0.0.0
MASK24 = 0xFFFFFF00
IDENTITY = 0x5EED


class StubBox:
    """A defense box whose fate is a plain threshold on the rate."""

    def __init__(self, drop_above=None, cause=CAUSE_RATE_LIMITED,
                 always=False, span=None):
        self.drop_above = drop_above
        self.cause = cause
        self.always = always
        self.span = span

    def probe_fate(self, src_int, dst_int, rate_bucket):
        if self.always:
            return self.cause
        if rate_bucket is None or rate_bucket > self.drop_above:
            return self.cause
        return None

    def ban_span(self, src_int, window_base):
        return self.span


def plan_over(boxes_ranges, count=512, config=None, base=BASE):
    """Run the recurrence over ``count`` contiguous targets."""
    addresses = list(range(base, base + count))
    walk = list(range(count))     # state k -> address k: identity walk
    selector = bytearray([1]) * count
    return build_pacing_plan(boxes_ranges, 0x7F000001, IDENTITY, walk,
                             selector, addresses,
                             config or PacingConfig())


class TestNormalizePacing:
    def test_off_spellings(self):
        assert normalize_pacing(None) is None
        assert normalize_pacing(False) is None
        assert normalize_pacing("off") is None

    def test_adaptive_spellings(self):
        assert isinstance(normalize_pacing("adaptive"), PacingConfig)
        assert isinstance(normalize_pacing(True), PacingConfig)
        config = PacingConfig(initial_pps=42.0)
        assert normalize_pacing(config) is config

    def test_max_pps_override_clamps(self):
        config = normalize_pacing("adaptive", max_pps=50.0)
        assert config.max_pps == 50.0
        assert config.initial_pps == 50.0
        assert config.min_pps <= 50.0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            normalize_pacing("fast")
        with pytest.raises(ValueError):
            normalize_pacing("adaptive", max_pps=-1)
        with pytest.raises(ValueError):
            PacingConfig(decrease=1.5)


class TestAimdRecurrence:
    def test_clean_window_ramps_additively_to_max(self):
        box = StubBox(drop_above=10 ** 9)
        config = PacingConfig(initial_pps=100.0, additive_pps=4.0,
                              max_pps=300.0)
        plan = plan_over([(box, [(BASE, MASK24)])], count=256,
                         config=config)
        rates = [plan.rates[BASE + k] for k in range(256)]
        assert rates[0] == 100
        assert rates[:3] == [100, 104, 108]
        assert rates == sorted(rates)
        assert rates[-1] == 300
        assert not plan.suppressed
        assert plan.signals == 0

    def test_signals_converge_below_defense_threshold(self):
        box = StubBox(drop_above=200)
        plan = plan_over([(box, [(BASE, MASK24)])], count=256)
        # The learned ceiling ratchets below the threshold: after
        # convergence every declared rate is clean, and the tail of the
        # window is probed (not suppressed).
        assert 0 < plan.signals < PacingConfig().error_budget
        assert not plan.suppressed
        [window] = plan.windows
        assert window["ceiling"] is not None
        assert window["ceiling"] <= 200
        assert window["pps"] <= 200
        tail = [plan.rates[BASE + k] for k in range(200, 256)]
        assert all(rate <= 200 for rate in tail)

    def test_error_budget_darkens_hostile_window(self):
        box = StubBox(always=True)
        config = PacingConfig(error_budget=10)
        plan = plan_over([(box, [(BASE, MASK24)])], count=256,
                         config=config)
        [window] = plan.windows
        assert window["dark"] == CAUSE_RATE_LIMITED
        assert window["signals"] == 10
        assert plan.suppressed_count == 256 - window["sent"]
        assert set(plan.suppressed.values()) == {CAUSE_RATE_LIMITED}

    def test_blocklist_ban_suppresses_seeded_span_then_reenters(self):
        box = StubBox(drop_above=150, cause=CAUSE_BLOCKLISTED, span=40)
        config = PacingConfig(initial_pps=100.0, additive_pps=25.0,
                              cooloff_jitter=8)
        plan = plan_over([(box, [(BASE, MASK24)])], count=256,
                         config=config)
        assert plan.suppressed
        assert set(plan.suppressed.values()) == {CAUSE_BLOCKLISTED}
        [window] = plan.windows
        # Each ban suppresses span + jitter targets; jitter < 8.
        assert window["suppressed"] >= 40
        # Re-entry happened: targets after the first ban span were probed.
        banned = sorted(value - BASE for value in plan.suppressed)
        assert window["sent"] + window["suppressed"] == 256
        assert banned[0] < 256 - 1 and window["sent"] > banned[0]

    def test_windows_partition_by_defense_domain(self):
        # A hard-hostile range and a clean range inside the same /16:
        # the hostile range's ban/budget must never suppress the clean
        # range's targets.
        hostile = StubBox(always=True)
        friendly = StubBox(drop_above=10 ** 9)
        config = PacingConfig(error_budget=5)
        plan = plan_over(
            [(hostile, [(BASE, MASK24)]),
             (friendly, [(BASE + 256, MASK24)])],
            count=512, config=config)
        assert len(plan.windows) == 2
        assert all(BASE <= value < BASE + 256 for value in plan.suppressed)
        assert all(BASE + 256 + k in plan.rates for k in range(256))

    def test_passed_marks_sole_coverage_let_through(self):
        # Three /24s: one clean box alone, two boxes overlapping, one
        # box that always signals.  Only the first /24's passes may be
        # settled without asking the boxes again.
        clean = StubBox(drop_above=10 ** 9)
        plan = plan_over(
            [(clean, [(BASE, MASK24), (BASE + 256, MASK24)]),
             (StubBox(drop_above=10 ** 9), [(BASE + 256, MASK24)]),
             (StubBox(always=True), [(BASE + 512, MASK24)])],
            count=1024)
        assert plan.passed == (b"\x01" * 256 + bytes(768))
        assert all(BASE + k in plan.rates for k in range(512))
        assert [box for box, __ in plan.plane][0] is clean

    def test_plan_is_deterministic(self):
        box = StubBox(drop_above=180)
        one = plan_over([(box, [(BASE, MASK24)])])
        two = plan_over([(box, [(BASE, MASK24)])])
        assert one.rates == two.rates
        assert one.suppressed == two.suppressed
        assert one.windows == two.windows

    def test_window_rates_feed_histogram(self):
        box = StubBox(drop_above=10 ** 9)
        plan = plan_over([(box, [(BASE, MASK24)])])
        assert plan.window_rates() == [entry["pps"]
                                       for entry in plan.windows]


class TestDefensePlane:
    def test_collects_armed_defense_boxes(self, mini):
        net = mini.allocator.allocate(24)
        box = TokenBucketRateLimiter([net])
        dormant = TokenBucketRateLimiter([net], active_after=1e9)
        mini.network.add_middlebox(box)
        mini.network.add_middlebox(dormant)
        plane = defense_plane(mini.network, mini.client_ip)
        assert plane == [(box, [(net.base, net.mask)])]

    def test_ignores_classic_middleboxes(self, mini):
        from repro.netsim.middlebox import DnsIngressFilter
        net = mini.allocator.allocate(24)
        mini.network.add_middlebox(DnsIngressFilter([net]))
        assert defense_plane(mini.network, mini.client_ip) == []


def fresh_plan(scanner, columns):
    """The plan a scan at the network's clock builds from nothing: the
    defended targets picked by the plain mask loop."""
    plane = defense_plane(scanner.network, scanner.source_ip)
    addresses = columns.addresses
    walk = scanner._walk(len(addresses) - 1)
    selector = bytearray(len(walk) + 1)
    for state in range(1, len(addresses)):
        selector[state] = columns.allowed[state] and any(
            addresses[state] & mask == base
            for __, ranges in plane for base, mask in ranges)
    return build_pacing_plan(plane, ip_to_int(scanner.source_ip),
                             scanner._identity, walk, selector, addresses,
                             scanner.pacing)


def plan_fields(plan):
    return (plan.rates, plan.suppressed, bytes(plan.passed), plan.windows,
            plan.signals)


class TestPlanAcrossWeeks:
    """The plan is a function of columns x defense plane x scanner: a
    campaign builds it once, every later week reuses it, and every week
    still tallies it."""

    def campaign_plans(self, shards, late_box=False):
        scenario = build_scenario(ScenarioConfig(scale=60000, seed=7,
                                                 lazy_population=True))
        network = scenario.network
        prefixes = scenario.target_space().prefixes
        install_hostile_population(network, prefixes, seed=7)
        if late_box:
            # Armed between the first week's scan and the second's.
            network.add_middlebox(TokenBucketRateLimiter(
                prefixes[-1:], sustainable_pps=150.0, seed=11,
                active_after=network.clock.now + WEEK / 2))
        perf = PerfRegistry()
        campaign = scenario.new_campaign(verify=False, shards=shards,
                                         perf=perf, pacing="adaptive")
        scanner = campaign.scanner
        columns = _sweep_columns(campaign.target_space, scenario.blacklist)
        used, fresh = [], []
        for __ in range(3):
            # At the clock the week's scan runs at (it advances after).
            fresh.append(fresh_plan(scanner, columns))
            campaign.run_week()
            used.append(scanner._paced[2])
        return perf, used, fresh

    @pytest.mark.parametrize("shards", [1, 2])
    def test_one_plan_serves_every_week(self, shards):
        perf, used, fresh = self.campaign_plans(shards)
        assert perf.counter("pacing_plans_built") == 1
        assert used[1] is used[0] and used[2] is used[0]
        for plan, rebuilt in zip(used, fresh):
            assert plan_fields(plan) == plan_fields(rebuilt)
        # Tallied every week, as three separately built plans would be.
        plan = fresh[0]
        assert plan.signals > 0
        assert perf.counter("pacing_defense_signals") == 3 * plan.signals
        assert perf.counter("pacing_suppressed_planned") == \
            3 * plan.suppressed_count
        assert perf.gauge_value("pacing_windows") == len(plan.windows)
        assert perf.histograms["pacing_window_pps"].count == \
            3 * len(plan.windows)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_box_arming_between_weeks_rebuilds_once(self, shards):
        perf, used, fresh = self.campaign_plans(shards, late_box=True)
        assert perf.counter("pacing_plans_built") == 2
        assert used[1] is not used[0] and used[2] is used[1]
        assert len(used[1].plane) == len(used[0].plane) + 1
        for plan, rebuilt in zip(used, fresh):
            assert plan_fields(plan) == plan_fields(rebuilt)


def frontier_week(hostile, pacing=None, observe=False):
    """One week over a fresh scale-60000 world, with or without the
    hostile population."""
    scenario = build_scenario(ScenarioConfig(scale=60000, seed=7,
                                             loss_rate=0.0))
    network = scenario.network
    if hostile:
        install_hostile_population(
            network, scenario.target_space().prefixes, seed=7)
    if observe:
        Observability(clock=network.clock, seed=7).install(network)
    campaign = scenario.new_campaign(verify=False, pacing=pacing)
    return network, campaign.run_week().result


@pytest.fixture(scope="module")
def passive():
    return frontier_week(hostile=False)


@pytest.fixture(scope="module")
def naive():
    return frontier_week(hostile=True)


@pytest.fixture(scope="module")
def adaptive():
    # The flight recorder rides along: results are equal with and
    # without it (test_sweep_lattice.py).
    return frontier_week(hostile=True, pacing="adaptive", observe=True)


class TestCoverageFrontier:
    """Passive (no defenses), naive (defenses, no pacing) and adaptive
    (defenses, AIMD pacing) weeks over the world
    ``ScenarioConfig(scale=60000, seed=7, loss_rate=0.0)``, armed with
    ``install_hostile_population(..., seed=7)``."""

    def test_adaptive_recovers_the_passive_coverage(self, passive,
                                                    adaptive):
        ceiling = len(passive[1].responders)
        assert ceiling > 0
        assert len(adaptive[1].responders) >= 0.95 * ceiling

    def test_naive_is_worse(self, naive, adaptive):
        naive, adaptive = naive[1], adaptive[1]
        assert len(naive.responders) < len(adaptive.responders) \
            or naive.probes_sent > adaptive.probes_sent

    def test_adaptive_degrades_by_suppressing(self, adaptive):
        assert adaptive[1].suppressed_targets > 0

    def test_defenses_fire_against_naive(self, naive):
        assert any(key.startswith("defense:")
                   for key in naive[0].fault_counters)

    def test_every_lost_probe_has_a_cause(self, adaptive):
        recorder = adaptive[0].recorder
        assert all(cause.startswith(("defense:", "fault:"))
                   for cause in recorder.cause_counts)
        losses = sum(recorder.event_counts.get(kind, 0)
                     for kind in ("lost", "response_lost"))
        assert losses == sum(recorder.cause_counts.values()) \
            - recorder.event_counts.get("suppressed", 0)


class TestCliFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["scan"])
        assert args.pacing == "off"
        assert args.max_pps is None
        assert args.backoff == 2.0

    @pytest.mark.parametrize("command", ["scan", "campaign", "fullstudy"])
    def test_flags_parse_on_scan_commands(self, command):
        args = build_parser().parse_args(
            [command, "--pacing", "adaptive", "--max-pps", "500",
             "--backoff", "1.5"])
        assert args.pacing == "adaptive"
        assert args.max_pps == 500.0
        assert args.backoff == 1.5

    def test_unknown_pacing_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scan", "--pacing", "warp"])
