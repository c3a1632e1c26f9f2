"""Tests for the deterministic fault-injection plane (repro.faults)."""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro import util
from repro.faults import (
    FaultPlan,
    FaultProfile,
    PROFILES,
    parse_fault_spec,
)
from repro.netsim import Network, SimClock
from repro.netsim.address import int_to_ip
from tests.oracles import FateOracle


class TestFaultProfile:
    def test_defaults_are_inert(self):
        profile = FaultProfile()
        assert profile.loss_rate == 0.0
        assert profile.burst_share == 0.0
        assert profile.truncation_rate == 0.0
        assert profile.tcp_hang_rate == 0.0
        assert profile.flap_share == 0.0
        assert profile.worker_death_rate == 0.0
        assert profile.kill_shards == {}

    def test_replace_copies_without_mutating(self):
        base = PROFILES["mild"]
        derived = base.replace(loss_rate=0.5, kill_shards={0: 2})
        assert derived.loss_rate == 0.5
        assert derived.kill_shards == {0: 2}
        assert derived.truncation_rate == base.truncation_rate
        assert base.loss_rate == 0.01
        assert base.kill_shards == {}

    def test_named_profiles_exist(self):
        assert set(PROFILES) == {"none", "mild", "aggressive"}
        assert PROFILES["aggressive"].loss_rate > PROFILES["mild"].loss_rate


class TestParseFaultSpec:
    def test_bare_profile_name(self):
        profile = parse_fault_spec("aggressive")
        assert profile.loss_rate == PROFILES["aggressive"].loss_rate

    def test_default_profile_is_mild(self):
        profile = parse_fault_spec("loss_rate=0.2")
        assert profile.loss_rate == 0.2
        # Everything else inherits mild.
        assert profile.truncation_rate == PROFILES["mild"].truncation_rate

    def test_overrides_and_kill_entries(self):
        profile = parse_fault_spec("aggressive,loss_rate=0.25,kill=0:2,kill=3")
        assert profile.loss_rate == 0.25
        assert profile.kill_shards == {0: 2, 3: 1}
        assert profile.burst_share == PROFILES["aggressive"].burst_share

    def test_integer_fields_coerced(self):
        profile = parse_fault_spec("none,rate_limit_step=3,flap_period=6")
        assert profile.rate_limit_step == 3
        assert isinstance(profile.rate_limit_step, int)
        assert profile.flap_period == 6
        assert isinstance(profile.flap_period, int)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_spec("bogus")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_spec("mild,banana=1")

    def test_duplicate_profile_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_spec("mild,aggressive")


class TestDrawDeterminism:
    """Every fault draw is a pure function of (seed, salt, key, occurrence)."""

    def test_same_seed_same_draws(self):
        left = FaultPlan("aggressive", seed=42)
        right = FaultPlan("aggressive", seed=42)
        for key in range(200):
            assert left.query_fate(key, key * 7, 0, 0.0) == \
                right.query_fate(key, key * 7, 0, 0.0)
            assert left.truncates_response(key, 0) == \
                right.truncates_response(key, 0)
            assert left.tcp_stall_seconds(key, 0) == \
                right.tcp_stall_seconds(key, 0)

    def test_draws_are_stateless(self):
        """Repeating the identical draw yields the identical answer —
        no hidden sequential RNG."""
        plan = FaultPlan("aggressive", seed=5)
        fates = [plan.query_fate(17, 1234, 0, 0.0) for __ in range(10)]
        assert len(set(fates)) == 1

    def test_different_seeds_differ(self):
        left = FaultPlan("aggressive", seed=1)
        right = FaultPlan("aggressive", seed=2)
        fates_left = [left.query_fate(k, k, 0, 0.0) for k in range(500)]
        fates_right = [right.query_fate(k, k, 0, 0.0) for k in range(500)]
        assert fates_left != fates_right

    def test_loss_rate_statistics(self):
        plan = FaultPlan(FaultProfile(loss_rate=0.10), seed=9)
        lost = sum(1 for key in range(20000)
                   if plan.query_fate(key, key, 0, 0.0) == "injected_loss")
        assert 0.08 < lost / 20000 < 0.12

    def test_none_profile_never_faults(self):
        plan = FaultPlan("none", seed=3)
        for key in range(500):
            assert plan.query_fate(key, key, 0, 0.0) is None
            assert not plan.truncates_response(key, 0)
            assert plan.tcp_stall_seconds(key, 0) == 0.0
            assert not plan.resolver_offline(key, 0.0)
            assert not plan.worker_dies(key % 8, 0)


class TestRateLimiting:
    def test_first_sends_pass_then_limited(self):
        plan = FaultPlan(FaultProfile(rate_limit_share=1.0,
                                      rate_limit_step=2), seed=1)
        # Occurrences 0..step pass; beyond the step every send drops.
        assert plan.query_fate(11, 99, 0, 0.0) is None
        assert plan.query_fate(11, 99, 1, 0.0) is None
        assert plan.query_fate(11, 99, 2, 0.0) is None
        assert plan.query_fate(11, 99, 3, 0.0) == "rate_limited"
        assert plan.query_fate(11, 99, 7, 0.0) == "rate_limited"

    def test_only_selected_destinations_limit(self):
        plan = FaultPlan(FaultProfile(rate_limit_share=0.5,
                                      rate_limit_step=0), seed=8)
        limited = sum(1 for dst in range(2000)
                      if plan.query_fate(dst, dst, 5, 0.0) == "rate_limited")
        assert 800 < limited < 1200


class TestBurstLoss:
    def test_burst_windows_are_spatial(self):
        """All flows inside a selected /16 window share the burst; flows
        outside it never draw burst loss."""
        plan = FaultPlan(FaultProfile(burst_share=0.5,
                                      burst_loss_rate=1.0), seed=4)
        outcome_by_window = {}
        for window in range(64):
            dst = window << 16
            fates = {plan.query_fate((dst << 8) ^ k, dst + k, 0, 0.0)
                     for k in range(20)}
            outcome_by_window[window] = fates
        bursty = [w for w, fates in outcome_by_window.items()
                  if fates == {"burst_loss"}]
        quiet = [w for w, fates in outcome_by_window.items()
                 if fates == {None}]
        assert bursty and quiet
        assert len(bursty) + len(quiet) == 64


def tally(plan, flow_const, addresses, draws, now):
    """:meth:`FaultPlan.query_fate_columns` as one ``query_fate`` call
    per send, reasons keyed in the order the walk first meets them."""
    counts = {}
    for position, value in enumerate(addresses):
        for occurrence in range(draws[position]):
            reason = plan.query_fate(flow_const ^ value * 0x85EBCA77, value,
                                     occurrence, now)
            if reason is not None:
                column = counts.setdefault(reason, bytearray(len(addresses)))
                column[position] += 1
    return counts


class TestQueryFateColumns:
    """The column form against one ``query_fate`` call per send."""

    FLOW_CONST = 0x1234567
    ADDRESSES = [(window << 16) + host for window in range(40)
                 for host in (1, 2, 77)]

    def tally(self, plan, draws, now):
        return tally(plan, self.FLOW_CONST, self.ADDRESSES, draws, now)

    @pytest.mark.parametrize("profile", [
        FaultProfile(loss_rate=0.3),
        PROFILES["aggressive"],
        PROFILES["aggressive"].replace(burst_share=0.5,
                                       burst_loss_rate=0.9),
    ])
    def test_equals_per_send_fates_at_every_epoch(self, profile):
        plan = FaultPlan(profile, seed=6)
        # Uneven draw counts: what baseline loss leaves of 3 attempts.
        draws = bytes(position % 4 for position
                      in range(len(self.ADDRESSES)))
        memo = {}

        def remember(key, build):
            if key not in memo:
                memo[key] = build()
            return memo[key]

        for now in (0.0, 604800.0, 1209600.0):
            assert plan.query_fate_columns(
                self.FLOW_CONST, self.ADDRESSES, draws, now,
                remember) == self.tally(plan, draws, now)
        # The clock-independent rules were tallied once, not per epoch.
        assert len(memo) == 1

    def test_burst_windows_move_with_the_clock(self):
        plan = FaultPlan(FaultProfile(burst_share=0.5,
                                      burst_loss_rate=1.0), seed=4)
        draws = bytes((2,)) * len(self.ADDRESSES)
        weeks = [plan.query_fate_columns(
            self.FLOW_CONST, self.ADDRESSES, draws, now,
            lambda key, build: build()) for now in (0.0, 604800.0)]
        assert weeks[0]["burst_loss"] != weeks[1]["burst_loss"]
        assert set(weeks[0]["burst_loss"]) == {0, 2}


def columns_oracle(plan, flow_const, addresses, draws, now):
    """What :meth:`FaultPlan.query_fate_columns` returns, one send at a
    time: the clock-free walk's reasons first, in the order it meets
    them, then those the clock adds; every count from the walk with the
    clock."""
    walked = tally(plan, flow_const, addresses, draws, now)
    if plan.profile.burst_share <= 0.0:
        return walked
    counts = {reason: walked.get(reason, bytearray(len(addresses)))
              for reason in tally(plan, flow_const, addresses, draws, None)}
    counts.update(walked)
    return counts


# Column lengths around the kernel's chunk, patched down to CHUNK lanes.
CHUNK = 8
LENGTHS = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]

PROFILES_DRAWN = st.builds(
    FaultProfile,
    loss_rate=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    burst_share=st.sampled_from([0.0, 0.5, 1.0]),
    burst_loss_rate=st.sampled_from([0.0, 0.4, 1.0]),
    rate_limit_share=st.sampled_from([0.0, 0.3, 1.0]),
    rate_limit_step=st.integers(0, 3))


@st.composite
def address_columns(draw):
    """Distinct addresses over a few /16 windows, so that one epoch
    finds some inside a burst window and some outside."""
    length = draw(st.sampled_from(LENGTHS))
    windows = draw(st.lists(st.integers(1, 0xFFFF), min_size=1,
                            max_size=4))
    hosts = draw(st.lists(st.integers(0, 0xFFFF), min_size=length,
                          max_size=length, unique=True))
    return [draw(st.sampled_from(windows)) << 16 | host for host in hosts]


@st.composite
def draw_columns(draw):
    addresses = draw(address_columns())
    # Zeros and uneven counts: what baseline loss leaves of the attempts.
    draws = bytes(draw(st.lists(st.integers(0, 5), min_size=len(addresses),
                                max_size=len(addresses))))
    return addresses, draws


class TestFateKernel:
    """The lane kernel, :func:`repro.util.fate_counts`, behind every
    per-address fate column, against one draw per send."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), profile=PROFILES_DRAWN,
           columns=draw_columns(),
           now=st.sampled_from([0.0, 604800.0, 1814400.0, 3024000.0]),
           flow_const=st.integers(0, util.M64), as_array=st.booleans())
    def test_query_fate_columns_equal_per_send_fates(
            self, seed, profile, columns, now, flow_const, as_array):
        addresses, draws = columns
        plan = FaultPlan(profile, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(util, "LANE_CHUNK", CHUNK)
            got = plan.query_fate_columns(
                flow_const, array("I", addresses) if as_array else addresses,
                draws, now, lambda key, build: build())
        assert list(got.items()) == list(columns_oracle(
            plan, flow_const, addresses, draws, now).items())

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 1000),
           loss_rate=st.sampled_from([0.05, 0.3, 0.7, 1.0]),
           profile=st.one_of(st.none(), PROFILES_DRAWN),
           addresses=address_columns(), attempts=st.integers(1, 4),
           weeks=st.integers(0, 3))
    def test_sweep_drop_columns_equal_the_fate_oracle(
            self, seed, loss_rate, profile, addresses, attempts, weeks):
        """The query-loss column (``Network._query_losses``) and the
        fault columns under it, against the network's fates written out
        from scratch: per address, ``attempts`` sends of one flow."""
        clock = SimClock()
        clock.advance(weeks * 604800.0)
        network = Network(clock, seed=seed, loss_rate=loss_rate)
        plan = None
        if profile is not None:
            plan = network.install_faults(FaultPlan(profile, seed=seed))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(util, "LANE_CHUNK", CHUNK)
            drops = network.sweep_drop_columns(
                "10.9.8.7", 31000, 53, addresses, {}, attempts=attempts)
        oracle = FateOracle(clock, seed, loss_rate, 0.0, plan)
        expected = {}
        for position, value in enumerate(addresses):
            for __ in range(attempts):
                fate = oracle.query("10.9.8.7", 31000, int_to_ip(value), 53)
                if fate is not None:
                    reason = None if fate == "loss" else fate
                    expected.setdefault(
                        reason, bytearray(len(addresses)))[position] += 1
        assert {reason: column for reason, column in drops
                if any(column)} == expected


class TestResolverFlap:
    def test_square_wave_over_weeks(self):
        week = 7 * 24 * 3600.0
        plan = FaultPlan(FaultProfile(flap_share=1.0, flap_period=4,
                                      flap_duty=0.25), seed=2)
        states = [plan.resolver_offline(12345, w * week) for w in range(12)]
        # Duty 0.25 of period 4 => exactly one offline week per cycle.
        assert sum(states) == 3
        assert states[:4] == states[4:8] == states[8:12]

    def test_share_selects_subset(self):
        week = 7 * 24 * 3600.0
        plan = FaultPlan(FaultProfile(flap_share=0.10, flap_period=2,
                                      flap_duty=0.5), seed=6)
        flappers = sum(
            1 for ip in range(5000)
            if any(plan.resolver_offline(ip, w * week) for w in range(2)))
        assert 350 < flappers < 650

    def test_phases_desynchronise(self):
        week = 7 * 24 * 3600.0
        plan = FaultPlan(FaultProfile(flap_share=1.0, flap_period=4,
                                      flap_duty=0.25), seed=2)
        offline_now = sum(1 for ip in range(2000)
                          if plan.resolver_offline(ip, 0.0))
        # Per-resolver phase: about a quarter offline at any instant, not
        # everyone at once.
        assert 350 < offline_now < 650


class TestWorkerDeath:
    def test_forced_kills_take_priority(self):
        plan = FaultPlan(FaultProfile(kill_shards={1: 2}), seed=0)
        assert plan.worker_dies(1, 0)
        assert plan.worker_dies(1, 1)
        assert not plan.worker_dies(1, 2)
        assert not plan.worker_dies(0, 0)

    def test_death_rate_draw(self):
        plan = FaultPlan(FaultProfile(worker_death_rate=1.0), seed=0)
        assert plan.worker_dies(0, 0)
        quiet = FaultPlan(FaultProfile(), seed=0)
        assert not quiet.worker_dies(0, 0)


class TestResolverFlapIntegration:
    def test_flapping_resolver_goes_silent(self, mini):
        from repro.resolvers import ResolverNode
        resolver = ResolverNode("198.18.9.1",
                                resolution_service=mini.service)
        mini.network.register(resolver)
        mini.builder.register_domain("example.com",
                                     {"example.com": ["198.18.0.1"]})

        from repro.dnswire import Message
        from repro.netsim import UdpPacket

        def ask():
            query = Message.query("example.com", txid=9)
            packet = UdpPacket(mini.client_ip, 1234, "198.18.9.1", 53,
                               query.to_wire())
            return mini.network.send_udp(packet)

        assert ask()  # answers before any plan is installed
        plan = mini.network.install_faults(
            FaultPlan(FaultProfile(flap_share=1.0, flap_period=1,
                                   flap_duty=1.0), seed=1))
        assert plan.resolver_offline(0, mini.clock.now)
        assert ask() == []
        assert mini.network.fault_counters.get("resolver_flap", 0) >= 1


class TestCrashPlane:
    """The checkpoint-boundary crash and torn-write draws."""

    def test_crash_point_canon(self):
        assert FaultPlan.crash_point("week", (3,)) == "week:3"
        assert FaultPlan.crash_point("shard", ("week", 1, "scan", 2)) == \
            "shard:week/1/scan/2"

    def test_forced_crash_fires_at_first_occurrence_only(self):
        plan = FaultPlan(FaultProfile(crash_points=("week:1",)), seed=3)
        assert plan.crashes("week", (1,), occurrence=0)
        assert not plan.crashes("week", (1,), occurrence=1)
        assert not plan.crashes("week", (0,), occurrence=0)

    def test_crash_rate_draw_is_deterministic(self):
        left = FaultPlan(FaultProfile(crash_rate=0.5), seed=42)
        right = FaultPlan(FaultProfile(crash_rate=0.5), seed=42)
        draws = [left.crashes("week", (week,)) for week in range(200)]
        assert draws == [right.crashes("week", (week,))
                         for week in range(200)]
        assert any(draws) and not all(draws)

    def test_forced_torn_write_keyed_by_seq_and_epoch(self):
        plan = FaultPlan(FaultProfile(torn_points=(4,)), seed=3)
        assert plan.torn_write(4, epoch=0)
        assert not plan.torn_write(4, epoch=1)  # already torn once
        assert not plan.torn_write(3, epoch=0)

    def test_none_profile_never_crashes(self):
        plan = FaultPlan("none", seed=3)
        for week in range(100):
            assert not plan.crashes("week", (week,))
            assert not plan.torn_write(week)

    def test_parse_crash_and_torn_tokens(self):
        profile = parse_fault_spec(
            "none,crash=week:3,crash=shard:week/1/scan/2,torn=5")
        assert profile.crash_points == ("week:3", "shard:week/1/scan/2")
        assert profile.torn_points == (5,)
        assert profile.loss_rate == 0.0

    def test_replace_copies_crash_fields(self):
        base = FaultProfile(crash_points=("week:1",))
        derived = base.replace(torn_points=[2, 3], crash_rate=0.25)
        assert derived.crash_points == ("week:1",)
        assert derived.torn_points == (2, 3)
        assert derived.crash_rate == 0.25
        assert base.torn_points == ()

    def test_injected_crash_is_not_swallowed_by_except_exception(self):
        from repro.faults import InjectedCrash
        with pytest.raises(InjectedCrash):
            try:
                raise InjectedCrash("week", "week:0")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("InjectedCrash must not be an Exception")
