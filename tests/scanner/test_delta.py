"""Differential campaigns: carry-forward, audit probes, drift fallback.

Covers the delta-scanning plane (:mod:`repro.scanner.delta`): the churn
forecast, the week schedule (baseline / delta / scheduled and closing
full sweeps), carried-verdict provenance and pickle byte-stability, the
seeded audit sampler's shard invariance, and the escalation ladder —
window sweeps on local drift, a campaign-wide full sweep on global
drift — all reported, never silent.
"""

import pickle

import pytest

from repro.faults import FaultPlan, FaultProfile
from repro.inetmodel import ChurnModel, LeasedHost
from repro.netsim.address import int_to_ip
from repro.netsim.clock import DAY, WEEK
from repro.obs import FlightRecorder
from repro.resolvers import ResolverNode
from repro.scanner import (DeltaConfig, ScanCampaign, ScanOptions,
                           ScanResult, ScanTargetSpace, normalize_delta)
from repro.scanner.delta import (CAUSE_CARRIED, CAUSE_DRIFT,
                                 CAUSE_FULL_SWEEP, CAUSE_GLOBAL_DRIFT,
                                 audit_sample, delta_summary)
from tests.conftest import MiniWorld


def build_delta_world(static_hosts=6, dynamic_hosts=4, pools=1, seed=5):
    """A MiniWorld with ``pools`` static /26 pools plus one dynamic one.

    Static hosts have no lease (never rebind — carriable); dynamic
    hosts run day leases, so their pool has churn events due every
    weekly step.
    """
    world = MiniWorld()
    world.builder.register_domain("scan.dnsstudy.edu",
                                  wildcard_address="198.18.0.99")
    world.service.wildcard_suffixes = ("scan.dnsstudy.edu",)
    churn = ChurnModel(world.network, rdns=world.rdns, seed=seed)

    def populate(pool, count, lease):
        hosts = []
        for _ in range(count):
            ip = churn.allocate_address(pool)
            node = ResolverNode(ip, resolution_service=world.service)
            world.network.register(node)
            host = LeasedHost(node, pool, lease_duration=lease)
            churn.add(host)
            hosts.append(host)
        return hosts

    world.static_pools = [world.allocator.allocate(26)
                          for _ in range(pools)]
    world.static_hosts = []
    for pool in world.static_pools:
        world.static_hosts.extend(populate(pool, static_hosts, None))
    world.dynamic_pool = world.allocator.allocate(26)
    world.dynamic_hosts = populate(world.dynamic_pool, dynamic_hosts, DAY)
    world.churn = churn
    return world


def make_campaign(world, delta, shards=1, perf=None, retries=0):
    return ScanCampaign(
        world.network, world.churn,
        ScanTargetSpace(world.static_pools + [world.dynamic_pool]),
        world.client_ip, "scan.dnsstudy.edu", perf=perf,
        options=ScanOptions(shards=shards, delta=delta, retries=retries))


# Every /26 pool is its own drift window, so escalation stays local to
# the pool whose hosts actually drifted.
def config(**kwargs):
    kwargs.setdefault("window_bits", 26)
    return DeltaConfig(**kwargs)


def delta_entries(result):
    return [entry for entry in result.provenance
            if entry.get("kind") == "delta"
            or entry.get("status", "ok") != "ok"]


def fingerprint(result):
    return (result.counts(), sorted(result.responders),
            sorted(result.divergent_sources), result.probes_sent,
            sorted(result.carried.items()),
            sorted(result.suppressed.items()),
            [tuple(sorted(e.items())) for e in delta_entries(result)])


class TestChurnForecast:
    def test_pending_churn_flags_dynamic_pool_only(self):
        world = build_delta_world()
        world.clock.advance(WEEK)
        pending = world.churn.pending_churn()
        assert pending == {world.dynamic_pool.cidr: len(world.dynamic_hosts)}

    def test_pending_churn_is_empty_before_any_lease_expires(self):
        world = build_delta_world()
        assert world.churn.pending_churn() == {}

    def test_pending_churn_sees_decommissions_and_arrivals(self):
        world = build_delta_world(static_hosts=2, dynamic_hosts=0)
        pool = world.static_pools[0]
        world.static_hosts[0].offline_after = WEEK
        offline = world.static_hosts[1]
        offline.online = False
        offline.online_after = WEEK
        world.clock.advance(WEEK)
        assert world.churn.pending_churn() == {pool.cidr: 2}

    def test_pending_churn_does_not_draw_rng_or_mutate(self):
        world = build_delta_world()
        state = world.churn._rng.getstate()
        world.clock.advance(WEEK)
        world.churn.pending_churn()
        world.churn.pending_churn(horizon=WEEK)
        assert world.churn._rng.getstate() == state
        assert world.churn.rebind_count == 0

    def test_pending_churn_on_empty_model_is_pure_nothing(self):
        # A model with no hosts at all: the forecast is {} at any
        # horizon and still consumes no RNG state.
        world = MiniWorld()
        churn = ChurnModel(world.network, rdns=world.rdns, seed=5)
        state = churn._rng.getstate()
        assert churn.pending_churn() == {}
        assert churn.pending_churn(horizon=52 * WEEK) == {}
        assert churn._rng.getstate() == state

    def test_pending_churn_week_zero_horizon_boundary(self):
        # At clock 0 nothing has expired (leases are jitter-stretched
        # past DAY), so a zero horizon flags nothing.  The deadline
        # comparison is inclusive: a horizon landing exactly on the
        # earliest lease expiry flags that one host, one just short of
        # it still flags nothing, and one at the latest expiry flags
        # the whole dynamic pool.  Either way the RNG is untouched.
        world = build_delta_world()
        state = world.churn._rng.getstate()
        expiries = sorted(host.expires_at for host in world.dynamic_hosts)
        assert expiries[0] >= DAY
        assert world.churn.pending_churn(horizon=0.0) == {}
        assert world.churn.pending_churn(horizon=expiries[0] - 1) == {}
        assert world.churn.pending_churn(horizon=expiries[0]) == {
            world.dynamic_pool.cidr: 1}
        assert world.churn.pending_churn(horizon=expiries[-1]) == {
            world.dynamic_pool.cidr: len(world.dynamic_hosts)}
        assert world.churn._rng.getstate() == state

    def test_pending_churn_all_members_flagged(self):
        # Every host of a static pool decommissions inside the horizon:
        # the forecast counts the pool's entire population, and asking
        # repeatedly neither mutates hosts nor draws RNG.
        world = build_delta_world(static_hosts=5, dynamic_hosts=0)
        pool = world.static_pools[0]
        for host in world.static_hosts:
            host.offline_after = WEEK
        state = world.churn._rng.getstate()
        world.clock.advance(WEEK)
        forecast = world.churn.pending_churn()
        assert forecast == {pool.cidr: len(world.static_hosts)}
        assert world.churn.pending_churn() == forecast
        assert world.churn._rng.getstate() == state
        assert all(host.online for host in world.static_hosts)


class TestWeekSchedule:
    def test_schedule_full_delta_and_closing_weeks(self):
        world = build_delta_world()
        campaign = make_campaign(world, config(full_sweep_every=3))
        campaign.run(5)
        modes = []
        for snapshot in campaign.snapshots:
            entry = delta_entries(snapshot.result)[0]
            modes.append(entry["mode"])
        # Week 0 baseline, 1-2 delta, 3 scheduled, 4 closing full sweep.
        assert modes == ["full", "delta", "delta", "full", "full"]
        for week in (0, 3, 4):
            entry = delta_entries(campaign.snapshots[week].result)[0]
            assert entry["cause"] == CAUSE_FULL_SWEEP

    def test_delta_off_keeps_results_byte_identical(self):
        plain = make_campaign(build_delta_world(), None)
        plain.run(3)
        again = make_campaign(build_delta_world(), None)
        again.run(3)
        for mine, theirs in zip(plain.snapshots, again.snapshots):
            assert pickle.dumps(mine.result) == pickle.dumps(theirs.result)
            assert not delta_entries(mine.result)

    def test_delta_week_cuts_probe_volume(self):
        world = build_delta_world(static_hosts=20, dynamic_hosts=4)
        campaign = make_campaign(world, config())
        campaign.run(4)
        full = campaign.snapshots[0].result.probes_sent
        # Weeks 1-2 are delta weeks; week 3 is the closing full sweep.
        for snapshot in campaign.snapshots[1:3]:
            assert snapshot.result.probes_sent * 5 <= full


class TestCarriedProvenance:
    def test_carried_rows_flagged_and_tallied(self):
        world = build_delta_world()
        campaign = make_campaign(world, config(audit_fraction=0.01))
        campaign.run(3)
        result = campaign.snapshots[1].result
        assert result.carried_targets > 0
        assert all(cause == CAUSE_CARRIED
                   for (_, cause) in result.carried)
        carried_rows = [row for row in result.iter_rows()
                        if row[2] & ScanResult.FLAG_CARRIED]
        assert len(carried_rows) == result.carried_targets
        for value, _, _ in carried_rows:
            assert any(prefix.contains_int(value)
                       for prefix in world.static_pools)
            # Carried verdicts still answer the historical set API.
            assert int_to_ip(value) in result.responders

    def test_carried_flag_does_not_leak_into_divergent_view(self):
        result = ScanResult(0.0)
        result.record_carried(0x0A000001, 0, 0, 0x0A000000, CAUSE_CARRIED)
        result.record_carried(0x0A000002, 0, ScanResult.FLAG_DIVERGENT,
                              0x0A000000, CAUSE_CARRIED)
        assert result.divergent_sources == {"10.0.0.2"}
        assert result.responders == {"10.0.0.1", "10.0.0.2"}

    def test_carried_pickles_canonically_and_merges(self):
        left = ScanResult(0.0)
        left.record_carried(1, 0, 0, 0, CAUSE_CARRIED)
        right = ScanResult(0.0)
        right.record_carried(1, 0, 0, 0, CAUSE_CARRIED)
        right.record_carried(2, 5, 0, 0, CAUSE_CARRIED)
        left.merge(right)
        assert left.carried == {(0, CAUSE_CARRIED): 3}
        restored = pickle.loads(pickle.dumps(left))
        assert restored.carried == left.carried
        assert restored.carried_targets == 3

    def test_empty_carried_keeps_historical_pickle_bytes(self):
        plain = ScanResult(1.0)
        plain.record_value(7, 0, False)
        assert "carried" not in plain.__getstate__()
        toured = ScanResult(1.0)
        toured.record_carried(7, 0, 0, 0, CAUSE_CARRIED)
        toured.carried.clear()
        toured._flags[0] = 0
        assert pickle.dumps(toured) == pickle.dumps(plain)


class TestAuditSampler:
    def test_sample_is_order_and_chunk_invariant(self):
        values = list(range(1000, 4000, 7))
        whole = audit_sample(0xDEAD, 42, values, 0.25)
        reversed_ = audit_sample(0xDEAD, 42, list(reversed(values)), 0.25)
        halves = (audit_sample(0xDEAD, 42, values[:200], 0.25)
                  | audit_sample(0xDEAD, 42, values[200:], 0.25))
        assert whole == reversed_ == halves
        assert 0 < len(whole) < len(values)

    def test_sample_varies_by_epoch_and_identity(self):
        values = list(range(5000))
        assert audit_sample(1, 1, values, 0.2) \
            != audit_sample(1, 2, values, 0.2)
        assert audit_sample(1, 1, values, 0.2) \
            != audit_sample(2, 1, values, 0.2)

    def test_full_fraction_audits_everything(self):
        values = [3, 5, 8]
        assert audit_sample(9, 9, values, 1.0) == set(values)

    @pytest.mark.parametrize("shards", [4])
    def test_delta_campaign_shard_invariant(self, shards):
        """Satellite: the audited set — and with it the whole delta
        week — must be identical at --shards 1 and 4."""
        sequential = make_campaign(build_delta_world(), config())
        sequential.run(4)
        sharded = make_campaign(build_delta_world(), config(),
                                shards=shards)
        sharded.run(4)
        for mine, theirs in zip(sequential.snapshots, sharded.snapshots):
            # Full-sweep weeks legitimately differ in engine work-item
            # logs (one entry per shard); everything measured must not.
            assert fingerprint(mine.result) == fingerprint(theirs.result)
            mode = delta_entries(mine.result)[0]["mode"]
            if mode == "delta":
                assert pickle.dumps(mine.result) == \
                    pickle.dumps(theirs.result)


class TestDriftEscalation:
    def test_window_drift_escalates_locally(self):
        # Four static pools, one spiked: its windows fail ~100% of
        # audits (over the 0.5 budget) while the aggregate share stays
        # ~25% (under it) — so the ladder stops at the window rung.
        world = build_delta_world(static_hosts=8, pools=4)
        campaign = make_campaign(world, config(audit_fraction=0.9,
                                               drift_budget=0.5))
        campaign.run(2)
        # Out-of-model spike: silently decommission one static pool's
        # hosts.  The forecast cannot see it; the audit probes must.
        spiked_pool = world.static_pools[0]
        for host in world.static_hosts:
            if host.pool is spiked_pool and host.online:
                world.churn.take_offline(host)
        snapshot = campaign.run_week()
        result = snapshot.result
        escalations = [entry for entry in result.provenance
                       if entry.get("status") == "delta_escalated"]
        assert escalations and all(
            entry["cause"] == CAUSE_DRIFT for entry in escalations)
        assert escalations[0]["window"] == spiked_pool.address_at(0)
        # No stale carried verdicts survive in the spiked pool...
        for value, _, flags in result.iter_rows():
            if spiked_pool.contains_int(value):
                assert not flags & ScanResult.FLAG_CARRIED
        # ...while the healthy pool still carries, and the degradation
        # is surfaced, not silent.
        assert any(world.static_pools[1].contains_int(window)
                   for (window, _) in result.carried)
        assert any(entry["status"] == "delta_escalated"
                   for entry in result.degraded_shards)

    def test_global_drift_falls_back_to_full_sweep(self):
        world = build_delta_world(static_hosts=8, pools=2)
        campaign = make_campaign(world, config(audit_fraction=0.9))
        campaign.run(2)
        for host in world.static_hosts:
            if host.online:
                world.churn.take_offline(host)
        snapshot = campaign.run_week()
        result = snapshot.result
        assert result.carried_targets == 0
        fallback = [entry for entry in result.provenance
                    if entry.get("status") == "delta_full_sweep"]
        assert fallback and fallback[0]["cause"] == CAUSE_GLOBAL_DRIFT
        # The sweep measured reality: no dead static host answers.
        for host in world.static_hosts:
            assert host.node.ip not in result.responders
        summary = delta_summary(campaign.snapshots)
        assert summary["global_escalations"] == 1

    def test_single_audit_failure_does_not_escalate(self):
        """One lost audit probe must not trigger a sweep: escalation
        needs min_audit_failures actual failures."""
        world = build_delta_world(static_hosts=8, pools=1)
        campaign = make_campaign(world, config(audit_fraction=1.0))
        campaign.run(2)
        victims = [host for host in world.static_hosts if host.online]
        world.churn.take_offline(victims[0])
        result = campaign.run_week().result
        assert not [entry for entry in result.provenance
                    if entry.get("status", "ok") != "ok"]


class TestAuditRetries:
    """Audit and refresh probes follow the scanner's attempt schedule:
    one lost datagram is not an audit failure under ``--retries``."""

    def audit_week(self, retries):
        world = build_delta_world(static_hosts=30, dynamic_hosts=4)
        # Sees the scanner's own datagrams on the wire, apart from the
        # resolvers' upstream traffic.
        recorder = world.network.recorder = FlightRecorder()
        # Budget and failure floor out of reach: the week stays a delta
        # week however many audits fail, so the two runs compare.
        campaign = make_campaign(
            world, config(audit_fraction=1.0, drift_budget=0.99,
                          min_audit_failures=1000), retries=retries)
        campaign.run_week()
        world.network.install_faults(FaultPlan(
            FaultProfile(loss_rate=0.30), seed=4))
        result = campaign.run_week().result
        summary = [entry for entry in result.provenance
                   if entry.get("kind") == "delta"][0]
        assert summary["mode"] == "delta"
        probes = [event for event in recorder.events
                  if event[:3] == (result.timestamp, "sent",
                                   world.client_ip)]
        return summary, result, probes

    def test_retries_turn_lost_audits_back_into_verdicts(self):
        single, __, __ = self.audit_week(retries=0)
        robust, result, __ = self.audit_week(retries=2)
        assert single["audited"] == robust["audited"] > 0
        assert robust["audit_failures"] < single["audit_failures"]
        assert result.retransmissions > 0

    @pytest.mark.parametrize("retries", [0, 2])
    def test_every_datagram_is_accounted(self, retries):
        summary, result, probes = self.audit_week(retries)
        assert result.probes_sent == len(probes)
        targets = summary["audited"] + summary["refreshed"]
        assert result.retransmissions == len(probes) - targets
        if not retries:
            assert result.retransmissions == 0


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"audit_fraction": 0.0},
        {"audit_fraction": 1.5},
        {"drift_budget": 0.0},
        {"drift_budget": 1.0},
        {"full_sweep_every": 0},
        {"min_audit_failures": 0},
        {"window_bits": 0},
        {"window_bits": 33},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DeltaConfig(**kwargs)

    def test_normalize_delta_spellings(self):
        assert normalize_delta(None) is None
        assert normalize_delta(False) is None
        assert normalize_delta("off") is None
        assert isinstance(normalize_delta(True), DeltaConfig)
        assert isinstance(normalize_delta("on"), DeltaConfig)
        ready = DeltaConfig(audit_fraction=0.2)
        assert normalize_delta(ready) is ready
        overridden = normalize_delta(ready, full_sweep_every=7)
        assert overridden.full_sweep_every == 7
        assert overridden.audit_fraction == 0.2
        with pytest.raises(ValueError):
            normalize_delta("sometimes")
