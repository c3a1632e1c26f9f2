"""Kill-anywhere resume equivalence for differential campaigns.

Extends :mod:`tests.checkpoint.test_resume_equivalence` to the delta
scanning plane: a campaign crashed at a delta-week boundary or inside a
drift-escalation sweep and resumed in a fresh process must reproduce the
uninterrupted run *byte for byte* — carried-forward rows, audit probes,
drift verdicts, escalation provenance, and the ``carried`` tallies all
replay identically, because the forecast is a pure read, the audit
sample is a pure hash, and the committed world state restores the loss
and flow draws the interrupted incarnation had consumed.
"""

import pickle

import pytest

from repro.checkpoint import CheckpointedRun
from repro.faults import FaultPlan, FaultProfile, InjectedCrash
from repro.inetmodel import ChurnModel, LeasedHost
from repro.netsim.clock import DAY
from repro.perf import PerfRegistry
from repro.resolvers import ResolverNode
from repro.scanner import (DeltaConfig, ScanCampaign, ScanOptions,
                           ScanTargetSpace)
from tests.checkpoint.test_resume_equivalence import \
    assert_campaigns_identical
from tests.conftest import MiniWorld

WEEKS = 4


class SabotagedChurn(ChurnModel):
    """A churn model with scheduled *out-of-model* decommissions.

    ``sabotage[step_index]`` hosts are taken offline when that
    :meth:`step` runs — after the campaign asked :meth:`pending_churn`,
    so the forecast cannot see it coming and only the audit probes can.
    Deterministic per step count, so every resume incarnation rebuilds
    the identical drift.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sabotage = {}
        self.steps_taken = 0

    def step(self):
        for host in self.sabotage.get(self.steps_taken, ()):
            if host.online:
                self.take_offline(host)
        self.steps_taken += 1
        super().step()


def build_delta_world(sabotage_week=None, sabotage_pools=(0,),
                      loss_rate=0.0):
    """Four static /26 pools plus one day-lease pool, optionally with a
    scheduled unmodeled kill of whole static pools at one week."""
    world = MiniWorld(loss_rate=loss_rate)
    world.builder.register_domain("scan.dnsstudy.edu",
                                  wildcard_address="198.18.0.99")
    world.service.wildcard_suffixes = ("scan.dnsstudy.edu",)
    churn = SabotagedChurn(world.network, rdns=world.rdns, seed=5)

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

    static_pools = [world.allocator.allocate(26) for _ in range(4)]
    by_pool = [populate(pool, 8, None) for pool in static_pools]
    dynamic_pool = world.allocator.allocate(26)
    populate(dynamic_pool, 4, DAY)
    if sabotage_week is not None:
        churn.sabotage[sabotage_week] = [
            host for index in sabotage_pools for host in by_pool[index]]
    world.pools = static_pools + [dynamic_pool]
    world.churn = churn
    return world


def make_campaign(world, shards=1, perf=None):
    return ScanCampaign(
        world.network, world.churn, ScanTargetSpace(world.pools),
        world.client_ip, "scan.dnsstudy.edu", perf=perf,
        options=ScanOptions(shards=shards, delta=DeltaConfig(
            audit_fraction=0.9, drift_budget=0.5, window_bits=26)))


def run_clean(build, shards=1):
    world = build()
    perf = PerfRegistry()
    campaign = make_campaign(world, shards=shards, perf=perf)
    campaign.run(WEEKS)
    return campaign, perf, world


def run_until_done(build, directory, plan, shards=1, max_restarts=8):
    meta = {"shards": shards, "weeks": WEEKS, "delta": True}
    crashes = 0
    for attempt in range(max_restarts):
        world = build()
        perf = PerfRegistry()
        campaign = make_campaign(world, shards=shards, perf=perf)
        checkpoint = CheckpointedRun(directory, meta=meta,
                                     resume=attempt > 0, fault_plan=plan)
        try:
            campaign.run(WEEKS, checkpoint=checkpoint)
        except InjectedCrash:
            crashes += 1
            checkpoint.close()
            continue
        checkpoint.close()
        return campaign, perf, world, crashes
    raise AssertionError("campaign did not finish in %d restarts"
                         % max_restarts)


def assert_byte_identical(clean_campaign, resumed_campaign):
    """The delta report contract: not just equal views, equal pickles —
    carried tallies, provenance, and column bytes included."""
    assert len(resumed_campaign.snapshots) == len(clean_campaign.snapshots)
    for mine, theirs in zip(clean_campaign.snapshots,
                            resumed_campaign.snapshots):
        assert pickle.dumps(theirs.result) == pickle.dumps(mine.result)


def week_entry(campaign, week):
    for entry in campaign.snapshots[week].result.provenance:
        if entry.get("kind") == "delta" and entry.get("status") == "ok":
            return entry
    raise AssertionError("week %d has no delta provenance" % week)


class TestDeltaCampaignResume:
    @pytest.mark.parametrize("week", [1, 2])
    def test_crash_at_delta_week_boundary(self, tmp_path, week):
        clean = run_clean(build_delta_world)
        plan = FaultPlan(FaultProfile(crash_points=("week:%d" % week,)),
                         seed=3)
        campaign, perf, world, crashes = run_until_done(
            build_delta_world, str(tmp_path / "ckpt"), plan)
        assert crashes == 1
        # The interrupted weeks really were delta weeks with carried
        # verdicts — the test would be vacuous otherwise.
        entry = week_entry(campaign, week)
        assert entry["mode"] == "delta" and entry["carried"] > 0
        assert_campaigns_identical(clean, (campaign, perf, world))
        assert_byte_identical(clean[0], campaign)

    @pytest.mark.parametrize("origin", [0, 1, 3])
    def test_crash_inside_escalated_window_sweep(self, tmp_path, origin):
        """Sabotage one static pool mid-campaign: week 2's audit drives
        a window escalation, and the crash lands inside the escalated
        sweep itself (the ``delta`` checkpoint scope)."""
        build = lambda: build_delta_world(sabotage_week=2,
                                          sabotage_pools=(0,))
        clean = run_clean(build, shards=4)
        plan = FaultPlan(FaultProfile(
            crash_points=("shard:week/2/delta/%d" % origin,)), seed=3)
        campaign, perf, world, crashes = run_until_done(
            build, str(tmp_path / "ckpt"), plan, shards=4)
        assert crashes == 1
        escalated = [entry for entry
                     in campaign.snapshots[2].result.provenance
                     if entry.get("status") == "delta_escalated"]
        assert escalated, "sabotage did not trigger a window escalation"
        assert_campaigns_identical(clean, (campaign, perf, world))
        assert_byte_identical(clean[0], campaign)

    def test_crash_inside_global_escalation_sweep(self, tmp_path):
        """Sabotage every static pool: the aggregate audit failure share
        blows the budget, week 2 falls back to a full sweep, and the
        crash lands inside that sweep."""
        build = lambda: build_delta_world(sabotage_week=2,
                                          sabotage_pools=(0, 1, 2, 3))
        clean = run_clean(build, shards=4)
        plan = FaultPlan(FaultProfile(
            crash_points=("shard:week/2/scan/2",)), seed=3)
        campaign, perf, world, crashes = run_until_done(
            build, str(tmp_path / "ckpt"), plan, shards=4)
        assert crashes == 1
        fallback = [entry for entry
                    in campaign.snapshots[2].result.provenance
                    if entry.get("status") == "delta_full_sweep"]
        assert fallback, "sabotage did not trigger the global fallback"
        assert_campaigns_identical(clean, (campaign, perf, world))
        assert_byte_identical(clean[0], campaign)

    def test_torn_journal_write_mid_delta_campaign(self, tmp_path):
        clean = run_clean(build_delta_world)
        plan = FaultPlan(FaultProfile(torn_points=(1,)), seed=3)
        campaign, perf, world, crashes = run_until_done(
            build_delta_world, str(tmp_path / "ckpt"), plan)
        assert crashes == 1
        assert_campaigns_identical(clean, (campaign, perf, world))
        assert_byte_identical(clean[0], campaign)

    def test_uninterrupted_checkpointed_delta_matches_clean(self,
                                                            tmp_path):
        clean = run_clean(build_delta_world, shards=4)
        campaign, perf, world, crashes = run_until_done(
            build_delta_world, str(tmp_path / "ckpt"), plan=None,
            shards=4)
        assert crashes == 0
        assert_campaigns_identical(clean, (campaign, perf, world))
        assert_byte_identical(clean[0], campaign)
