"""Kill-anywhere resume equivalence: crash → resume → identical output.

The durability contract of :mod:`repro.checkpoint` is not "resume runs
to completion" but "resume is *indistinguishable*": a campaign or
pipeline killed at any injected crash point and resumed in a fresh
process must produce bit-identical results, traffic counters, clocks,
and provenance compared to a never-interrupted run.  These tests build
the same deterministic world fresh for every process incarnation (as a
real restart would), drive it through forced crash/torn-write draws at
every unit boundary, and compare against an uncheckpointed clean run.
"""

import pytest

from repro.checkpoint import CheckpointedRun
from repro.faults import FaultPlan, FaultProfile, InjectedCrash
from repro.inetmodel import ChurnModel, LeasedHost
from repro.netsim.clock import DAY, WEEK
from repro.perf import PerfRegistry
from repro.resolvers import ResolverNode
from repro.scanner import ScanCampaign, ScanOptions, ScanTargetSpace
from tests.conftest import MiniWorld

WEEKS = 3

# Traffic/processing counters that must match bit-for-bit between a
# clean and a resumed run.  Wall-clock artifacts (timers, heartbeat
# tallies, hang kills) and the checkpoint subsystem's own bookkeeping
# are excluded by name/prefix.
_NONDETERMINISTIC = {"heartbeats_seen", "workers_hung"}
_EXCLUDED_PREFIXES = ("checkpoint_",)


def curated_counters(perf):
    return {name: value for name, value in perf.counters.items()
            if name not in _NONDETERMINISTIC
            and not name.startswith(_EXCLUDED_PREFIXES)}


def scan_fingerprint(result):
    return {
        "counts": result.counts(),
        "responders": sorted(result.responders),
        "divergent": sorted(result.divergent_sources),
        "probes_sent": result.probes_sent,
        "retransmissions": result.retransmissions,
        "provenance": getattr(result, "provenance", []),
    }


def campaign_fingerprint(campaign):
    return [
        {"week": snapshot.week,
         "scan": scan_fingerprint(snapshot.result),
         "verification": (scan_fingerprint(snapshot.verification)
                          if snapshot.verification is not None else None)}
        for snapshot in campaign.snapshots]


# -- campaign world (rebuilt identically per process incarnation) ---------

def build_campaign_world():
    world = MiniWorld()
    world.builder.register_domain("scan.dnsstudy.edu",
                                  wildcard_address="198.18.0.99")
    world.service.wildcard_suffixes = ("scan.dnsstudy.edu",)
    pool = world.allocator.allocate(26)
    churn = ChurnModel(world.network, rdns=world.rdns, seed=5)
    for lease in (None, None, DAY, 2 * WEEK):
        ip = churn.allocate_address(pool)
        node = ResolverNode(ip, resolution_service=world.service)
        world.network.register(node)
        churn.add(LeasedHost(node, pool, lease_duration=lease))
    world.pool = pool
    world.churn = churn
    return world


def make_campaign(world, shards=1, perf=None, verify=False):
    return ScanCampaign(
        world.network, world.churn, ScanTargetSpace([world.pool]),
        world.client_ip, "scan.dnsstudy.edu", perf=perf,
        options=ScanOptions(shards=shards),
        verification_source_ip=(world.infra.address_at(777)
                                if verify else None))


def run_clean_campaign(shards=1, verify=False):
    world = build_campaign_world()
    perf = PerfRegistry()
    campaign = make_campaign(world, shards=shards, perf=perf,
                             verify=verify)
    campaign.run(WEEKS, verify_last=verify)
    return campaign, perf, world


def run_campaign_until_done(directory, plan, shards=1, verify=False,
                            max_restarts=8):
    """Drive a checkpointed campaign through crashes until it finishes,
    rebuilding the world from scratch for every incarnation."""
    meta = {"shards": shards, "weeks": WEEKS}
    crashes = 0
    for attempt in range(max_restarts):
        world = build_campaign_world()
        perf = PerfRegistry()
        campaign = make_campaign(world, shards=shards, perf=perf,
                                 verify=verify)
        checkpoint = CheckpointedRun(directory, meta=meta,
                                     resume=attempt > 0, fault_plan=plan)
        try:
            campaign.run(WEEKS, verify_last=verify,
                         checkpoint=checkpoint)
        except InjectedCrash:
            crashes += 1
            checkpoint.close()
            continue
        provenance = checkpoint.provenance
        checkpoint.close()
        return campaign, perf, world, provenance, crashes
    raise AssertionError("campaign did not finish in %d restarts"
                         % max_restarts)


def assert_campaigns_identical(clean, resumed):
    clean_campaign, clean_perf, clean_world = clean
    resumed_campaign, resumed_perf, resumed_world = resumed
    assert campaign_fingerprint(resumed_campaign) == \
        campaign_fingerprint(clean_campaign)
    assert resumed_world.clock.now == clean_world.clock.now
    for name in ("udp_queries_sent", "udp_queries_lost",
                 "udp_responses_corrupted"):
        assert getattr(resumed_world.network, name) == \
            getattr(clean_world.network, name), name
    assert resumed_world.churn.rebind_count == \
        clean_world.churn.rebind_count
    assert resumed_world.churn.offline_count == \
        clean_world.churn.offline_count
    assert curated_counters(resumed_perf) == curated_counters(clean_perf)


class TestCampaignResume:
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("week", range(WEEKS))
    def test_crash_at_every_week_boundary(self, tmp_path, shards, week):
        clean = run_clean_campaign(shards=shards)
        plan = FaultPlan(FaultProfile(crash_points=("week:%d" % week,)),
                         seed=3)
        campaign, perf, world, provenance, crashes = \
            run_campaign_until_done(str(tmp_path / "ckpt"), plan,
                                    shards=shards)
        assert crashes == 1
        assert provenance["resumed"] is True
        assert provenance["journal_records_replayed"] >= week + 1
        assert provenance["resumed_from_week"] == week + 1 if \
            week + 1 < WEEKS else "resumed_from_week" not in provenance
        assert_campaigns_identical(clean, (campaign, perf, world))

    @pytest.mark.parametrize("origin", [0, 2, 3])
    def test_crash_at_shard_boundaries_mid_week(self, tmp_path, origin):
        clean = run_clean_campaign(shards=4)
        plan = FaultPlan(FaultProfile(
            crash_points=("shard:week/1/scan/%d" % origin,)), seed=3)
        campaign, perf, world, provenance, crashes = \
            run_campaign_until_done(str(tmp_path / "ckpt"), plan, shards=4)
        assert crashes == 1
        # The crash hit mid-week: week 1 itself had to resume.
        assert provenance["resumed_from_week"] == 1
        assert_campaigns_identical(clean, (campaign, perf, world))

    def test_torn_journal_write_mid_campaign(self, tmp_path):
        clean = run_clean_campaign(shards=1)
        # Sequence 1 is week 1's commit record (shards=1: one record per
        # week); tearing it kills the run mid-append.
        plan = FaultPlan(FaultProfile(torn_points=(1,)), seed=3)
        campaign, perf, world, provenance, crashes = \
            run_campaign_until_done(str(tmp_path / "ckpt"), plan, shards=1)
        assert crashes == 1
        assert provenance["journal_records_quarantined"] == 1
        assert_campaigns_identical(clean, (campaign, perf, world))

    def test_multiple_crashes_and_torn_writes(self, tmp_path):
        clean = run_clean_campaign(shards=4)
        plan = FaultPlan(FaultProfile(
            crash_points=("week:0", "shard:week/1/scan/2", "week:2"),
            torn_points=(2,)), seed=3)
        campaign, perf, world, provenance, crashes = \
            run_campaign_until_done(str(tmp_path / "ckpt"), plan, shards=4)
        assert crashes >= 3
        assert_campaigns_identical(clean, (campaign, perf, world))

    def test_verify_last_week_resumes_identically(self, tmp_path):
        # Crash right before the final (verified) week: the resumed run
        # must reproduce both the scan and the verification scan.
        clean = run_clean_campaign(shards=1, verify=True)
        plan = FaultPlan(FaultProfile(crash_points=("week:1",)), seed=3)
        campaign, perf, world, provenance, crashes = \
            run_campaign_until_done(str(tmp_path / "ckpt"), plan,
                                    shards=1, verify=True)
        assert crashes == 1
        assert campaign.last().verification is not None
        assert_campaigns_identical(clean, (campaign, perf, world))

    def test_uninterrupted_checkpointed_run_matches_clean(self, tmp_path):
        clean = run_clean_campaign(shards=4)
        campaign, perf, world, provenance, crashes = \
            run_campaign_until_done(str(tmp_path / "ckpt"), plan=None,
                                    shards=4)
        assert crashes == 0
        assert provenance["resumed"] is False
        assert_campaigns_identical(clean, (campaign, perf, world))
