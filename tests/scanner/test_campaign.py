"""Tests for the weekly scan campaign runner."""

import pytest

from repro.inetmodel import ChurnModel, LeasedHost, PrefixAllocator
from repro.netsim.clock import DAY, WEEK
from repro.resolvers import ResolverNode
from repro.scanner import ScanCampaign, ScanTargetSpace
from repro.scenario import ScenarioConfig, build_scenario


@pytest.fixture
def world(mini):
    mini.builder.register_domain("scan.dnsstudy.edu",
                                 wildcard_address="198.18.0.99")
    mini.service.wildcard_suffixes = ("scan.dnsstudy.edu",)
    pool = mini.allocator.allocate(26)
    churn = ChurnModel(mini.network, rdns=mini.rdns, seed=5)
    for index, lease in enumerate((None, None, DAY, 2 * WEEK)):
        ip = churn.allocate_address(pool)
        node = ResolverNode(ip, resolution_service=mini.service)
        mini.network.register(node)
        churn.add(LeasedHost(node, pool, lease_duration=lease))
    mini.pool = pool
    mini.churn = churn
    return mini


def make_campaign(world, verify=False):
    return ScanCampaign(
        world.network, world.churn, ScanTargetSpace([world.pool]),
        world.client_ip, "scan.dnsstudy.edu",
        verification_source_ip=(world.infra.address_at(777)
                                if verify else None))


class TestCampaign:
    def test_weekly_snapshots(self, world):
        campaign = make_campaign(world)
        campaign.run(3)
        assert len(campaign.snapshots) == 3
        assert [snapshot.week for snapshot in campaign.snapshots] == \
            [0, 1, 2]
        assert campaign.first() is campaign.snapshots[0]
        assert campaign.last() is campaign.snapshots[-1]

    def test_clock_advances_per_week(self, world):
        campaign = make_campaign(world)
        start = world.clock.now
        campaign.run(2)
        assert world.clock.now - start == 2 * WEEK

    def test_churn_applied_between_weeks(self, world):
        campaign = make_campaign(world)
        campaign.run(4)
        # The day-lease host must have changed address at least once:
        # its original address disappears from a later scan.
        first_responders = campaign.first().result.responders
        assert len(first_responders) == 4
        later = campaign.snapshots[-1].result.responders
        assert later != first_responders or world.churn.rebind_count > 0

    def test_verification_scan_only_when_requested(self, world):
        campaign = make_campaign(world, verify=True)
        campaign.run(2, verify_last=True)
        assert campaign.snapshots[0].verification is None
        assert campaign.snapshots[1].verification is not None

    def test_no_verifier_configured(self, world):
        campaign = make_campaign(world, verify=False)
        campaign.run(1, verify_last=True)
        assert campaign.snapshots[0].verification is None

    def test_results_stay_stable_for_static_hosts(self, world):
        campaign = make_campaign(world)
        campaign.run(5)
        static_ips = {host.node.ip for host in world.churn.hosts()
                      if not host.dynamic}
        for snapshot in campaign.snapshots:
            assert static_ips <= snapshot.result.responders


class TestCampaignErrors:
    def test_first_raises_before_any_week(self, world):
        from repro.scanner import CampaignError
        campaign = make_campaign(world)
        with pytest.raises(CampaignError) as error:
            campaign.first()
        assert "run at least one week" in str(error.value)

    def test_last_raises_before_any_week(self, world):
        from repro.scanner import CampaignError
        campaign = make_campaign(world)
        with pytest.raises(CampaignError):
            campaign.last()

    def test_campaign_error_is_a_runtime_error(self):
        from repro.scanner import CampaignError
        assert issubclass(CampaignError, RuntimeError)


class TestVerifyLast:
    def test_only_final_week_carries_verification(self, world):
        campaign = make_campaign(world, verify=True)
        campaign.run(3, verify_last=True)
        assert [snapshot.verification is None
                for snapshot in campaign.snapshots] == [True, True, False]

    def test_verification_scan_sees_the_same_responders(self, world):
        campaign = make_campaign(world, verify=True)
        campaign.run(2, verify_last=True)
        verification = campaign.last().verification
        assert verification.responders == campaign.last().result.responders


def test_resolver_caches_stay_flat_across_weeks():
    """Every probe asks a unique name, each expired a week later: the
    caches of the world hold at most twice one week's answers (plus a
    little), however many weeks run — not every week's."""
    scenario = build_scenario(ScenarioConfig(scale=40000, seed=7,
                                             loss_rate=0.0))
    campaign = scenario.new_campaign(verify=False)
    nodes = scenario.network._nodes
    stored_most = 0
    for __ in range(8):
        scanned_at = scenario.network.clock.now
        campaign.run_week()
        caches = [node.cache._entries for node in nodes.values()
                  if node.cache is not None]
        stored = sum(entry[1] == scanned_at for entries in caches
                     for entry in entries.values())
        stored_most = max(stored_most, stored)
        assert stored > 100
        assert sum(map(len, caches)) <= 2 * stored_most + 64
