"""Chaos determinism: same seed + same fault plan => bit-identical scans.

The acceptance gate for the fault plane: with aggressive injected faults,
forced worker deaths, and retries enabled, the merged scan result must be
identical across reruns and across shard counts — every fault draw is a
pure function of (seed, flow, occurrence), never of scheduling.
"""

import pickle

import pytest

from repro.faults import FaultPlan, parse_fault_spec
from repro.netsim import network as network_module
from repro.scanner.ipv4scan import _sweep_columns
from repro.scenario import ScenarioConfig, build_scenario


SCALE = 60000
SEED = 3


def chaos_scan(shards, spec="aggressive", retries=1):
    """A fresh scenario, a fault plan, one sharded scan."""
    scenario = build_scenario(ScenarioConfig(scale=SCALE, seed=SEED))
    scenario.network.install_faults(
        FaultPlan(parse_fault_spec(spec), seed=SEED))
    campaign = scenario.new_campaign(verify=False, shards=shards,
                                     retries=retries)
    return campaign.run_week().result


def fingerprint(result):
    return (result.counts(), sorted(result.responders),
            sorted(result.divergent_sources),
            {rcode: sorted(ips) for rcode, ips in result.by_rcode.items()},
            result.probes_sent, result.retransmissions)


class TestChaosDeterminism:
    def test_rerun_is_bit_identical(self):
        assert fingerprint(chaos_scan(shards=1)) == \
            fingerprint(chaos_scan(shards=1))

    def test_sharded_identical_to_sequential_under_faults(self):
        sequential = chaos_scan(shards=1)
        sharded = chaos_scan(shards=3)
        assert fingerprint(sharded) == fingerprint(sequential)

    def test_forced_worker_deaths_do_not_change_results(self):
        """A run whose shard-0 workers are killed (recovered via retry)
        produces the identical merged result."""
        clean = chaos_scan(shards=3)
        killed = chaos_scan(shards=3, spec="aggressive,kill=0")
        assert fingerprint(killed) == fingerprint(clean)
        assert killed.degraded_shards
        assert any(entry["status"] == "retried"
                   for entry in killed.provenance)

    def test_sharded_reruns_identical_with_deaths(self):
        left = chaos_scan(shards=3, spec="aggressive,kill=1:2")
        right = chaos_scan(shards=3, spec="aggressive,kill=1:2")
        assert fingerprint(left) == fingerprint(right)
        assert left.provenance == right.provenance

    def test_faults_actually_fire(self):
        scenario = build_scenario(ScenarioConfig(scale=SCALE, seed=SEED))
        plan = scenario.network.install_faults(
            FaultPlan(parse_fault_spec("aggressive"), seed=SEED))
        assert plan.profile.loss_rate > 0
        campaign = scenario.new_campaign(verify=False, shards=2)
        campaign.run_week()
        counters = scenario.network.fault_counters
        assert counters.get("injected_loss", 0) > 0


@pytest.mark.parametrize("shards", [2, 5])
def test_any_shard_count_matches(shards):
    assert fingerprint(chaos_scan(shards=shards,
                                  spec="mild", retries=0)) == \
        fingerprint(chaos_scan(shards=1, spec="mild", retries=0))


def test_prewarm_builds_the_drop_columns_and_no_hot_set(monkeypatch):
    """The parent's pre-fork build memoises the network's drop columns
    for the workers to inherit, and looks up no hot position over the
    node registry: which targets are hot is each scanning process's to
    decide.  The forked scan pickles to the bytes of a twin's whose
    workers build every column themselves."""
    def forked_scan(prewarmed):
        scenario = build_scenario(ScenarioConfig(scale=SCALE, seed=SEED))
        scenario.network.install_faults(
            FaultPlan(parse_fault_spec("aggressive"), seed=SEED))
        campaign = scenario.new_campaign(verify=False, shards=2,
                                         retries=1)
        space = campaign.target_space
        columns = _sweep_columns(space, scenario.blacklist)
        columns.loss_memo.clear()   # the columns are shared process-wide
        if prewarmed:
            campaign.scanner.prewarm(space, space.shard_ranges(2))
            assert columns.loss_memo
        else:
            monkeypatch.setattr(campaign.scanner, "prewarm",
                                lambda target_space, ranges=(): None)
        result = campaign.run_week().result
        assert result.provenance and all(
            entry["mode"] == "worker" for entry in result.provenance)
        return pickle.dumps(result)

    looked_up = []
    positions = network_module.address_positions

    def counted(addresses, addresses_sorted, nodes, ranges):
        looked_up.append(nodes)
        return positions(addresses, addresses_sorted, nodes, ranges)

    monkeypatch.setattr(network_module, "address_positions", counted)
    prewarmed = forked_scan(True)
    # Nothing in this process: the forked workers looked theirs up.
    assert looked_up == []
    assert prewarmed == forked_scan(False)
