"""Forked shards inherit warm lazy nodes.

Before a sharded scan forks, the parent materializes the lazy nodes the
scan may probe into the population's bounded LRU (``Node.warm``), so
each worker inherits them instead of synthesizing its half again.  The
parent sends them nothing: a worker's node starts as a fresh synthesis
would, and the merged weeks equal a one-process campaign's.
"""

import pytest

from repro.faults import FaultPlan, FaultProfile
from repro.netsim.address import ip_to_int
from repro.netsim.defense import install_hostile_population
from repro.resolvers.population import LazyResolverNode
from repro.scenario import ScenarioConfig, build_scenario

SCALE = 60000
SEED = 7
WEEKS = 3


def hostile_campaign(shards, node_cache=8192):
    scenario = build_scenario(ScenarioConfig(
        scale=SCALE, seed=SEED, lazy_population=True,
        node_cache=node_cache))
    network = scenario.network
    network.install_faults(FaultPlan(FaultProfile(loss_rate=0.05),
                                     seed=SEED))
    install_hostile_population(network, scenario.target_space().prefixes,
                               seed=SEED)
    campaign = scenario.new_campaign(verify=False, shards=shards,
                                     retries=1, pacing="adaptive")
    return scenario, campaign


def week_facts(scenario, result):
    return (result.canonical_columns(), result.probes_sent,
            sorted(result.suppressed.items()),
            dict(scenario.network.fault_counters))


def probed_lazy_nodes(scenario, space):
    """LRU keys of the online lazy nodes a scan of ``space`` probes."""
    keys = set()
    for host in scenario.population.hosts:
        node = host.node
        if host.online and isinstance(node, LazyResolverNode) \
                and node._index not in node._pool.pinned \
                and space.index_of(ip_to_int(node.ip)) is not None \
                and node.ip not in scenario.blacklist:
            keys.add((id(node._pool), node._index))
    return keys


def watch_prewarm(monkeypatch, scenario, campaign):
    """After each prewarm: (nodes it synthesized, LRU keys, wanted)."""
    builder = scenario.population
    prewarm = campaign.scanner.prewarm
    seen = []

    def watched(target_space, ranges=()):
        before = builder.synthesis_count
        prewarm(target_space, ranges)
        seen.append((builder.synthesis_count - before,
                     set(builder._node_cache),
                     probed_lazy_nodes(scenario, target_space)))

    monkeypatch.setattr(campaign.scanner, "prewarm", watched)
    return seen


def run_weeks(scenario, campaign):
    return [week_facts(scenario, campaign.run_week().result)
            for __ in range(WEEKS)]


@pytest.fixture(scope="module")
def one_process_weeks():
    return run_weeks(*hostile_campaign(shards=1))


@pytest.mark.parametrize("shards", [2, 4])
def test_forked_weeks_start_from_warm_nodes(monkeypatch, one_process_weeks,
                                             shards):
    scenario, campaign = hostile_campaign(shards=shards)
    seen = watch_prewarm(monkeypatch, scenario, campaign)
    assert run_weeks(scenario, campaign) == one_process_weeks
    assert len(seen) == WEEKS
    limit = scenario.population.node_cache_limit
    for __, cached, wanted in seen:
        assert wanted and wanted <= cached
        assert len(cached) <= limit
    # The first week synthesizes what the scan needs; the second finds
    # every node still warm (no grown node is online before week 3).
    assert seen[0][0] > 0
    assert seen[1][0] == 0


def test_a_small_lru_stays_at_its_bound(monkeypatch, one_process_weeks):
    scenario, campaign = hostile_campaign(shards=2, node_cache=200)
    seen = watch_prewarm(monkeypatch, scenario, campaign)
    assert run_weeks(scenario, campaign) == one_process_weeks
    for __, cached, wanted in seen:
        assert len(wanted) > 200
        assert len(cached) == 200
