"""A committed world state holds only what a later unit can read.

A week commit is taken after the campaign advanced the clock a week:
every resolver's cached answer has expired and the flow counters belong
to an epoch the clock has left.  The capture drops both.  A state
written before it did (every cache whole, stale counters kept) still
resumes to the same bytes, because neither can be observed: a test
below writes such states, and the ``84d676a`` fixtures hold real ones
(``test_formats.py``).  So does a state whose resolver caches hold the
records built for each name, as they did before a resolver cached the
result it was given.
"""

import glob
import os
import pickle

import pytest

import repro.checkpoint.run as run_module
from repro.checkpoint import (CheckpointedRun, capture_world_state,
                              restore_world_state)
from repro.dnswire.constants import RCODE_NOERROR
from repro.dnswire.records import ResourceRecord
from repro.faults import FaultPlan, FaultProfile, InjectedCrash
from repro.perf import PerfRegistry
from repro.resolvers import ResolverNode
from repro.resolvers.resolver import HonestResult
from tests.checkpoint.test_delta_resume import (WEEKS, assert_byte_identical,
                                                build_delta_world,
                                                make_campaign, run_clean)
from tests.checkpoint.test_resume_equivalence import \
    assert_campaigns_identical
from tests.conftest import MiniWorld


def lossy_world():
    # Baseline loss makes every probe draw a flow-keyed fate, so the
    # network holds flow counters when a week ends.
    return build_delta_world(loss_rate=0.05)


def incarnation(directory, resume, plan=None):
    """One process lifetime of a checkpointed delta campaign."""
    world = lossy_world()
    perf = PerfRegistry()
    campaign = make_campaign(world, perf=perf)
    checkpoint = CheckpointedRun(directory, resume=resume, fault_plan=plan,
                                 meta={"shards": 1, "weeks": WEEKS,
                                       "delta": True})
    try:
        campaign.run(WEEKS, checkpoint=checkpoint)
    finally:
        checkpoint.close()
    return campaign, perf, world, checkpoint


def week_states(checkpoint):
    return [checkpoint.store.load(("week", week, "state"))
            for week in range(WEEKS)]


def node_keys(state):
    return [key for key in state["dns_caches"] if key[0] == "node"]


def legacy_capture(network, perf=None):
    """The capture as it was before it kept only live state: every
    resolver's cache whole, expired entries included, and the flow
    counters of whatever epoch the network last sent in."""
    caches = {("node", ip): {"entries": dict(node.cache._entries)}
              for ip, node in network._nodes.items()
              if isinstance(node, ResolverNode)}
    flows = dict(network._flow_counts), network._flow_epoch
    state = capture_world_state(network, perf)
    state["dns_caches"].update(caches)
    state["flow_counts"], state["flow_epoch"] = flows
    return state


def test_week_states_carry_no_expired_caches_or_stale_flows(tmp_path):
    campaign, __, ___, checkpoint = incarnation(str(tmp_path), False)
    states = week_states(checkpoint)
    assert [node_keys(state) for state in states] == [[]] * WEEKS
    assert [state["flow_counts"] for state in states] == [{}] * WEEKS
    paths = glob.glob(os.path.join(str(tmp_path), "snapshots",
                                   "*_state.*.snap"))
    assert len(paths) == WEEKS
    assert max(os.path.getsize(path) for path in paths) < 4096
    # The campaign did fill the caches and the counters: there was
    # something to leave out.
    assert campaign.network.udp_queries_lost > 0


def test_an_old_shaped_state_resumes_to_the_same_bytes(tmp_path,
                                                       monkeypatch):
    clean = run_clean(lossy_world)
    directory = str(tmp_path)
    plan = FaultPlan(FaultProfile(crash_points=("week:1",)), seed=3)
    monkeypatch.setattr(run_module, "capture_world_state", legacy_capture)
    with pytest.raises(InjectedCrash):
        incarnation(directory, False, plan)
    monkeypatch.undo()
    campaign, perf, world, checkpoint = incarnation(directory, True, plan)
    assert_campaigns_identical(clean, (campaign, perf, world))
    assert_byte_identical(clean[0], campaign)
    states = week_states(checkpoint)
    # Weeks 0 and 1 were committed the old way, and really do hold
    # expired entries and counters of an epoch the clock has left...
    for state in states[:2]:
        entries = [entry for key in node_keys(state)
                   for entry in state["dns_caches"][key]["entries"]
                   .values()]
        assert entries and all(stored_at + ttl <= state["clock"]
                               for __, stored_at, ttl in entries)
        assert state["flow_counts"]
        assert state["flow_epoch"] < state["clock"]
    # ...and the weeks the resumed run committed hold neither.
    for state in states[2:]:
        assert node_keys(state) == [] and state["flow_counts"] == {}


def test_a_node_cache_the_capture_leaves_out_is_emptied():
    def world():
        mini = MiniWorld()
        node = ResolverNode(mini.infra.address_at(42000),
                            resolution_service=mini.service)
        mini.network.register(node)
        node.cache.put("x.example", 1,
                       HonestResult(RCODE_NOERROR, ["1.2.3.4"], ttl=100),
                       0, 100)
        return mini, node

    committed, expired = world()
    committed.clock.advance(100)
    state = capture_world_state(committed.network)
    assert ("node", expired.ip) not in state["dns_caches"]
    assert len(expired.cache) == 0      # pruned in place
    resumed, warm = world()
    restore_world_state(resumed.network, None, state)
    assert len(warm.cache) == 0
    assert warm.cache.lookup("x.example", 1, now=state["clock"]) is None


def records_world(warm=True):
    """A resolver that has (``warm``) cached a signed name's two
    addresses and its signature, and a wildcard probe name's address."""
    mini = MiniWorld()
    mini.builder.register_domain(
        "signed.example", {"signed.example": ["198.18.0.6", "198.18.0.5"]}
    ).sign_with("zone-key")
    mini.builder.register_domain("scan.example",
                                 wildcard_address="198.18.0.99")
    mini.service.wildcard_suffixes = ("scan.example",)
    node = ResolverNode(mini.infra.address_at(42000),
                        resolution_service=mini.service)
    mini.network.register(node)
    if warm:
        node.resolve_honest("Signed.Example", mini.network)
        node._settled_a("r1.ab12.scan.example", mini.network)
    return mini, node


def as_records(entries):
    """Cache entries as captures wrote them before a resolver cached the
    result it was given: each name's own tuple of records."""
    return {key: (tuple([ResourceRecord.a(key[0], address, ttl=result.ttl)
                         for address in result.addresses]
                        + list(result.extra_records)), stored_at, ttl)
            for key, (result, stored_at, ttl) in entries.items()}


def answers(world, node):
    """What the resolver answers from its cache, 40 s on: every A
    question either way, and what it took to answer them."""
    world.clock.advance(40)
    network = world.network
    honest = [node.resolve_honest(name, network) for name in
              ("signed.example", "R1.AB12.scan.example")]
    return ([(result.rcode, list(result.addresses), result.ttl,
              [(record.name, record.rtype, record.ttl, repr(record.data))
               for record in result.extra_records]) for result in honest],
            [node._settled_a(name, network) for name in
             ("SIGNED.example", "r1.ab12.scan.example")],
            node.service.full_resolutions, network.udp_queries_sent)


def test_a_records_tuple_entry_resumes_as_the_result_it_stands_for():
    uninterrupted, node = records_world()
    state = capture_world_state(uninterrupted.network)
    entries = state["dns_caches"][("node", node.ip)]["entries"]
    assert sorted(key[0] for key in entries) \
        == ["r1.ab12.scan.example", "signed.example"]
    state["dns_caches"][("node", node.ip)]["entries"] = as_records(entries)
    state = pickle.loads(pickle.dumps(state))
    resumed, fresh = records_world(warm=False)
    restore_world_state(resumed.network, None, state)
    restored = fresh.cache.live(resumed.clock.now)
    assert all(isinstance(result, HonestResult)
               for result, __, ___ in restored.values())
    assert [(key, stored_at, ttl) for key, (__, stored_at, ttl)
            in sorted(restored.items())] \
        == [(key, stored_at, ttl) for key, (__, stored_at, ttl)
            in sorted(node.cache.live(uninterrupted.clock.now).items())]
    expected = answers(uninterrupted, node)
    assert answers(resumed, fresh) == expected
    # Both answered from the cache, 40 s into a 300 s TTL.
    assert [ttl for __, rows in expected[1] for __, ttl, ___ in rows] \
        == [260] * 4
