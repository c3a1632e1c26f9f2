"""Lazy materialization is order-independent.

The lazy population keeps only a 64-bit derivation seed per node;
:meth:`LazyPool.synthesize` replays the eager builder's draw sequence
from that seed, so the node that materializes must be a pure function
of ``(seed, pool, index)`` — no matter when it materializes, in what
order, or how many times the LRU evicted and rebuilt it in between.
These tests drive materialization forward, backward, and in a seeded
random-sample order (with a cache small enough to force constant
eviction) and require bit-identical node state, then require the scan
itself — the ultimate consumer — to produce byte-identical pickled
results across lazy/eager worlds at shard counts 1 and 4.
"""

import pickle
import random

import pytest

from repro.netsim.address import int_to_ip
from repro.netsim.clock import WEEK
from repro.resolvers.population import LazyResolverNode
from repro.resolvers.resolver import ResolverNode
from repro.resolvers.software import STYLE_ERROR, STYLE_HIDDEN
from repro.scenario import ScenarioConfig, build_scenario

SCALE = 120000          # a few hundred pool members: fast, full variety


def _scenario(lazy, node_cache=8192, seed=3):
    return build_scenario(ScenarioConfig(
        scale=SCALE, seed=seed, lazy_population=lazy,
        node_cache=node_cache))


def _chaos_draws(node):
    """The first three draws of the node's CHAOS RNG, read from a copy
    so that fingerprinting draws nothing."""
    copy = random.Random()
    copy.setstate(node._hidden_rng.getstate())
    return tuple(copy.random() for __ in range(3))


def _fingerprint(node):
    """Bit-stable digest of everything a node's behavior depends on."""
    activity = node.activity
    return (
        node.ip,
        node.response_mode,
        node.chaos_style,
        repr(node.software),
        node.forward_to,
        node.answer_source_ip,
        node.gfw_immune,
        node.recursion_available,
        tuple(sorted(type(b).__name__ for b in node.behaviors)),
        type(node.device).__name__ if node.device else None,
        repr(node.device_page),
        tuple(sorted(
            (key, repr(value)) for key, value in vars(activity).items()))
        if activity else None,
        _chaos_draws(node),
    )


def _placeholders(scenario):
    nodes = [node for node in scenario.population.resolvers
             if isinstance(node, LazyResolverNode)]
    assert len(nodes) > 100
    return nodes


def _materialize(scenario, order):
    """ip -> fingerprint for every placeholder, touched in ``order``."""
    nodes = _placeholders(scenario)
    prints = {}
    for index in order(len(nodes)):
        node = nodes[index]
        prints[node.ip] = _fingerprint(node._real())
    return prints


def _forward(n):
    return range(n)


def _backward(n):
    return range(n - 1, -1, -1)


def _sampled(n):
    # A random *sample with replacement*: some nodes materialize many
    # times (cache hits and LRU rebuilds), interleaved arbitrarily,
    # before the final full sweep guarantees total coverage.
    rng = random.Random(97)
    return [rng.randrange(n) for __ in range(3 * n)] + list(range(n))


class TestMaterializationOrder:
    def test_forward_backward_sampled_identical(self):
        # node_cache=17 forces hundreds of evictions + rebuilds in
        # every traversal; the derived state must not care.
        reference = _materialize(_scenario(True, node_cache=17), _forward)
        assert _materialize(_scenario(True, node_cache=17),
                            _backward) == reference
        assert _materialize(_scenario(True, node_cache=17),
                            _sampled) == reference

    def test_rematerialization_after_eviction_is_identical(self):
        scenario = _scenario(True, node_cache=17)
        nodes = _placeholders(scenario)
        first = _fingerprint(nodes[0]._real())
        for node in nodes:          # evict node 0 many times over
            node._real()
        assert _fingerprint(nodes[0]._real()) == first

    def test_lazy_matches_eager_node_state(self):
        lazy = _materialize(_scenario(True), _forward)
        eager = {}
        for node in _scenario(False).population.resolvers:
            if node.ip in lazy:
                eager[node.ip] = _fingerprint(node)
        assert eager == lazy


def _chaos_answers(node):
    """Three CHAOS answers, as (rcode, record texts)."""
    answers = []
    for __ in range(3):
        rcode, __, records = node._chaos_response("version.bind")
        answers.append((rcode, [record.data for record in records]))
    return answers


def _born_at(node, birth_ip):
    """The answers of a node with ``node``'s CHAOS style, built at
    ``birth_ip`` and never moved: what the node must answer."""
    return _chaos_answers(ResolverNode(birth_ip, software=node.software,
                                       chaos_style=node.chaos_style))


def _drawing(node):
    return node.chaos_style in (STYLE_ERROR, STYLE_HIDDEN)


class TestChaosRngFollowsBirthAddress:
    """A node's CHAOS RNG is made on first use from the address the
    node was born at: churn moving the node, or the LRU evicting and
    rebuilding it, must not reseed it from the current address."""

    def test_after_churn_rebind(self):
        scenario = _scenario(False)
        births = {id(node): node.ip
                  for node in scenario.population.resolvers}
        scenario.clock.advance(WEEK)
        scenario.churn.step()
        moved = [node for node in scenario.population.resolvers
                 if node.ip != births[id(node)] and _drawing(node)]
        assert len(moved) > 20
        for node in moved:
            birth = births[id(node)]
            seeded = random.Random(birth)
            assert _chaos_draws(node) == _chaos_draws(
                ResolverNode(birth)) == tuple(
                    seeded.random() for __ in range(3))
            assert _chaos_answers(node) == _born_at(node, birth)

    def test_after_eviction_and_rematerialization(self):
        scenario = _scenario(True, node_cache=17)
        scenario.clock.advance(WEEK)
        scenario.churn.step()
        nodes = _placeholders(scenario)
        checked = 0
        for placeholder in nodes:
            pool, index = placeholder._pool, placeholder._index
            birth = int_to_ip(pool.ips[index])
            real = placeholder._real()
            if placeholder.ip == birth or not _drawing(real) \
                    or index in pool.pinned:
                continue
            first = _chaos_answers(real)
            assert first == _born_at(real, birth)
            for other in nodes[:40]:    # evict it
                other._real()
            again = placeholder._real()
            assert again is not real
            assert again.ip == placeholder.ip != birth
            assert _chaos_answers(again) == first
            checked += 1
        assert checked > 20


class TestScanFingerprint:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_lazy_streamed_matches_eager_resident(self, shards):
        def run(lazy, stream):
            scenario = _scenario(lazy)
            campaign = scenario.new_campaign(
                verify=False, shards=shards, stream_results=stream,
                chunk_rows=64)
            return pickle.dumps(campaign.run_week().result)

        reference = run(lazy=False, stream=False)
        assert run(lazy=True, stream=False) == reference
        assert run(lazy=True, stream=True) == reference
