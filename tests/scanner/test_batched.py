"""Equivalence tests for the batched (columnar) scan sweep.

The bulk path must be a pure optimisation: identical results, identical
network counters, identical serialized bytes — against the per-probe
reference path, under loss, and with middleboxes on the path.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnswire import Message
from repro.dnswire.wire import peek_query
from repro.netsim.defense import (ReactiveBlocklister, Tarpit,
                                  TokenBucketRateLimiter)
from repro.netsim.gfw import GreatFirewall
from repro.netsim.middlebox import (DnsIngressFilter, Middlebox,
                                    ScannerBlocker)
from repro.resolvers import ResolverNode
from repro.scanner import Ipv4Scanner, ScanOptions, ScanTargetSpace
from repro.scanner.encoding import ProbeBatchEncoder
from repro.scanner.ipv4scan import ScanResult
from tests.conftest import MiniWorld

MEASUREMENT_DOMAIN = "scan.dnsstudy.edu"


def build_world(loss_rate=0.0):
    """A fresh, deterministic scan world.

    Counter-equality tests need two *independent* worlds: back-to-back
    scans of one world are confounded by resolver caches (the second
    scan's resolvers answer without querying upstream).
    """
    mini = MiniWorld(loss_rate=loss_rate)
    mini.builder.register_domain(MEASUREMENT_DOMAIN,
                                 wildcard_address="198.18.0.99")
    mini.service.wildcard_suffixes = (MEASUREMENT_DOMAIN,)
    pool = mini.allocator.allocate(24)
    for offset in (1, 2, 7):
        mini.network.register(ResolverNode(
            pool.address_at(offset), resolution_service=mini.service))
    mini.pool = pool
    mini.space = ScanTargetSpace([pool])
    return mini


@pytest.fixture
def world():
    return build_world()


def make_scanner(world, **knobs):
    return Ipv4Scanner(world.network, world.client_ip, MEASUREMENT_DOMAIN,
                       options=ScanOptions(**knobs))


def force_per_probe(world, monkeypatch):
    """Make the network unable to enumerate middlebox interest, so it
    declines bulk settlement and the sweep plan is all-hot: every probe
    takes the per-packet wire path."""
    monkeypatch.setattr(world.network, "scan_interest",
                        lambda *args, **kwargs: None)


def snapshot(result):
    return (result.counts(), result.responders, result.by_rcode,
            result.divergent_sources, result.probes_sent)


class TestBatchedEquivalence:
    """The bulk sweep plan vs the all-hot plan (every probe on the
    wire)."""

    def test_matches_per_probe_results_and_counters(self, monkeypatch):
        # Two independently built (identical) worlds: raw network
        # counters are comparable only when neither run warms the
        # other's resolver caches.
        fast_world = build_world()
        batched = make_scanner(fast_world).scan(fast_world.space)
        batched_sent = fast_world.network.udp_queries_sent

        ref_world = build_world()
        force_per_probe(ref_world, monkeypatch)
        reference = make_scanner(ref_world).scan(ref_world.space)
        reference_sent = ref_world.network.udp_queries_sent

        assert snapshot(batched) == snapshot(reference)
        assert batched_sent == reference_sent
        assert fast_world.pool.address_at(7) in batched.responders

    def test_matches_per_probe_under_loss(self, monkeypatch):
        fast_world = build_world(loss_rate=0.2)
        batched = make_scanner(fast_world).scan(fast_world.space)

        ref_world = build_world(loss_rate=0.2)
        force_per_probe(ref_world, monkeypatch)
        reference = make_scanner(ref_world).scan(ref_world.space)

        assert batched.counts() == reference.counts()
        assert batched.responders == reference.responders
        assert batched.probes_sent == reference.probes_sent
        assert fast_world.network.udp_queries_lost == \
            ref_world.network.udp_queries_lost
        assert fast_world.network.udp_queries_lost > 0

    def test_matches_per_probe_with_hot_middlebox(self, monkeypatch):
        # An active ingress filter makes its whole prefix "hot": those
        # probes take the full wire path and get dropped; the rest of
        # the space still bulk-settles.  Results must match the
        # reference exactly.
        fast_world = build_world()
        fast_world.network.add_middlebox(
            DnsIngressFilter([fast_world.pool]))
        batched = make_scanner(fast_world).scan(fast_world.space)

        ref_world = build_world()
        ref_world.network.add_middlebox(DnsIngressFilter([ref_world.pool]))
        force_per_probe(ref_world, monkeypatch)
        reference = make_scanner(ref_world).scan(ref_world.space)

        assert batched.counts() == reference.counts()
        assert batched.responders == reference.responders == set()
        assert batched.probes_sent == reference.probes_sent > 0

    def test_results_independent_of_batch_size(self):
        tiny_world = build_world()
        tiny = make_scanner(tiny_world, probe_batch=7).scan(
            tiny_world.space)
        big_world = build_world()
        big = make_scanner(big_world, probe_batch=4096).scan(
            big_world.space)
        assert snapshot(tiny) == snapshot(big)

    def test_gfw_proved_inert_by_measurement_domain(self, world):
        # A GFW watching the scanned prefix censors names unrelated to
        # the measurement domain: the qname-suffix promise proves it
        # inert for the sweep, so the whole space stays bulk-eligible —
        # and the scan still finds every resolver.
        gfw = GreatFirewall([world.pool], ["blocked.example"])
        world.network.add_middlebox(gfw)
        assert world.network.scan_interest(
            world.client_ip, 53, qname_suffix=MEASUREMENT_DOMAIN) == []
        assert world.network.scan_interest(world.client_ip, 53) == \
            [(world.pool.base, world.pool.mask)]
        result = make_scanner(world).scan(world.space)
        assert world.pool.address_at(1) in result.responders
        assert gfw.injection_count == 0

    def test_registering_a_node_is_seen_by_the_next_scan(self, world):
        # Nothing about the cold settlement outlives a scan: a node
        # registered between two scans is hot in the second.
        newcomer = world.pool.address_at(9)
        before = make_scanner(world).scan(world.space)
        assert newcomer not in before.responders
        world.network.register(ResolverNode(
            newcomer, resolution_service=world.service))
        world.network.clock.advance(1.0)
        after = make_scanner(world).scan(world.space)
        assert newcomer in after.responders


def defense_snapshot(world, result):
    """Everything a defense-equivalence class must hold bit-identical."""
    return (snapshot(result), sorted(result.suppressed.items()),
            result.degraded_shards,
            dict(sorted(world.network.fault_counters.items())))


DEFENSES = [
    ("rate_limiter",
     lambda pool: TokenBucketRateLimiter([pool], sustainable_pps=150.0,
                                         seed=3)),
    ("blocklister",
     lambda pool: ReactiveBlocklister([pool], warn_pps=120.0,
                                      ban_pps=200.0, seed=3)),
    ("hard_blocklister",
     lambda pool: ReactiveBlocklister([pool], warn_pps=0.0, ban_pps=0.0,
                                      seed=3)),
    ("tarpit", lambda pool: Tarpit([pool], trigger_pps=140.0, seed=3)),
]


class TestDefenseEquivalence:
    """Batched vs per-probe vs sharded — bit-identical under defense.

    Defense verdicts are pure in (seed, src, dst, declared rate) and the
    pacing plan replays them in global LFSR order, so neither the bulk
    sweep nor shard forking may change a single fate.
    """

    @pytest.mark.parametrize("name,make_box", DEFENSES,
                             ids=[name for name, __ in DEFENSES])
    @pytest.mark.parametrize("pacing", [None, "adaptive"],
                             ids=["naive", "adaptive"])
    def test_batched_matches_per_probe(self, monkeypatch, name,
                                       make_box, pacing):
        fast_world = build_world()
        fast_world.network.add_middlebox(make_box(fast_world.pool))
        batched = make_scanner(fast_world, pacing=pacing).scan(
            fast_world.space)

        ref_world = build_world()
        ref_world.network.add_middlebox(make_box(ref_world.pool))
        force_per_probe(ref_world, monkeypatch)
        reference = make_scanner(ref_world, pacing=pacing).scan(
            ref_world.space)

        assert defense_snapshot(fast_world, batched) == \
            defense_snapshot(ref_world, reference)

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("pacing", [None, "adaptive"],
                             ids=["naive", "adaptive"])
    def test_sharded_matches_sequential(self, shards, pacing):
        from repro.scanner import ScanEngine

        seq_world = build_world()
        seq_world.network.add_middlebox(ReactiveBlocklister(
            [seq_world.pool], warn_pps=120.0, ban_pps=200.0, seed=3))
        sequential = make_scanner(seq_world, pacing=pacing).scan(
            seq_world.space)

        shard_world = build_world()
        shard_world.network.add_middlebox(ReactiveBlocklister(
            [shard_world.pool], warn_pps=120.0, ban_pps=200.0, seed=3))
        engine = ScanEngine(make_scanner(shard_world, pacing=pacing),
                            options=ScanOptions(shards=shards))
        sharded = engine.scan(shard_world.space)

        assert defense_snapshot(seq_world, sequential) == \
            defense_snapshot(shard_world, sharded)

    def test_pacing_counters_survive_sharding(self):
        # The plan is global: its counters are tallied once per scan by
        # the process that builds it — the parent, when forked — not
        # once per shard and not never.
        from repro.perf import PerfRegistry
        from repro.scanner import ScanEngine

        def pacing_perf(shards):
            world = build_world()
            world.network.add_middlebox(ReactiveBlocklister(
                [world.pool], warn_pps=120.0, ban_pps=200.0, seed=3))
            perf = PerfRegistry()
            ScanEngine(make_scanner(world, pacing="adaptive"),
                       options=ScanOptions(shards=shards),
                       perf=perf).scan(world.space)
            windows = perf.histograms["pacing_window_pps"]
            return (perf.counter("pacing_defense_signals"),
                    perf.counter("pacing_suppressed_planned"),
                    perf.gauge_value("pacing_windows"),
                    windows.count, windows.snapshot())

        sequential = pacing_perf(shards=1)
        assert sequential[0] > 0
        assert pacing_perf(shards=2) == sequential

    def test_suppression_is_recorded_not_silent(self):
        world = build_world()
        world.network.add_middlebox(ReactiveBlocklister(
            [world.pool], warn_pps=0.0, ban_pps=0.0, seed=3))
        result = make_scanner(world, pacing="adaptive").scan(world.space)
        assert result.suppressed_targets > 0
        entries = [entry for entry in result.degraded_shards
                   if entry["status"] == "suppressed"]
        assert entries
        assert sum(entry["targets"] for entry in entries) == \
            result.suppressed_targets
        assert all(entry["cause"].startswith("defense:")
                   for entry in entries)

    def test_suppressed_survives_pickle_roundtrip(self):
        world = build_world()
        world.network.add_middlebox(ReactiveBlocklister(
            [world.pool], warn_pps=0.0, ban_pps=0.0, seed=3))
        result = make_scanner(world, pacing="adaptive").scan(world.space)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.suppressed == result.suppressed
        assert clone.suppressed_targets == result.suppressed_targets

    def test_plain_result_bytes_unchanged_by_suppression_field(self):
        # A result with nothing suppressed must serialize exactly as it
        # did before the field existed (historical checkpoint bytes).
        result = ScanResult(10.0)
        assert "suppressed" not in result.__getstate__()


class TestScanPathChecks:
    """Pruning of provably-inert middleboxes from the sweep's sends."""

    def test_inert_box_pruned_interested_box_kept(self, world):
        dormant = ScannerBlocker([world.client_ip], [world.pool],
                                 active_after=1e9)
        filtering = DnsIngressFilter([world.pool])
        world.network.add_middlebox(dormant)
        world.network.add_middlebox(filtering)
        checks = world.network.scan_path_checks(
            world.client_ip, 53, qname_suffix=MEASUREMENT_DOMAIN)
        boxes = [box for box, __ in checks]
        assert dormant not in boxes
        assert filtering in boxes

    def test_duck_typed_box_without_interest_kept(self, world):
        # Keeps the base class's scan_interest: it cannot enumerate.
        class Opaque(Middlebox):
            def path_verdict(self, src_ip, dst_int, dst_port, network):
                from repro.netsim.middlebox import PATH_IGNORE
                return PATH_IGNORE

        box = Opaque()
        world.network.add_middlebox(box)
        checks = world.network.scan_path_checks(world.client_ip, 53)
        assert box in [kept for kept, __ in checks]

    def test_pruning_does_not_change_results(self, monkeypatch):
        # Pruned sweep vs a twin world whose network prunes nothing
        # (stock full-check sends): byte-identical outcomes.
        def scan(prune):
            world = build_world()
            world.network.add_middlebox(ScannerBlocker(
                [world.client_ip], [world.pool], active_after=1e9))
            if not prune:
                monkeypatch.setattr(
                    world.network, "scan_path_checks",
                    lambda *args, **kwargs: [
                        (box, box.path_verdict)
                        for box in world.network.middleboxes])
            result = make_scanner(world).scan(world.space)
            return (pickle.dumps(result), world.network.udp_queries_sent,
                    world.network.udp_queries_lost)

        assert scan(prune=True) == scan(prune=False)


class TestProbeBatchEncoder:
    def reference_wire(self, key, value):
        qname = "r%x.%08x.%s" % (key >> 16 & 0xFFFFFF, value,
                                 MEASUREMENT_DOMAIN)
        return Message.query(qname, txid=key & 0xFFFF).to_wire()

    @pytest.mark.parametrize("key,value", [
        (0, 0),                       # shortest label: "r0"
        (0xFFFFFF_FFFF, 0xFFFFFFFF),  # longest label: "rffffff"
        (0x00012A_BEEF, 0x01020304),
    ])
    def test_byte_identical_to_message_codec(self, key, value):
        encoder = ProbeBatchEncoder(MEASUREMENT_DOMAIN)
        txid, payload = encoder.encode(key, value)
        assert txid == key & 0xFFFF
        assert payload == self.reference_wire(key, value)

    @given(st.integers(min_value=0, max_value=(1 << 40) - 1),
           st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=60, deadline=None)
    def test_byte_identical_property(self, key, value):
        encoder = ProbeBatchEncoder(MEASUREMENT_DOMAIN)
        __, payload = encoder.encode(key, value)
        assert payload == self.reference_wire(key, value)

    @given(st.integers(min_value=0, max_value=(1 << 40) - 1),
           st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.sampled_from([MEASUREMENT_DOMAIN, "Scan.DNSStudy.edu.",
                            "x.y", ""]))
    @settings(max_examples=100, deadline=None)
    def test_question_is_what_the_payload_asks(self, key, value, domain):
        # The sweep settles a probe by its question and renders the
        # payload only for the wire: both must say the same thing.
        encoder = ProbeBatchEncoder(domain)
        txid, payload = encoder.encode(key, value)
        question = encoder.question(key, value)
        assert question == peek_query(payload) + (txid,)
        assert encoder.render(question) == payload

    def test_reencoding_does_not_mutate_earlier_payloads(self):
        # The encoder reuses one template per frame length; each encode
        # must snapshot, never alias.
        encoder = ProbeBatchEncoder(MEASUREMENT_DOMAIN)
        __, first = encoder.encode(0xAB_0001, 1)
        kept = bytes(first)
        encoder.encode(0xCD_0002, 2)
        assert first == kept


class TestColumnarResult:
    def filled(self, order):
        result = ScanResult(10.0)
        for ip, rcode, src in order:
            result.record(ip, rcode, src)
        result.probes_sent = 50
        return result

    ROWS = [("10.0.0.1", 0, "10.0.0.1"),
            ("10.0.0.2", 5, "9.9.9.9"),
            ("10.0.0.3", 2, "10.0.0.3")]

    def test_pickle_roundtrip(self):
        result = self.filled(self.ROWS)
        clone = pickle.loads(pickle.dumps(result))
        assert snapshot(clone) == snapshot(result)
        assert clone.timestamp == result.timestamp
        assert clone.retransmissions == result.retransmissions

    def test_serialized_bytes_canonical_across_record_order(self):
        forward = self.filled(self.ROWS)
        backward = self.filled(list(reversed(self.ROWS)))
        assert pickle.dumps(forward) == pickle.dumps(backward)

    def test_merge_serializes_like_sequential_record(self):
        left = self.filled(self.ROWS[:1])
        right = self.filled(self.ROWS[1:])
        merged = ScanResult(10.0).merge(left).merge(right)
        whole = self.filled(self.ROWS)
        whole.probes_sent = merged.probes_sent
        assert pickle.dumps(merged) == pickle.dumps(whole)
        assert merged.counts() == whole.counts()

    def test_views_refresh_after_mutation(self):
        result = self.filled(self.ROWS)
        assert len(result.responders) == 3
        result.record("10.0.0.4", 0, "10.0.0.4")
        assert "10.0.0.4" in result.responders
        assert "10.0.0.4" in result.noerror
