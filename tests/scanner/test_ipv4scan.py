"""Tests for the Internet-wide IPv4 scanner."""

import pickle

import pytest

from repro.inetmodel import PrefixAllocator
from repro.netsim import Node
from repro.netsim.gfw import GreatFirewall
from repro.obs import FlightRecorder
from repro.resolvers import ResolverNode
from repro.resolvers.resolver import MODE_REFUSED, MODE_SERVFAIL
from repro.scanner import Blacklist, Ipv4Scanner, ScanTargetSpace
from repro.scanner.ipv4scan import ScanResult
from tests.conftest import MiniWorld
from tests.resolvers.test_settled import records_of

MEASUREMENT_DOMAIN = "scan.dnsstudy.edu"


@pytest.fixture
def world(mini):
    mini.builder.register_domain(MEASUREMENT_DOMAIN,
                                 wildcard_address="198.18.0.99")
    mini.service.wildcard_suffixes = (MEASUREMENT_DOMAIN,)
    pool = mini.allocator.allocate(24)
    for offset, kwargs in ((1, {}), (2, {}),
                           (3, {"response_mode": MODE_REFUSED}),
                           (4, {"response_mode": MODE_SERVFAIL}),
                           (5, {"answer_source_ip": pool.address_at(200)})):
        node = ResolverNode(pool.address_at(offset),
                            resolution_service=mini.service, **kwargs)
        mini.network.register(node)
    mini.pool = pool
    return mini


def make_scanner(world, **kwargs):
    return Ipv4Scanner(world.network, world.client_ip, MEASUREMENT_DOMAIN,
                       **kwargs)


class TestScan:
    def test_finds_all_resolvers_by_rcode(self, world):
        result = make_scanner(world).scan(ScanTargetSpace([world.pool]))
        pool = world.pool
        assert pool.address_at(1) in result.noerror
        assert pool.address_at(2) in result.noerror
        assert pool.address_at(3) in result.refused
        assert pool.address_at(4) in result.servfail
        assert result.counts()["all"] == 5

    def test_divergent_source_detected(self, world):
        result = make_scanner(world).scan(ScanTargetSpace([world.pool]))
        # Node 5 answers from a different source; attribution by the
        # encoded target still credits the probed address.
        assert world.pool.address_at(5) in result.noerror
        assert result.divergent_sources == {world.pool.address_at(5)}

    def test_probe_count_excludes_blacklist(self, world):
        blacklist = Blacklist(addresses=[world.pool.address_at(1)])
        result = make_scanner(world, blacklist=blacklist).scan(
            ScanTargetSpace([world.pool]))
        assert world.pool.address_at(1) not in result.responders
        assert result.probes_sent == world.pool.num_addresses - 1

    def test_scan_addresses(self, world):
        result = make_scanner(world).scan_addresses(
            [world.pool.address_at(1), world.pool.address_at(9)])
        assert result.probes_sent == 2
        assert result.counts()["noerror"] == 1

    def test_deterministic_across_runs(self, world):
        first = make_scanner(world).scan(ScanTargetSpace([world.pool]))
        second = make_scanner(world).scan(ScanTargetSpace([world.pool]))
        assert first.responders == second.responders


class WrongTxidNode(Node):
    """Replies with the QR bit set but a flipped transaction id."""

    def handle_udp(self, packet, network):
        reply = bytearray(packet.payload)
        reply[0] ^= 0xFF
        reply[2] |= 0x80
        return bytes(reply)


class QueryEchoNode(Node):
    """Reflects the query unchanged (QR still 0) — not a response."""

    def handle_udp(self, packet, network):
        return packet.payload


class GarbageNode(Node):
    """Replies with a payload too short to be a DNS header."""

    def handle_udp(self, packet, network):
        return b"\x00\x01\x02"


class TestResponseTriage:
    """Regression tests for the wire-level response fast path: the
    header-peek triage must reject exactly what the full parser did."""

    def _scan(self, world, node):
        world.network.register(node)
        return make_scanner(world).scan(ScanTargetSpace([world.pool]))

    def test_mismatched_txid_ignored(self, world):
        bad_ip = world.pool.address_at(9)
        result = self._scan(world, WrongTxidNode(bad_ip))
        assert bad_ip not in result.responders
        assert world.pool.address_at(1) in result.responders

    def test_echoed_query_ignored(self, world):
        bad_ip = world.pool.address_at(9)
        result = self._scan(world, QueryEchoNode(bad_ip))
        assert bad_ip not in result.responders

    def test_corrupted_short_payload_dropped(self, world):
        bad_ip = world.pool.address_at(9)
        result = self._scan(world, GarbageNode(bad_ip))
        assert bad_ip not in result.responders
        # The garbage host was still probed — it just never counts.
        assert result.probes_sent == world.pool.num_addresses

    def test_divergent_source_still_recorded(self, world):
        result = make_scanner(world).scan(ScanTargetSpace([world.pool]))
        divergent = world.pool.address_at(5)
        assert divergent in result.responders
        assert divergent in result.divergent_sources


class TestScanTargetSpace:
    def test_spans_prefixes(self):
        allocator = PrefixAllocator()
        first = allocator.allocate(28)
        second = allocator.allocate(28)
        space = ScanTargetSpace([first, second])
        assert len(space) == 32
        assert space.ip_at(0) == first.address_at(0)
        assert space.ip_at(16) == second.address_at(0)
        assert space.ip_at(31) == second.address_at(15)

    def test_out_of_range(self):
        space = ScanTargetSpace([PrefixAllocator().allocate(28)])
        with pytest.raises(IndexError):
            space.ip_at(16)
        with pytest.raises(IndexError):
            space.ip_at(-1)


class TestScanResult:
    def test_record_and_counts(self):
        result = ScanResult(0.0)
        result.record("1.1.1.1", 0, "1.1.1.1")
        result.record("1.1.1.2", 5, "9.9.9.9")
        counts = result.counts()
        assert counts == {"all": 2, "noerror": 1, "refused": 1,
                          "servfail": 0}
        assert result.divergent_sources == {"1.1.1.2"}


class TestWildcardAnswerClass:
    """Scan probes ask unique names under the wildcard measurement
    domain; settled, they share one answer class.  Each name must still
    leave its own cache entry, and a re-probe of the same name (a cache
    hit) must answer as it does when every datagram takes the wire."""

    @staticmethod
    def scan_then_reprobe(censored, on_the_wire):
        mini = MiniWorld()
        mini.builder.register_domain(MEASUREMENT_DOMAIN,
                                     wildcard_address="198.18.0.99")
        mini.service.wildcard_suffixes = (MEASUREMENT_DOMAIN,)
        pool = mini.allocator.allocate(24)
        network = mini.network
        for offset, kwargs in ((1, {}), (2, {}),
                               (3, {"response_mode": MODE_REFUSED}),
                               (5, {"answer_source_ip": pool.address_at(9)}),
                               (6, {"forward_to": pool.address_at(1)})):
            network.register(ResolverNode(pool.address_at(offset),
                                          resolution_service=mini.service,
                                          **kwargs))
        if censored:
            network.add_middlebox(GreatFirewall([pool], censored))
        if on_the_wire:
            network.recorder = FlightRecorder()
        scanner = make_scanner(mini)
        result = scanner.scan(ScanTargetSpace([pool]))
        now = mini.clock.now
        caches = {ip: records_of(network.node_at(ip).cache.live(now))
                  for ip in sorted(result.responders)}
        # Same clock, same scanner: the same names, now cache hits.
        reprobes = {ip: scanner.probe(ip) for ip in sorted(caches)}
        return (pickle.dumps(result), caches, reprobes,
                network.udp_queries_sent, mini.service.full_resolutions,
                mini.service.answer_class(
                    "r1.00000001." + MEASUREMENT_DOMAIN, network))

    @pytest.mark.parametrize("censored", [(), ["x." + MEASUREMENT_DOMAIN]])
    def test_cache_entries_and_reprobes_match_the_wire(self, censored):
        *settled, answer_class = self.scan_then_reprobe(censored, False)
        *wire, __ = self.scan_then_reprobe(censored, True)
        assert settled == wire
        # One entry per name: resolver 1 also holds the name forwarded
        # to it; the refusing resolver and the forwarder hold none.
        assert [len(entries) for __, entries in sorted(settled[1].items())] \
            == [2, 1, 0, 1, 0]
        # A GFW that may censor a name under the suffix takes the class
        # away: every probe then answers by name.
        assert (answer_class is None) == bool(censored)
        assert answer_class is None or answer_class.name is None
