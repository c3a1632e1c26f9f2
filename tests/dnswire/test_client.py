"""The stub DNS client and its seven consumers, against fake networks.

Three things no other suite shows: what :func:`repro.dnswire.client.ask`
and :func:`~repro.dnswire.client.ask_many` accept when the peer is
hostile (and that every consumer degrades to
its "no answer" value instead of raising), that each consumer's
``(source port, txid)`` sequence — the key of every packet fate — is
the one the literals below pin, and that the trusted resolver's txid
survives a checkpoint round trip.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.authdns.dnssec import ValidatingClient
from repro.authdns.resolution import IterativeResolver
from repro.checkpoint.state import capture_dns_caches, restore_dns_caches
from repro.core.acquisition import DataAcquirer
from repro.dnswire import (
    CLASS_CH,
    CLASS_IN,
    QTYPE_A,
    QTYPE_NS,
    QTYPE_TXT,
    RCODE_NOERROR,
    RCODE_SERVFAIL,
    Message,
    ResourceRecord,
)
from repro.dnswire.client import ask, ask_many
from repro.dnswire.records import AData, NsData
from repro.dnswire.wire import WireReply, peek_query
from repro.faults import FaultPlan, FaultProfile
from repro.netsim import GreatFirewall, Ipv4Network, SimClock
from repro.netsim.network import UdpPacket, UdpResponse
from repro.obs.flight import FlightRecorder
from repro.resolvers import ResolverNode
from repro.scanner.chaos import ChaosScanner
from repro.scanner.domainscan import DomainScanner
from repro.scanner.popularity import PopularityProber
from repro.scanner.snooping import CacheSnoopingProber
from tests.conftest import MiniWorld
from tests.oracles import (MessageResolverNode, message_ask,
                          message_ask_many, message_fields, row_fields)

CLIENT = "198.51.100.7"
SERVER = "203.0.113.9"
ADDRESS = "192.0.2.80"
NS_TTL = 777


class ScriptedNetwork:
    """Records every query's flow; answers with ``script(query)``'s
    payloads, in order."""

    def __init__(self, script=lambda query: ()):
        self.clock = SimClock()
        self.script = script
        self.flows = []
        self.payloads = []

    def send_udp(self, packet, rendered=True):
        self.payloads.append(packet.payload)
        query = Message.from_wire(packet.payload)
        question = query.question
        self.flows.append((packet.src_port, packet.dst_port,
                           query.header.txid, query.header.rd,
                           question.qtype, question.qclass, question.name))
        return [UdpResponse(packet.reply(payload), 0.01 * (order + 1))
                for order, payload in enumerate(self.script(query))]

    def send_many(self, src_ip, src_port, dst_ip, dst_port, questions,
                  query):
        """Every question on the wire: it settles none."""
        return [self.send_udp(UdpPacket(src_ip, src_port, dst_ip, dst_port,
                                        query(question)), rendered=False)
                for question in questions]


def genuine_answer(query):
    """What an honest server would say, per question type."""
    question = query.question
    response = query.make_response()
    if question.qtype == QTYPE_NS:
        record = ResourceRecord.ns(question.name, "ns1.example", ttl=NS_TTL)
    elif question.qtype == QTYPE_TXT:
        record = ResourceRecord.txt(question.name, ["9.9.4-bind"])
    else:
        record = ResourceRecord.a(question.name, ADDRESS, ttl=60)
    response.answers.append(record)
    return response


def hostile_peer(query, genuine=True):
    """SNIPPETS.md Snippet 1's catalogue, in one exchange: garbage, a
    truncation, the query echoed back (QR=0), another transaction's
    answer, then — with ``genuine`` — an oversized answer and the
    plain one."""
    good = genuine_answer(query)
    stranger = genuine_answer(query)
    stranger.header.txid = (query.header.txid + 1) & 0xFFFF
    oversized = genuine_answer(query)
    oversized.additionals.extend(
        ResourceRecord.txt("pad%d.example" % index, ["x" * 200])
        for index in range(3))
    assert len(oversized.to_wire()) > 512
    payloads = [random.Random(query.header.txid).randbytes(40),
                good.to_wire()[:8], query.to_wire(), stranger.to_wire()]
    if genuine:
        payloads += [oversized.to_wire(), good.to_wire()]
    return payloads


def only_hostile(query):
    return hostile_peer(query, genuine=False)


_QUERY = Message.query("Example.com", txid=7)
_GOOD = genuine_answer(_QUERY).to_wire()

# What a peer may send back: the catalogue above, noise, every
# truncation and one-byte corruption of a good answer, and a header that
# passes the peek (txid 7, QR set) over an arbitrary body.
DATAGRAMS = st.one_of(
    st.sampled_from(hostile_peer(_QUERY)),
    st.binary(max_size=64),
    st.integers(0, len(_GOOD)).map(lambda cut: _GOOD[:cut]),
    st.tuples(st.integers(0, len(_GOOD) - 1), st.integers(0, 255)).map(
        lambda flip: _GOOD[:flip[0]] + bytes((flip[1],))
        + _GOOD[flip[0] + 1:]),
    st.binary(max_size=48).map(lambda body: b"\x00\x07\x80" + body))


def drive_domainscan(network):
    observations = DomainScanner(network, CLIENT).scan(
        [SERVER] * 6, ["example.com"], index_range=(5, 6))
    return observations and (observations[0].rcode,
                             observations[0].addresses,
                             len(observations[0].all_responses)) or None


def drive_snooping(network):
    prober = CacheSnoopingProber(network, CLIENT, ["com"], duration_hours=0)
    trace = prober.run([SERVER])[0]
    return [value for __, value in trace.observations.get("com", [])]


def drive_iterative(network):
    result = IterativeResolver([SERVER], CLIENT).resolve(network,
                                                         "example.com")
    return result.rcode, result.a_addresses()


# (consumer, drive, value when answered, value when nothing acceptable)
CONSUMERS = [
    ("domainscan", drive_domainscan, (RCODE_NOERROR, (ADDRESS,), 2), None),
    ("snooping", drive_snooping, [NS_TTL], [None]),
    ("popularity",
     lambda network: PopularityProber(network, CLIENT, ["com"])
     ._observe_ttl(SERVER, "com"), NS_TTL, None),
    ("chaos",
     lambda network: ChaosScanner(network, CLIENT).probe(SERVER).outcome,
     "version", "silent"),
    ("acquisition",
     lambda network: DataAcquirer(network, CLIENT)
     ._resolve_at(SERVER, "example.com"), [ADDRESS], []),
    ("iterative", drive_iterative, (RCODE_NOERROR, [ADDRESS]),
     (RCODE_SERVFAIL, [])),
    ("validating",
     lambda network: ValidatingClient(network, CLIENT)
     .query(SERVER, "example.com"), ([ADDRESS], False), ([], False)),
]


def byte_reading_path(node_class):
    """A world whose path reads reply bytes: a fifth of the responses
    corrupted, a fifth truncated by an injected fault, the GFW in front
    of 110.0.0.0/16, a flight recorder; resolvers of ``node_class``: an
    upstream, one behind the firewall, a forwarder relaying to the
    upstream and one answering from another address.  Returns
    ``(world, resolver ips)``."""
    world = MiniWorld()
    network = world.network
    network.corruption_rate = 0.2
    network.install_faults(FaultPlan(FaultProfile(truncation_rate=0.2),
                                     seed=3))
    network.recorder = FlightRecorder()
    world.add_web_domain("plain.com", "198.18.0.10")
    world.builder.register_domain("blocked.example",
                                  {"blocked.example": ["198.18.0.9"]})
    network.add_middlebox(GreatFirewall([Ipv4Network("110.0.0.0/16")],
                                        ["blocked.example"], seed=5))
    upstream = world.infra.address_at(42000)
    nodes = [node_class(upstream, resolution_service=world.service),
             node_class("110.0.0.5", resolution_service=world.service),
             node_class(world.infra.address_at(42001), forward_to=upstream),
             node_class(world.infra.address_at(42002),
                        resolution_service=world.service,
                        answer_source_ip=world.infra.address_at(42003))]
    for node in nodes:
        network.register(node)
    return world, [node.ip for node in nodes]


class TestHostilePeers:
    def test_byte_readers_on_the_path_see_the_parent_bytes(self):
        """Corruption, truncation, the GFW's forged-then-genuine double
        answer and a forwarder's relay all read reply bytes: the answers
        ``ask`` accepts, their order, and the traffic, fault and flight
        counters equal those of the parent's client and responder
        (``message_ask`` over :class:`MessageResolverNode`)."""
        runs = []
        for client, node_class in ((ask, ResolverNode),
                                   (message_ask, MessageResolverNode)):
            world, resolvers = byte_reading_path(node_class)
            answers = []
            for round_ in range(10):
                world.clock.advance(60)
                for server in resolvers:
                    for name in ("www.plain.com", "blocked.example",
                                 "Plain.com"):
                        answers.append([
                            (message_fields(message), response.packet.src_ip,
                             response.latency, response.injected)
                            for message, response in client(
                                world.network, CLIENT, 31000 + round_,
                                server, name, round_)])
            network = world.network
            runs.append((answers, network.udp_queries_sent,
                         network.udp_queries_lost,
                         network.udp_responses_corrupted,
                         network.fault_counters,
                         network.recorder.export_state()))
        assert runs[0] == runs[1]
        answers, __, __, corrupted, faults, __ = runs[0]
        assert corrupted and faults["truncated_response"]
        assert any(len(accepted) == 2 and accepted[0][3]
                   for accepted in answers)

    def test_plain_send_udp_gets_bytes(self):
        world, resolvers = byte_reading_path(ResolverNode)
        world.network.corruption_rate = 0.0
        world.network.faults = None
        query = Message.query("blocked.example", txid=9).to_wire()
        responses = [response for server in resolvers
                     for response in world.network.send_udp(
                         UdpPacket(CLIENT, 31000, server, 53, query))]
        assert len(responses) == len(resolvers) + 1   # + the forged one
        assert {type(response.packet.payload)
                for response in responses} == {bytes}

    def test_unrendered_response_reprs_its_byte_count(self):
        world, resolvers = byte_reading_path(ResolverNode)
        world.network.corruption_rate = 0.0
        world.network.faults = None
        query = Message.query("www.plain.com", txid=9).to_wire()
        response, = world.network.send_udp(
            UdpPacket(CLIENT, 31000, resolvers[0], 53, query),
            rendered=False)
        payload = response.packet.payload
        assert type(payload) is WireReply
        assert "%d bytes" % len(payload.wire()) in repr(response)

    def test_ask_drops_an_unrendered_reply_that_does_not_parse(self):
        """NS rdata under type A renders but does not parse back: the
        parent's client dropped those bytes, and ``ask`` drops the
        unrendered reply the same way instead of raising."""
        def script(query):
            wire = query.to_wire()
            record = ResourceRecord(query.question.name, QTYPE_A, CLASS_IN,
                                    60, NsData("ns1.example"))
            return [WireReply(wire, peek_query(wire), 0, True, [record]),
                    genuine_answer(query).to_wire()]
        answers = ask(ScriptedNetwork(script), CLIENT, 31999, SERVER,
                      "example.com", 7)
        assert [message.answers[0].data.address
                for message, __ in answers] == [ADDRESS]

    def test_ask_keeps_only_matching_responses(self):
        network = ScriptedNetwork(hostile_peer)
        answers = ask(network, CLIENT, 31999, SERVER, "example.com", 7)
        sent = hostile_peer(Message.query("example.com", txid=7))
        assert [response.packet.payload for __, response in answers] \
            == sent[-2:]
        assert all(message.header.qr and message.header.txid == 7
                   for message, __ in answers)

    def test_ask_returns_nothing_without_a_matching_response(self):
        network = ScriptedNetwork(only_hostile)
        assert ask(network, CLIENT, 31999, SERVER, "example.com", 7) == []
        assert len(network.flows) == 1

    @pytest.mark.parametrize("name,drive,answered,silent", CONSUMERS,
                             ids=[row[0] for row in CONSUMERS])
    def test_consumer_decodes_or_reports_no_answer(self, name, drive,
                                                   answered, silent):
        assert drive(ScriptedNetwork(hostile_peer)) == answered
        assert drive(ScriptedNetwork(only_hostile)) == silent

    @settings(max_examples=150, deadline=None)
    @given(st.lists(DATAGRAMS, max_size=6), st.booleans())
    def test_ask_accepts_what_the_message_round_trip_accepts(
            self, datagrams, rd):
        """The header peek drops nothing the full parse would keep, and
        the template sends the bytes ``Message.query`` would."""
        exchanges = []
        for client in (ask, message_ask):
            network = ScriptedNetwork(lambda query: datagrams)
            answers = client(network, CLIENT, 31999, SERVER, "Example.com",
                             7, rd=rd)
            exchanges.append((network.payloads, [
                (response.packet.payload, response.latency,
                 message.header.txid, message.header.qr)
                for message, response in answers]))
        assert exchanges[0] == exchanges[1]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(DATAGRAMS, max_size=4), min_size=1,
                    max_size=3), st.booleans())
    def test_ask_many_reads_what_the_message_round_trip_reads(
            self, scripts, rd):
        """Each question of one ``ask_many`` call gets the rows of what
        ``message_ask`` would accept for it, the same bytes sent."""
        exchanges = []
        for client in (ask_many, message_ask_many):
            replies = iter(scripts)
            network = ScriptedNetwork(lambda query: next(replies))
            answers = client(network, CLIENT, 31999, SERVER,
                             [("Example.com", 7), ("example.COM", 8),
                              ("Example.com", 7)][:len(scripts)], rd=rd)
            exchanges.append((network.flows, network.payloads, [
                [row_fields(row) for row in rows] for rows in answers]))
        assert exchanges[0] == exchanges[1]

    def test_ask_many_rows_an_unrendered_reply_as_its_parse(self):
        """A ``WireReply`` (no header peek) and its rendered bytes give
        one row; NS rdata under type A is dropped as ``ask`` drops it."""
        def script(query):
            wire = query.to_wire()
            good = WireReply(wire, peek_query(wire), 0, True,
                             genuine_answer(query).answers)
            odd = ResourceRecord(query.question.name, QTYPE_A, CLASS_IN, 60,
                                 NsData("ns1.example"))
            return [good, WireReply(wire, peek_query(wire), 0, True, [odd]),
                    good.wire()]
        rows, = ask_many(ScriptedNetwork(script), CLIENT, 31999, SERVER,
                         [("Example.com", 7)])
        assert [row_fields(row[:4]) for row in rows] \
            == [row_fields((7, "Example.com", RCODE_NOERROR,
                            [(QTYPE_A, 60, AData(ADDRESS))]))] * 2


def first_flows(drive):
    network = ScriptedNetwork()
    drive(network)
    return network.flows[:3]


def three_names(query):
    for name in ("a.example", "b.example", "c.example"):
        query(SERVER, name)


# (src_port, dst_port, txid, rd, qtype, qclass, qname) of each consumer's
# first three queries, captured at the commit before the shared client
# existed (a6fa08e).  Packet fates are keyed by flow 4-tuple +
# occurrence: a change here re-keys every loss, fault and corruption
# draw of the study, so it must be deliberate.
PINNED_FLOWS = {
    "domainscan": [
        (33000, 53, 0, True, QTYPE_A, CLASS_IN, "example.com"),
        (33000, 53, 513, True, QTYPE_A, CLASS_IN, "bank.example.org"),
        (33001, 53, 4464, True, QTYPE_A, CLASS_IN, "Example.com")],
    "snooping": [
        (31500, 53, 1, False, QTYPE_NS, CLASS_IN, "com"),
        (31500, 53, 2, False, QTYPE_NS, CLASS_IN, "net"),
        (31500, 53, 3, False, QTYPE_NS, CLASS_IN, "org")],
    "popularity": [
        (31700, 53, 1, False, QTYPE_NS, CLASS_IN, "com"),
        (31700, 53, 2, False, QTYPE_NS, CLASS_IN, "com"),
        (31700, 53, 3, False, QTYPE_NS, CLASS_IN, "net")],
    "chaos": [
        (31400, 53, 1, True, QTYPE_TXT, CLASS_CH, "version.bind"),
        (31400, 53, 2, True, QTYPE_TXT, CLASS_CH, "version.server"),
        (31400, 53, 3, True, QTYPE_TXT, CLASS_CH, "version.bind")],
    "acquisition": [
        (31600, 53, 1, True, QTYPE_A, CLASS_IN, "a.example"),
        (31600, 53, 2, True, QTYPE_A, CLASS_IN, "b.example"),
        (31600, 53, 3, True, QTYPE_A, CLASS_IN, "c.example")],
    "iterative": [
        (40002, 53, 2, False, QTYPE_A, CLASS_IN, "www.example.com"),
        (40003, 53, 3, False, QTYPE_A, CLASS_IN, "www.example.com"),
        (40004, 53, 4, False, QTYPE_A, CLASS_IN, "www.example.com")],
    "validating": [
        (31800, 53, 1, True, QTYPE_A, CLASS_IN, "a.example"),
        (31800, 53, 2, True, QTYPE_A, CLASS_IN, "b.example"),
        (31800, 53, 3, True, QTYPE_A, CLASS_IN, "c.example")],
}


def pinned_domainscan(network):
    scanner = DomainScanner(network, CLIENT)
    for resolver_id, domain in ((0, "example.com"),
                                (513, "bank.example.org"),
                                (70000, "example.com")):
        scanner.scan([SERVER] * (resolver_id + 1), [domain],
                     index_range=(resolver_id, resolver_id + 1))


PINNED_DRIVES = {
    "domainscan": pinned_domainscan,
    "snooping": lambda network: CacheSnoopingProber(
        network, CLIENT, ["com", "net", "org"], duration_hours=0)
    .run([SERVER]),
    "popularity": lambda network: PopularityProber(
        network, CLIENT, ["com", "net"]).estimate(SERVER),
    "chaos": lambda network: ChaosScanner(network, CLIENT).scan(
        [SERVER, "203.0.113.10"]),
    "acquisition": lambda network: three_names(
        DataAcquirer(network, CLIENT)._resolve_at),
    "iterative": lambda network: IterativeResolver(
        ["192.0.2.1", "192.0.2.2", "192.0.2.3"], CLIENT)
    .resolve(network, "www.example.com"),
    "validating": lambda network: three_names(
        ValidatingClient(network, CLIENT).query),
}


# The same three queries' payloads, byte for byte (hex), captured at the
# commit before queries were sent from per-question templates (8ff27f8).
PINNED_PAYLOADS = {
    "domainscan": [
        "000001000001000000000000076578616d706c6503636f6d0000010001",
        "0201010000010000000000000462616e6b076578616d706c65036f7267000001"
        "0001",
        "117001000001000000000000074578616d706c6503636f6d0000010001"],
    "snooping": [
        "00010000000100000000000003636f6d0000020001",
        "000200000001000000000000036e65740000020001",
        "000300000001000000000000036f72670000020001"],
    "popularity": [
        "00010000000100000000000003636f6d0000020001",
        "00020000000100000000000003636f6d0000020001",
        "000300000001000000000000036e65740000020001"],
    "chaos": [
        "0001010000010000000000000776657273696f6e0462696e640000100003",
        "0002010000010000000000000776657273696f6e067365727665720000100003",
        "0003010000010000000000000776657273696f6e0462696e640000100003"],
    "acquisition": [
        "0001010000010000000000000161076578616d706c650000010001",
        "0002010000010000000000000162076578616d706c650000010001",
        "0003010000010000000000000163076578616d706c650000010001"],
    "iterative": [
        "00020000000100000000000003777777076578616d706c6503636f6d0000010001",
        "00030000000100000000000003777777076578616d706c6503636f6d0000010001",
        "00040000000100000000000003777777076578616d706c6503636f6d0000010001"],
    "validating": [
        "0001010000010000000000000161076578616d706c650000010001",
        "0002010000010000000000000162076578616d706c650000010001",
        "0003010000010000000000000163076578616d706c650000010001"],
}


class TestPinnedFlows:
    @pytest.mark.parametrize("consumer", sorted(PINNED_FLOWS))
    def test_first_three_queries(self, consumer):
        assert first_flows(PINNED_DRIVES[consumer]) \
            == PINNED_FLOWS[consumer]

    @pytest.mark.parametrize("consumer", sorted(PINNED_PAYLOADS))
    def test_first_three_payloads(self, consumer):
        network = ScriptedNetwork()
        PINNED_DRIVES[consumer](network)
        assert [payload.hex() for payload in network.payloads[:3]] \
            == PINNED_PAYLOADS[consumer]

    def test_txid_wraps_at_16_bits(self):
        network = ScriptedNetwork()
        scanner = ChaosScanner(network, CLIENT)
        scanner._txid = 0xFFFE
        scanner.scan([SERVER])
        assert [flow[2] for flow in network.flows] == [0xFFFF, 0]

    def test_trusted_txid_round_trips_through_a_checkpoint(self):
        def world():
            mini = MiniWorld()
            mini.add_web_domain("plain.com", "198.18.0.10")
            mini.network.register(ResolverNode(
                mini.infra.address_at(42000),
                resolution_service=mini.service))
            return mini

        def next_flow(mini):
            seen = []
            send_udp = mini.network.send_udp
            mini.network.send_udp = lambda packet, **options: (
                seen.append((packet.src_port,
                             Message.from_wire(packet.payload).header.txid))
                or send_udp(packet, **options))
            mini.service._trusted.resolve(mini.network, "www.plain.com")
            return seen[0]

        crashed = world()
        crashed.service.resolve_trusted(crashed.network, "plain.com")
        captured = capture_dns_caches(crashed.network)
        assert captured[("service", 0)]["trusted_txid"] \
            == crashed.service._trusted._txid > 1
        resumed = world()
        restore_dns_caches(resumed.network, captured)
        assert next_flow(resumed) == next_flow(crashed) != next_flow(world())
