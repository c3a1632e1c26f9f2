"""The resolver's wire path against the ``Message``-built responder.

:meth:`ResolverNode.handle_udp` reads the question off the query's
bytes and returns a :class:`~repro.dnswire.wire.WireReply` that writes
the reply around them (:mod:`repro.dnswire.wire`).  For every query in
the accepted shape the reply must render to exactly the bytes
:class:`tests.oracles.MessageResolverNode` — the parse / build / encode
responder it replaced — returns, and leave the node in the same state;
for every other datagram it must stay silent.  The ``Message`` the stub
client reads off a reply without rendering it must equal the parse of
those bytes, here and over every reply of a tiny study.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dnswire import (CLASS_CH, CLASS_IN, QTYPE_A, QTYPE_NS, QTYPE_PTR,
                           QTYPE_TXT, Message)
from repro.dnswire.client import ask, ask_many
from repro.dnswire.message import Header, Question
from repro.dnswire.name import apply_0x20
from repro.dnswire.wire import WireReply, answer_wire, message_row, \
    reply_rows
from repro.netsim import GreatFirewall, Ipv4Network, UdpPacket
from repro.resolvers import behaviors, resolver
from repro.resolvers.cache import CacheActivityModel
from repro.resolvers.resolver import (MODE_NORMAL, MODE_REFUSED,
                                      MODE_SERVFAIL, MODE_SILENT,
                                      ResolutionService, ResolverNode)
from repro.resolvers.software import (SOFTWARE_CATALOG, STYLE_ERROR,
                                      STYLE_HIDDEN, STYLE_NO_VERSION,
                                      STYLE_VERSION)
from repro.reporting import run_full_study
from repro.scenario import ScenarioConfig, build_scenario
from tests.conftest import MiniWorld
from tests.oracles import (MessageResolverNode, cache_facts, message_ask,
                          message_ask_many, message_fields, row_fields)

CLIENT = "1.0.195.81"
INSIDE_IP = "110.0.0.5"             # behind the firewall below
UPSTREAM_IP = "1.0.200.2"

# (qtype, qclass, names): the questions a stub sends, and a few no
# resolver answers with records.
QUESTIONS = [
    (QTYPE_A, CLASS_IN, ["example.com", "www.example.com",
                         "missing.example.com", "cdn.example",
                         "www.cdn.example", "blocked.example", "ads.example",
                         ""]),
    (QTYPE_A, CLASS_IN, ["example.com", "www.example.com"]),    # signed
    (QTYPE_NS, CLASS_IN, ["com", "net", "org", "example.com", ""]),
    (QTYPE_PTR, CLASS_IN, ["9.200.0.1.in-addr.arpa",
                           "7.7.7.7.in-addr.arpa"]),
    (QTYPE_TXT, CLASS_CH, ["version.bind", "version.server",
                           "example.com"]),
    (QTYPE_TXT, CLASS_CH, ["version.bind", "version.server"]),
    (QTYPE_TXT, CLASS_IN, ["version.bind"]),
    (28, CLASS_IN, ["example.com"]),
    (QTYPE_A, 255, ["example.com"]),
]

BEHAVIORS = [
    behaviors.CensorshipBehavior(["blocked.example"], ["10.9.0.1",
                                                       "10.9.0.2"]),
    behaviors.BlockingBehavior(["ads.example"], "10.9.1.1"),
    behaviors.BlockingBehavior(["ads.example"], "10.9.1.1",
                               empty_answer=True),
    behaviors.NxRedirectBehavior("10.9.2.1"),
    behaviors.StaticIpBehavior("10.9.3.1"),
    behaviors.SelfIpBehavior(),
    behaviors.SameNetworkBehavior(),
    behaviors.LanIpBehavior(),
    behaviors.AdInjectBehavior(["ads.example"], ["10.9.4.1", "10.9.4.2"]),
    behaviors.ProxyAllBehavior(["10.9.5.1", "10.9.5.2"]),
    behaviors.PhishingBehavior(["ads.example"], ["10.9.6.1"]),
    behaviors.MalwareBehavior(["www.example.com"], ["10.9.7.1"]),
    behaviors.MailRedirectBehavior(["example.com"], ["10.9.8.1"]),
    behaviors.ParkingBehavior(["cdn.example"], ["10.9.9.1"]),
    behaviors.StaleCdnBehavior({"cdn.example": ["10.9.10.1"]}),
    behaviors.EmptyAnswerBehavior(),
    behaviors.NsOnlyBehavior(),
]

ACTIVITY_STYLES = [
    CacheActivityModel.STYLE_NORMAL, CacheActivityModel.STYLE_IDLE,
    CacheActivityModel.STYLE_STATIC_TTL, CacheActivityModel.STYLE_ZERO_TTL,
    CacheActivityModel.STYLE_RESETTING, CacheActivityModel.STYLE_EMPTY,
    CacheActivityModel.STYLE_SINGLE, CacheActivityModel.STYLE_UNREACHABLE]


def build_world(node_class, setup):
    """A small world (a signed zone, a CDN pool, a firewall, rDNS) with one
    resolver of ``node_class`` built from ``setup``; returns
    ``(world, node)``."""
    world = MiniWorld()
    world.builder.register_domain("example.com", {
        "example.com": ["198.18.0.1"], "www.example.com": ["198.18.0.2"]}
    ).sign_with("zone-key")
    for domain in ("cdn.example", "blocked.example", "ads.example"):
        world.builder.register_domain(domain, {domain: ["198.18.0.9"]})
    world.rdns.set_ptr("1.0.200.9", "host9.example.com")
    world.network.add_middlebox(GreatFirewall(
        [Ipv4Network("110.0.0.0/16")], ["blocked.example"], seed=5))
    service = ResolutionService(
        world.hierarchy.root_ips, world.trusted_ip,
        cdn_pools={"cdn.example": ["198.18.3.%d" % i for i in range(1, 6)]})
    if setup["forward"]:
        world.network.register(node_class(UPSTREAM_IP,
                                           resolution_service=service))
    node = node_class(
        setup["ip"], resolution_service=service if setup["service"] else None,
        behaviors=setup["behaviors"], software=SOFTWARE_CATALOG[0][0],
        chaos_style=setup["chaos_style"], activity=CacheActivityModel(
            setup["activity"], tld_patterns={"com": (100.0, 40.0),
                                             "net": (3.0, 7.0)}, ttl=1000),
        response_mode=setup["mode"],
        answer_source_ip=setup["answer_source_ip"],
        forward_to=UPSTREAM_IP if setup["forward"] else None,
        allowed_networks=setup["allowed"])
    world.network.register(node)
    return world, node


SETUPS = st.fixed_dictionaries({
    "ip": st.sampled_from(["1.0.200.9", INSIDE_IP]),
    "service": st.sampled_from([True, True, True, False]),
    "behaviors": st.lists(st.sampled_from(BEHAVIORS), max_size=2),
    "chaos_style": st.sampled_from([STYLE_ERROR, STYLE_HIDDEN,
                                    STYLE_NO_VERSION, STYLE_VERSION]),
    "activity": st.sampled_from(ACTIVITY_STYLES),
    "mode": st.sampled_from([MODE_NORMAL] * 4 + [MODE_REFUSED,
                                                  MODE_SERVFAIL,
                                                  MODE_SILENT]),
    "answer_source_ip": st.sampled_from([None, "1.0.200.77"]),
    "forward": st.sampled_from([False, False, False, True]),
    "allowed": st.sampled_from([None, None, [Ipv4Network("1.0.195.0/24")],
                                [Ipv4Network("5.5.5.0/24")]]),
})


@st.composite
def exchanges(draw):
    """Up to six queries over at most three questions, so answers get
    asked again: cache hits, decayed TTLs, single-answer silence."""
    questions = draw(st.lists(
        st.sampled_from(QUESTIONS).flatmap(lambda kind: st.tuples(
            st.just(kind[0]), st.just(kind[1]), st.sampled_from(kind[2]))),
        min_size=1, max_size=3))
    payloads = []
    for __ in range(draw(st.integers(1, 6))):
        qtype, qclass, name = draw(st.sampled_from(questions))
        payloads.append((draw(st.sampled_from([0, 0, 30, 500, 5000])),
                         Message(Header(
                             txid=draw(st.integers(0, 0xFFFF)),
                             opcode=draw(st.sampled_from([0, 0, 0, 2, 15])),
                             rd=draw(st.booleans())),
                             [Question(apply_0x20(name, draw(
                                 st.integers(0, 0x1FF))), qtype, qclass)]
                         ).to_wire()))
    return payloads


def node_state(world, node):
    return (node.query_count, cache_facts(node.cache._entries),
            sorted(node.activity._single_answered),
            node._hidden_rng.getstate(),
            node.service and node.service.full_resolutions,
            world.network.udp_queries_sent)


def plain_setup(**changes):
    """An open honest resolver outside the firewall."""
    return dict({"ip": "1.0.200.9", "service": True, "behaviors": [],
                 "chaos_style": STYLE_ERROR, "activity": ACTIVITY_STYLES[0],
                 "mode": MODE_NORMAL, "answer_source_ip": None,
                 "forward": False, "allowed": None}, **changes)


def asked(name, qtype=QTYPE_A, qclass=CLASS_IN, advance=30):
    return advance, Message.query(name, qtype=qtype, qclass=qclass,
                                  txid=5).to_wire()


@settings(max_examples=200, deadline=None)
@given(SETUPS, exchanges())
# Named points the draw reaches only now and then: a signed answer
# served again from the cache (re-stamped TTLs), records owned by the
# root name (no pointer), and the CHAOS error style's random draws.
@example(plain_setup(), [asked("www.Example.com")] * 3)
@example(plain_setup(activity=CacheActivityModel.STYLE_STATIC_TTL),
         [asked("", QTYPE_NS)])
@example(plain_setup(behaviors=[BEHAVIORS[4]]), [asked("")])
@example(plain_setup(), [asked("version.bind", QTYPE_TXT, CLASS_CH)] * 3)
def test_handle_udp_matches_the_message_responder(setup, queries):
    worlds = [build_world(ResolverNode, setup),
              build_world(MessageResolverNode, setup)]
    for advance, payload in queries:
        answers = []
        for world, node in worlds:
            world.clock.advance(advance)
            answers.append(node.handle_udp(
                UdpPacket(CLIENT, 4321, node.ip, 53, payload),
                world.network))
        assert rendered(answers[0]) == answers[1]
        assert node_state(*worlds[0]) == node_state(*worlds[1])


def assert_reads_as_parsed(reply):
    """``reply.message()`` equals the parse of ``reply.wire()``, and
    ``reply_rows`` of its answer that parse's rows."""
    parsed = Message.from_wire(reply.wire())
    assert message_fields(reply.message()) == message_fields(parsed)
    rows = reply_rows(*reply.question, reply.rcode, reply.ra, reply.records)
    assert row_fields((None, None, None, rows)) \
        == row_fields((None, None, None, message_row(parsed)[3]))


def rendered(answer):
    """``handle_udp``'s return with every ``WireReply`` checked by
    :func:`assert_reads_as_parsed` and rendered to its bytes."""
    if isinstance(answer, WireReply):
        assert_reads_as_parsed(answer)
        return answer.wire()
    if isinstance(answer, list):
        return [(rendered(payload), source_ip)
                for payload, source_ip in answer]
    return answer


@st.composite
def questions(draw):
    """What a stub client asks: ``(clock advance, name, qtype, qclass,
    rd, txid)``."""
    qtype, qclass, names = draw(st.sampled_from(QUESTIONS))
    return (draw(st.sampled_from([0, 0, 30, 500, 5000])),
            apply_0x20(draw(st.sampled_from(names)),
                       draw(st.integers(0, 0x1FF))),
            qtype, qclass, draw(st.booleans()), draw(st.integers(0, 0xFFFF)))


@settings(max_examples=200, deadline=None)
@given(SETUPS, st.lists(questions(), min_size=1, max_size=6))
@example(plain_setup(), [(30, "www.Example.com", QTYPE_A, CLASS_IN, True,
                          5)] * 2)
def test_ask_reads_what_the_parse_of_the_bytes_reads(setup, asks):
    """``ask`` over the whole network — GFW injections, forwarders,
    divergent answer sources — against ``message_ask``, which parses
    every datagram, in a twin world."""
    worlds = [build_world(ResolverNode, setup) for __ in range(2)]
    for advance, name, qtype, qclass, rd, txid in asks:
        exchanges = []
        for client, (world, node) in zip((ask, message_ask), worlds):
            world.clock.advance(advance)
            exchanges.append([
                (message_fields(message), response.packet.src_ip,
                 response.latency, response.injected)
                for message, response in client(
                    world.network, CLIENT, 4321, node.ip, name, txid,
                    qtype=qtype, qclass=qclass, rd=rd)])
        assert exchanges[0] == exchanges[1]


@settings(max_examples=150, deadline=None)
@given(SETUPS, st.lists(st.tuples(st.sampled_from([0, 0, 30, 5000]),
                                  st.lists(questions(), min_size=1,
                                           max_size=4)),
                        min_size=1, max_size=3))
def test_ask_many_reads_what_the_parse_of_the_bytes_reads(setup, batches):
    """``ask_many`` over the whole network against one ``message_ask``
    per question, in a twin world: the batch shares the first question's
    type, class and RD, as a consumer's batch does."""
    worlds = [build_world(ResolverNode, setup) for __ in range(2)]
    for advance, asks in batches:
        __, __, qtype, qclass, rd, __ = asks[0]
        questions = [(name, txid) for __, name, __, __, __, txid in asks]
        exchanges = []
        for client, (world, node) in zip((ask_many, message_ask_many),
                                         worlds):
            world.clock.advance(advance)
            exchanges.append([
                [row_fields(row) for row in rows]
                for rows in client(world.network, CLIENT, 4321, node.ip,
                                   questions, qtype=qtype, qclass=qclass,
                                   rd=rd)])
        assert exchanges[0] == exchanges[1]
        assert node_state(*worlds[0]) == node_state(*worlds[1])


@pytest.mark.parametrize("seed", [7, 11])
def test_every_reply_of_a_tiny_study_reads_as_parsed(seed, monkeypatch):
    """Every reply a resolver builds in a tiny study (scale 1:60000, two
    weeks, 20 snooped resolvers), every ``Message`` a client read off
    one, and every answer a resolver settled as rows equals the parse of
    the reply's bytes."""
    built = []
    handed = []
    settled = []
    init, message = WireReply.__init__, WireReply.message

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    def checked_message(self):
        result = message(self)
        handed.append(self._wire is None)
        assert message_fields(result) \
            == message_fields(Message.from_wire(self.wire()))
        return result

    def checked_rows(qname, qtype, qclass, rcode, ra, records):
        rows = reply_rows(qname, qtype, qclass, rcode, ra, records)
        query = Message.query(qname, qtype=qtype, qclass=qclass).to_wire()
        parsed = Message.from_wire(answer_wire(query, qname, rcode, ra,
                                               records))
        assert row_fields((None, None, None, rows)) \
            == row_fields((None, None, None, message_row(parsed)[3]))
        settled.append(rows)
        return rows

    monkeypatch.setattr(WireReply, "__init__", recording_init)
    monkeypatch.setattr(WireReply, "message", checked_message)
    monkeypatch.setattr(resolver, "reply_rows", checked_rows)
    run_full_study(build_scenario(ScenarioConfig(scale=60000, seed=seed)),
                   weeks=2, snoop_sample=20)
    # Most replies a client read were read from the tuple, unrendered;
    # many answers settled.
    assert handed.count(True) > len(handed) / 2
    assert len(settled) > len(built)
    for reply in built:
        assert_reads_as_parsed(reply)


def in_shape(name="www.Example.com"):
    return Message.query(name, txid=0x4242).to_wire()


# Datagrams outside the accepted shape, each with the way it leaves it.
OUT_OF_SHAPE = {
    # The parent answered these wrongly or crashed: a non-ASCII label
    # byte raised UnicodeEncodeError, and a label holding a "." byte was
    # echoed as two labels.
    "non-ascii label byte": in_shape().replace(b"\x03www", b"\x03w\xe9w"),
    "dot inside a label": in_shape().replace(b"\x03www", b"\x03w.w"),
    "response (QR set)": in_shape()[:2] + b"\x81" + in_shape()[3:],
    "two questions": Message(Header(txid=7), [
        Question("example.com"), Question("example.net")]).to_wire(),
    "an additional record (EDNS-like)": in_shape()[:11] + b"\x01"
    + in_shape()[12:] + b"\x00\x00\x29\x10\x00\x00\x00\x00\x00\x00\x00",
    "trailing bytes": in_shape() + b"\x00",
    "truncated question": in_shape()[:-1],
    "header only": in_shape()[:12],
    "compression pointer": in_shape()[:12] + b"\xc0\x0c\x00\x01\x00\x01",
    "name over 255 bytes": in_shape()[:12]
    + (b"\x3f" + b"a" * 63) * 4 + b"\x00\x00\x01\x00\x01",
    "empty": b"",
}


def test_out_of_shape_queries_get_silence():
    world, node = build_world(ResolverNode, plain_setup())
    for why, payload in OUT_OF_SHAPE.items():
        packet = UdpPacket(CLIENT, 4321, node.ip, 53, payload)
        assert node.handle_udp(packet, world.network) is None, why
    assert node.query_count == 0
    assert node.handle_udp(UdpPacket(CLIENT, 4321, node.ip, 53, in_shape()),
                           world.network) is not None


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=80))
def test_random_datagrams_never_raise(payload):
    world, node = build_world(ResolverNode, plain_setup())
    node.handle_udp(UdpPacket(CLIENT, 4321, node.ip, 53, payload),
                    world.network)
