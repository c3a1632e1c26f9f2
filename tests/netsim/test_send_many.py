"""``Network.send_many`` against one ``send_udp`` per datagram.

``send_many`` works out a flow's addressing, node, round trip, flow keys
and middlebox path verdicts once, then runs the one per-datagram body
for each question, settling by class what needs no wire.  Twin worlds —
one sending each flow's questions in one ``send_many`` call, the other
one ``send_udp(rendered=False)`` at a time — must see the same
responses (for a datagram on the wire: bytes, addressing, latency,
injected flag, order; for a settled question: the rows a stub reads off
the other side's responses) and end with the same traffic, fault, flow
and flight-recorder state, whatever the path does to the datagrams.
"""

from hypothesis import example, given, settings, strategies as st

from repro.dnswire import CLASS_CH, CLASS_IN, QTYPE_A, QTYPE_NS, QTYPE_TXT
from repro.dnswire.client import _accepted
from repro.dnswire.message import Message
from repro.dnswire.wire import message_row
from repro.faults import FaultPlan, FaultProfile
from repro.netsim import GreatFirewall, Ipv4Network
from repro.netsim.address import ip_to_int
from repro.netsim.defense import ReactiveBlocklister, TokenBucketRateLimiter
from repro.netsim.network import Network, UdpPacket
from repro.obs.flight import FlightRecorder
from repro.resolvers import ResolverNode
from tests.conftest import MiniWorld
from tests.oracles import row_fields

OUTSIDE_CLIENT = "198.51.100.7"
INSIDE_CLIENT = "110.0.0.9"         # behind the firewall below
WEEK = 7 * 86400


def build_world(setup):
    """A MiniWorld with the path ``setup`` asks for and six resolvers:
    an upstream, one behind the firewall, a forwarder, one answering
    from another address, and two behind defenses (a blocklist that
    drops every query, a rate limiter that drops some flows).  Returns
    ``(world, resolver ips)``."""
    world = MiniWorld(seed=setup["seed"], loss_rate=setup["loss_rate"])
    network = world.network
    network.corruption_rate = setup["corruption_rate"]
    if setup["faults"]:
        network.install_faults(FaultPlan(FaultProfile(
            loss_rate=0.1, burst_share=0.5, burst_loss_rate=0.5,
            truncation_rate=0.2, flap_share=0.5, flap_period=2,
            flap_duty=0.5), seed=setup["seed"]))
    if setup["recorder"]:
        network.recorder = FlightRecorder()
    world.add_web_domain("plain.com", "198.18.0.10")
    world.builder.register_domain("blocked.example",
                                  {"blocked.example": ["198.18.0.9"]})
    network.add_middlebox(GreatFirewall([Ipv4Network("110.0.0.0/16")],
                                        ["blocked.example"], seed=5))
    network.add_middlebox(ReactiveBlocklister(
        [Ipv4Network("120.0.0.0/24")], warn_pps=0.0, ban_pps=0.0, seed=3))
    network.add_middlebox(TokenBucketRateLimiter(
        [Ipv4Network("120.0.1.0/24")], overload_drop_share=0.5, seed=4))
    upstream = world.infra.address_at(42000)
    service = world.service
    nodes = [ResolverNode(upstream, resolution_service=service),
             ResolverNode("110.0.0.5", resolution_service=service),
             ResolverNode(world.infra.address_at(42001), forward_to=upstream),
             ResolverNode(world.infra.address_at(42002),
                          resolution_service=service,
                          answer_source_ip=world.infra.address_at(42003)),
             ResolverNode("120.0.0.5", resolution_service=service),
             ResolverNode("120.0.1.5", resolution_service=service)]
    for node in nodes:
        network.register(node)
    return world, [node.ip for node in nodes]


SETUPS = st.fixed_dictionaries({
    "seed": st.integers(0, 50),
    "loss_rate": st.sampled_from([0.0, 0.0, 0.2, 0.5]),
    "corruption_rate": st.sampled_from([0.0, 0.0, 0.3]),
    "faults": st.booleans(),
    "recorder": st.booleans(),
})

QUESTIONS = st.tuples(
    st.sampled_from(["www.plain.com", "Plain.com", "blocked.example",
                     "missing.plain.com", "com", "version.bind"]),
    st.sampled_from([(QTYPE_A, CLASS_IN), (QTYPE_A, CLASS_IN),
                     (QTYPE_NS, CLASS_IN), (QTYPE_TXT, CLASS_CH)]),
    st.integers(0, 0xFFFF))

# (clock advance, client, resolver index, source port, questions)
FLOWS = st.lists(st.tuples(
    st.sampled_from([0, 0, 60, WEEK]),
    st.sampled_from([OUTSIDE_CLIENT, OUTSIDE_CLIENT, INSIDE_CLIENT]),
    st.integers(0, 5), st.sampled_from([31000, 31000, 31001]),
    st.lists(QUESTIONS, min_size=1, max_size=5)), min_size=1, max_size=5)


def question_of(drawn):
    """``send_many``'s ``(qname, qtype, qclass, txid)`` of a drawn one."""
    name, (qtype, qclass), txid = drawn
    return name, qtype, qclass, txid


def payload_of(question):
    name, qtype, qclass, txid = question
    return Message.query(name, qtype=qtype, qclass=qclass,
                         txid=txid).to_wire()


def per_datagram(network, src_ip, src_port, dst_ip, dst_port, questions,
                 query):
    return [network.send_udp(UdpPacket(src_ip, src_port, dst_ip, dst_port,
                                       query(question)), rendered=False)
            for question in questions]


def wire(responses):
    return [(bytes(response.packet.payload), response.packet.src_ip,
             response.packet.src_port, response.packet.dst_ip,
             response.packet.dst_port, response.latency, response.injected)
            for response in responses]


def rows_read(question, replies):
    """The rows a stub reads off ``replies``: settled rows as they are,
    each response's row when ``ask_many`` would accept it."""
    rows = []
    for reply in replies:
        if type(reply) is tuple:
            if reply[3] is not None:    # else a reply no stub reads
                rows.append(row_fields(reply))
            continue
        message = _accepted(reply.packet.payload, question[3])
        if message is not None:
            row = message_row(message)
            rows.append(row_fields((row[0], question[0] if row[1] is None
                                    else row[1], row[2],
                                    row[3], reply.packet.src_ip,
                                    reply.injected)))
    return rows


def seen(questions, batched, single):
    """Per question, what both sides saw: a datagram ``send_many`` sent
    on the wire as the responses themselves, a settled one (or one
    without a reply) as the rows a stub reads."""
    sides = ([], [])
    for question, mine, theirs in zip(questions, batched, single):
        if mine and type(mine[0]) is not tuple:
            sides[0].append(wire(mine))
            sides[1].append(wire(theirs))
        else:
            sides[0].append(rows_read(question, mine))
            sides[1].append(rows_read(question, theirs))
    return sides


def network_state(network):
    recorder = network.recorder
    return (network.udp_queries_sent, network.udp_queries_lost,
            network.udp_responses_corrupted, dict(network.fault_counters),
            network.flow_state(),
            recorder.export_state() if recorder is not None else None)


@settings(max_examples=150, deadline=None)
@given(SETUPS, FLOWS)
# Named points: a censored name asked from inside the firewall (the
# forged answer racing the genuine one), every query into the blocklist
# dropped, and a lossy faulted path with a recorder.
@example({"seed": 1, "loss_rate": 0.0, "corruption_rate": 0.0,
          "faults": False, "recorder": True},
         [(0, INSIDE_CLIENT, 0, 31000,
           [("blocked.example", (QTYPE_A, CLASS_IN), 7)] * 2)])
@example({"seed": 1, "loss_rate": 0.0, "corruption_rate": 0.0,
          "faults": False, "recorder": True},
         [(0, OUTSIDE_CLIENT, 4, 31000,
           [("www.plain.com", (QTYPE_A, CLASS_IN), 7)] * 3)])
@example({"seed": 2, "loss_rate": 0.2, "corruption_rate": 0.3,
          "faults": True, "recorder": True},
         [(WEEK, OUTSIDE_CLIENT, index, 31000,
           [("www.plain.com", (QTYPE_A, CLASS_IN), txid)
            for txid in range(5)]) for index in range(6)])
def test_send_many_is_one_send_udp_per_datagram(setup, flows):
    twins = [build_world(setup), build_world(setup)]
    for advance, client, index, port, drawn in flows:
        questions = [question_of(question) for question in drawn]
        answers = []
        for send, (world, resolvers) in zip(
                (Network.send_many, per_datagram), twins):
            world.clock.advance(advance)
            answers.append(send(world.network, client, port,
                                resolvers[index], 53, questions, payload_of))
        sides = seen(questions, *answers)
        assert sides[0] == sides[1]
        assert network_state(twins[0][0].network) \
            == network_state(twins[1][0].network)


def test_a_dropping_box_counts_every_datagram_once():
    """The blocklist drops each datagram of a flow, and counts each
    drop once — classifying the flow counts none of its own."""
    world, resolvers = build_world({"seed": 1, "loss_rate": 0.0,
                                    "corruption_rate": 0.0, "faults": False,
                                    "recorder": True})
    network = world.network
    questions = [("www.plain.com", QTYPE_A, CLASS_IN, txid)
                 for txid in range(4)]
    assert network.send_many(OUTSIDE_CLIENT, 31000, resolvers[4], 53,
                             questions, payload_of) == [[]] * 4
    assert network.fault_counters == {"defense:blocklisted": 4}
    assert network.recorder.cause_counts == {"defense:blocklisted": 4}
    assert network.udp_queries_lost == 4


def test_the_reply_key_is_the_key_of_the_reply_flow():
    """A response's fates are drawn on its own 4-tuple: a flow's reply
    key is the query key of the flow the other way.  (A path that draws
    no fate computes neither.)"""
    assert MiniWorld().network._flow(OUTSIDE_CLIENT, 31000, "203.0.113.9",
                                     53, 1)[6:8] == (None, None)
    network = MiniWorld(loss_rate=0.1).network
    server = "203.0.113.9"
    ahead = network._flow(OUTSIDE_CLIENT, 31000, server, 53,
                          ip_to_int(server))
    back = network._flow(server, 53, OUTSIDE_CLIENT, 31000,
                         ip_to_int(OUTSIDE_CLIENT))
    assert None not in ahead[6:8]
    assert (ahead[7], back[7]) == (back[6], ahead[6])
