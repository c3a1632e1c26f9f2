"""Every packet fate of the network against an independent reference.

The twin-world tests (``test_send_many.py``, ``tests/resolvers/
test_settled.py``) run both twins through the same ``Network``, so a
fate keyed on the wrong flow, counted on the wrong occurrence or drawn
from the wrong salt moves both alike.  Here :class:`tests.oracles.
FateOracle` — the 4-tuple hash, splitmix64 and the per-(salt, flow)
occurrence written out from scratch — predicts which queries, replies
and connects a MiniWorld loses, corrupts, truncates or hangs, through
``send_udp``, ``send_many`` (by ``ask_many``) and ``tcp_banner``, with
loss, corruption, a fault plan, a forwarder and a divergent answer
source.
"""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.dnswire import CLASS_CH, CLASS_IN, QTYPE_A, QTYPE_TXT
from repro.dnswire.client import _accepted, ask_many
from repro.dnswire.message import Message
from repro.faults import FaultPlan, FaultProfile
from repro.netsim.network import UdpPacket
from repro.resolvers import ResolverNode
from tests.conftest import MiniWorld
from tests.oracles import FateOracle

WEB = "198.18.0.10"
QUESTIONS = [("www.plain.com", QTYPE_A, CLASS_IN),
             ("plain.com", QTYPE_A, CLASS_IN),
             ("version.bind", QTYPE_TXT, CLASS_CH)]


def build_world(setup):
    """A MiniWorld whose resolvers have every name of :data:`QUESTIONS`
    cached (so no question makes traffic of its own), then the setup's
    loss, corruption and fault plan.  Returns ``(world, resolvers,
    oracle)``: the resolvers are a plain one, the forwarder's upstream,
    the forwarder, and one answering from another address."""
    world = MiniWorld(seed=setup["seed"])
    network = world.network
    world.add_web_domain("plain.com", WEB)
    at, service = world.infra.address_at, world.service
    resolvers = [
        ResolverNode(at(42000), resolution_service=service),
        ResolverNode(at(42001), resolution_service=service),
        ResolverNode(at(42002), forward_to=at(42001)),
        ResolverNode(at(42003), resolution_service=service,
                     answer_source_ip=at(42004))]
    for node in resolvers:
        network.register(node)
        ask_many(network, world.client_ip, 30999, node.ip,
                 [(name, 1) for name, __, ___ in QUESTIONS[:2]])
    network.loss_rate = setup["loss_rate"]
    network.corruption_rate = setup["corruption_rate"]
    plan = None
    if setup["faults"]:
        plan = network.install_faults(FaultPlan(FaultProfile(
            loss_rate=0.1, burst_share=0.5, burst_loss_rate=0.5,
            rate_limit_share=0.5, rate_limit_step=1, truncation_rate=0.3,
            tcp_hang_rate=0.4, tcp_stall_seconds=30.0),
            seed=setup["seed"]))
    return world, resolvers, FateOracle(
        world.clock, setup["seed"], setup["loss_rate"],
        setup["corruption_rate"], plan)


def exchange(oracle, expect, resolvers, src_ip, src_port, node, qclass):
    """The oracle's account of one question from ``(src_ip, src_port)``
    to ``node``, tallying the counters it moves into ``expect``: the
    reply's source address and whether a stub can read it, or ``None``
    when no reply arrives."""
    expect["sent"] += 1
    fate = oracle.query(src_ip, src_port, node.ip, 53)
    if fate is not None:
        expect["lost"] += 1
        if fate != "loss":
            expect[fate] += 1
        return None
    expect[node.ip] += 1
    readable = True
    if node.forward_to is not None and qclass == CLASS_IN:
        upstream = next(other for other in resolvers
                        if other.ip == node.forward_to)
        relayed = exchange(oracle, expect, resolvers, node.ip, 53535,
                           upstream, qclass)
        if relayed is None:
            return None
        readable = relayed[1]
    source = node.answer_source_ip or node.ip
    lost, corrupted, truncated = oracle.reply(source, 53, src_ip, src_port)
    if lost:
        expect["lost"] += 1
        return None
    expect["corrupted"] += corrupted
    expect["truncated_response"] += truncated
    return source, readable and not corrupted and not truncated


def counters(network, resolvers):
    seen = Counter(network.fault_counters)
    seen.update({"sent": network.udp_queries_sent,
                 "lost": network.udp_queries_lost,
                 "corrupted": network.udp_responses_corrupted})
    seen.update({node.ip: node.query_count for node in resolvers})
    return seen


SETUPS = st.fixed_dictionaries({
    "seed": st.integers(0, 50),
    "loss_rate": st.sampled_from([0.0, 0.2, 0.5]),
    "corruption_rate": st.sampled_from([0.0, 0.0, 0.3]),
    "faults": st.booleans(),
})

# (clock advance, how, resolver index, source port, question index,
#  how many questions, TCP port, TCP timeout)
ACTIONS = st.lists(st.tuples(
    st.sampled_from([0, 0, 5]), st.sampled_from(["udp", "many", "tcp"]),
    st.integers(0, 3), st.sampled_from([31000, 31000, 31001]),
    st.integers(0, 2), st.integers(1, 4), st.sampled_from([80, 443, 8080]),
    st.sampled_from([None, 10.0, 60.0])), min_size=1, max_size=8)


@settings(max_examples=120, deadline=None)
@given(SETUPS, ACTIONS)
# Named points: a lossy faulted world sending one flow over and over
# (rate limiting reads the fault occurrence, which only the sends
# baseline loss spared advance), and a corrupting one (every question
# on the wire) through the forwarder.
@example({"seed": 4, "loss_rate": 0.5, "corruption_rate": 0.0,
          "faults": True},
         [(0, how, index, 31000, 0, 4, 80, 10.0)
          for how in ("many", "udp", "tcp") for index in (0, 2, 3)])
@example({"seed": 9, "loss_rate": 0.2, "corruption_rate": 0.3,
          "faults": True},
         [(0, how, 2, 31000, 1, 4, 443, None)
          for how in ("many", "udp", "many", "tcp")])
def test_every_fate_is_the_oracles(setup, actions):
    world, resolvers, oracle = build_world(setup)
    network, client = world.network, world.client_ip
    expect = counters(network, resolvers)
    for advance, how, index, port, first, count, tcp_port, timeout in \
            actions:
        world.clock.advance(advance)
        node = resolvers[index]
        if how == "tcp":
            fate = oracle.connect(client, WEB, tcp_port, timeout)
            if fate not in (None, "loss"):
                expect[fate] += 1
            banner = network.tcp_banner(client, WEB, tcp_port, timeout)
            assert (banner is not None) == (
                fate in (None, "tcp_stall_absorbed") and tcp_port != 8080)
        else:
            qname, qtype, qclass = QUESTIONS[first]
            txids = range(1, count + 1) if how == "many" else (1,)
            predicted = [exchange(oracle, expect, resolvers, client, port,
                                  node, qclass) for __ in txids]
            if how == "many":
                answers = [[row[4] for row in rows] for rows in ask_many(
                    network, client, port, node.ip,
                    [(qname, txid) for txid in txids], qtype, qclass)]
            else:
                payload = Message.query(qname, qtype=qtype, qclass=qclass,
                                        txid=1).to_wire()
                responses = network.send_udp(UdpPacket(
                    client, port, node.ip, 53, payload))
                assert len(responses) == (predicted[0] is not None)
                answers = [[response.packet.src_ip for response
                            in responses if _accepted(
                                response.packet.payload, 1) is not None]]
            assert answers == [
                [reply[0]] if reply is not None and reply[1] else []
                for reply in predicted]
        assert +counters(network, resolvers) == +expect
