"""Questions settled by answer class against ``ask``, one at a time.

``ask_many`` sends a flow's questions through ``Network.send_many``,
which settles every question that nothing on the path and nothing at
the node needs the wire for: no packet, reply or response is built, and
the node's answer plan answers from the name's answer class (DESIGN.md
"Stub DNS client" → *Answer classes*).  Twin worlds — one asking each
flow's questions in one ``ask_many`` call, the other through
:func:`tests.oracles.ask_each`, one ``ask`` and one ``send_udp`` per
question — must read the same rows and end with the same traffic,
fault and flow counters, the same flight record and the same resolver
state, whatever the path, the fault plan and the resolvers do.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dnswire import CLASS_CH, CLASS_IN, QTYPE_A, QTYPE_NS, QTYPE_TXT
from repro.dnswire.client import ask_many
from repro.dnswire.name import apply_0x20
from repro.faults import FaultPlan, FaultProfile
from repro.netsim import GreatFirewall, Ipv4Network
from repro.netsim.network import Network
from repro.obs.flight import FlightRecorder
from repro.resolvers import behaviors
from repro.resolvers.cache import CacheActivityModel
from repro.resolvers.resolver import ResolutionService, ResolverNode
from tests.conftest import MiniWorld
from tests.oracles import ask_each, cache_facts, row_fields

OUTSIDE_CLIENT = "198.51.100.7"
INSIDE_CLIENT = "110.0.0.9"         # behind the firewall below
CDN_POOL = ["198.18.3.%d" % index for index in range(1, 6)]

ACTIVITY_STYLES = [
    CacheActivityModel.STYLE_NORMAL, CacheActivityModel.STYLE_IDLE,
    CacheActivityModel.STYLE_STATIC_TTL, CacheActivityModel.STYLE_ZERO_TTL,
    CacheActivityModel.STYLE_RESETTING, CacheActivityModel.STYLE_EMPTY,
    CacheActivityModel.STYLE_SINGLE, CacheActivityModel.STYLE_UNREACHABLE]

# (qtype, qclass, names) of one consumer's batch: censored and
# uncensored names, a CDN name, a signed one, one with no address.
KINDS = [
    (QTYPE_A, CLASS_IN, ["www.plain.com", "plain.com", "blocked.example",
                         "www.blocked.example", "cdn.example",
                         "www.cdn.example", "signed.example",
                         "missing.plain.com"]),
    (QTYPE_NS, CLASS_IN, ["com", "net", "org"]),
    (QTYPE_TXT, CLASS_CH, ["version.bind", "version.server"]),
]

RESOLVERS = 7


def build_world(setup):
    """A MiniWorld with the path ``setup`` draws and seven resolvers: an
    upstream, one behind the firewall, a forwarder to the upstream, one
    answering from another address, one whose censorship behaviour
    answers, one behind the firewall forwarding out of it, and one the
    firewall does not touch (``gfw_immune``).  Returns ``(world,
    resolver ips)``."""
    world = MiniWorld(seed=setup["seed"], loss_rate=setup["loss_rate"])
    network = world.network
    if setup["faults"]:
        network.install_faults(FaultPlan(FaultProfile(
            loss_rate=0.1, burst_share=0.5, burst_loss_rate=0.5,
            rate_limit_share=0.3, rate_limit_step=6, truncation_rate=0.2,
            flap_share=0.3, flap_period=2, flap_duty=0.5),
            seed=setup["seed"]))
    if setup["recorder"]:
        network.recorder = FlightRecorder()
    world.add_web_domain("plain.com", "198.18.0.10")
    world.builder.register_domain("blocked.example",
                                  {"blocked.example": ["198.18.0.9"],
                                   "www.blocked.example": ["198.18.0.8"]})
    world.builder.register_domain("cdn.example",
                                  {"cdn.example": ["198.18.0.7"]})
    world.builder.register_domain(
        "signed.example", {"signed.example": ["198.18.0.6"]}
    ).sign_with("zone-key")
    network.add_middlebox(GreatFirewall([Ipv4Network("110.0.0.0/16")],
                                        ["blocked.example"], seed=5))
    service = ResolutionService(world.hierarchy.root_ips, world.trusted_ip,
                                cdn_pools={"cdn.example": CDN_POOL})

    def resolver(ip, **settings):
        return ResolverNode(ip, resolution_service=service,
                            activity=CacheActivityModel(
                                setup["activity"],
                                tld_patterns={"com": (100.0, 40.0),
                                              "net": (3.0, 7.0)},
                                ttl=1000), **settings)

    upstream = world.infra.address_at(42000)
    nodes = [resolver(upstream),
             resolver("110.0.0.5"),
             resolver(world.infra.address_at(42001), forward_to=upstream),
             resolver(world.infra.address_at(42002),
                      answer_source_ip=world.infra.address_at(42003)),
             resolver(world.infra.address_at(42004), behaviors=[
                 behaviors.CensorshipBehavior(["plain.com"],
                                              ["10.9.0.1"])]),
             resolver("110.0.0.6", forward_to=upstream),
             resolver("110.0.0.7", gfw_immune=True)]
    for node in nodes:
        network.register(node)
    return world, [node.ip for node in nodes]


SETUPS = st.fixed_dictionaries({
    "seed": st.integers(0, 30),
    "loss_rate": st.sampled_from([0.0, 0.002, 0.3]),
    "faults": st.booleans(),
    "recorder": st.sampled_from([False, False, True]),
    "activity": st.sampled_from(ACTIVITY_STYLES),
})


@st.composite
def flows(draw):
    """Batches as the consumers send them: one (qtype, qclass) per flow,
    names cased in a 0x20 pattern, asked again after the clock moves
    (cache hits at a decayed TTL, expiries, the single style's
    silence)."""
    batches = []
    for __ in range(draw(st.integers(1, 4))):
        qtype, qclass, names = draw(st.sampled_from(KINDS))
        pattern = draw(st.integers(0, 0x1FF))
        questions = [(apply_0x20(name, pattern), draw(st.integers(0, 0xFFFF)))
                     for name in draw(st.lists(st.sampled_from(names),
                                               min_size=1, max_size=6))]
        batches.append((draw(st.sampled_from([0, 0, 30, 400, 5000])),
                        draw(st.sampled_from([OUTSIDE_CLIENT] * 3
                                             + [INSIDE_CLIENT])),
                        draw(st.integers(0, RESOLVERS - 1)),
                        draw(st.sampled_from([33000, 33000, 31500])),
                        qtype, qclass, questions))
    return batches


def state(world):
    """What a later unit of work can observe of one twin."""
    network = world.network
    now = world.clock.now
    nodes = [node for node in map(network.node_at, sorted(network._nodes))
             if isinstance(node, ResolverNode)]
    recorder = network.recorder
    return (network.udp_queries_sent, network.udp_queries_lost,
            network.udp_responses_corrupted, dict(network.fault_counters),
            network.flow_state(),
            [(node.ip, node.query_count, cache_facts(node.cache.live(now)),
              sorted(node.activity._single_answered)) for node in nodes],
            nodes[0].service.full_resolutions,
            recorder.export_state() if recorder is not None else None)


def run_twins(setup, batches):
    """Ask ``batches`` in twin worlds, through ``ask_many`` and through
    ``ask_each``, comparing as it goes; returns how many replies the
    ``ask_many`` side settled by class and how many rows it read."""
    twins = [build_world(setup), build_world(setup)]
    settled = []
    settle = Network._settled

    def counted(self, flow, question, replies):
        rows = settle(self, flow, question, replies)
        settled.extend(rows)
        return rows

    read = 0
    for advance, client, index, port, qtype, qclass, questions in batches:
        sides = []
        for client_call, (world, resolvers) in zip((ask_many, ask_each),
                                                   twins):
            world.clock.advance(advance)
            Network._settled = counted
            try:
                answers = client_call(world.network, client, port,
                                      resolvers[index], questions,
                                      qtype=qtype, qclass=qclass,
                                      rd=qtype != QTYPE_NS)
            finally:
                Network._settled = settle
            sides.append([[row_fields(row) for row in rows]
                          for rows in answers])
        assert sides[0] == sides[1]
        assert state(twins[0][0]) == state(twins[1][0])
        read += sum(map(len, sides[0]))
    return len(settled), read


@settings(max_examples=150, deadline=None)
@given(SETUPS, flows())
# Named points: a lossy, faulted path with single-answer snooping, and
# the firewall's double answer beside settled uncensored names.
@example({"seed": 3, "loss_rate": 0.3, "faults": True, "recorder": False,
          "activity": CacheActivityModel.STYLE_SINGLE},
         [(0, OUTSIDE_CLIENT, index, 31500, QTYPE_NS, CLASS_IN,
           [("com", 1), ("net", 2), ("com", 3)])
          for index in range(RESOLVERS)])
@example({"seed": 1, "loss_rate": 0.0, "faults": False, "recorder": False,
          "activity": CacheActivityModel.STYLE_NORMAL},
         [(0, OUTSIDE_CLIENT, 1, 33000, QTYPE_A, CLASS_IN,
           [("www.plain.com", 7), ("blocked.example", 7),
            ("cdn.example", 7)])])
def test_settled_questions_read_as_asked_one_at_a_time(setup, batches):
    run_twins(setup, batches)


def everything(client=OUTSIDE_CLIENT, advance=0):
    """Every kind of question at every resolver, twice over a clock
    advance (the second round hits caches at a decayed TTL)."""
    return [(step, client, index, 33000, qtype, qclass,
             [(name, 9) for name in names])
            for step in (advance, 30)
            for index in range(RESOLVERS)
            for qtype, qclass, names in KINDS]


@pytest.mark.parametrize("loss_rate,faults", [(0.0, False), (0.002, True),
                                              (0.3, True)])
def test_most_answers_settle(loss_rate, faults):
    """With no recorder on the path, the named worlds settle most of what
    they answer — the forwarders' relays included; the censored names
    crossing the firewall take the wire — and still read as asked one at
    a time.  (At seed 2 the fault plan truncates some of the replies
    the forwarders relay: garbage relayed still draws its fates.)"""
    setup = {"seed": 2, "loss_rate": loss_rate, "faults": faults,
             "recorder": False, "activity": CacheActivityModel.STYLE_NORMAL}
    settled, read = run_twins(setup, everything())
    assert read > 30 and settled > read * 3 / 4


def test_a_flight_recorder_keeps_every_datagram_on_the_wire():
    setup = {"seed": 4, "loss_rate": 0.002, "faults": True,
             "recorder": True, "activity": CacheActivityModel.STYLE_SINGLE}
    settled, read = run_twins(setup, everything(INSIDE_CLIENT))
    assert read > 50 and settled == 0


def test_a_wildcard_reprobe_hit_answers_the_rows_of_its_wire_twin(
        monkeypatch):
    """Probe names under a wildcard suffix share the suffix's answer
    class, and each caches the suffix's one result.  Asked again, the
    name hits that result: the class answers its rows at the decayed
    TTL, without building an answer for the name, and they read as its
    wire twin's, which answers every datagram through ``respond``."""
    suffix = "scan.dnsstudy.edu"
    questions = [("R1.AABBCCDD." + suffix, 5), ("r2.11223344." + suffix, 6)]
    built = []
    honest = ResolverNode._honest_response

    def counted(self, qname, network):
        built.append(qname)
        return honest(self, qname, network)

    sides = []
    for client_call in (ask_many, ask_each):
        world = MiniWorld()
        world.builder.register_domain(suffix, wildcard_address="198.18.0.99")
        world.service.wildcard_suffixes = (suffix,)
        node = ResolverNode(world.infra.address_at(42000),
                            resolution_service=world.service)
        world.network.register(node)
        rounds = []
        for advance in (0, 30, 200):
            world.clock.advance(advance)
            monkeypatch.setattr(ResolverNode, "_honest_response", counted)
            rounds.append([[row_fields(row) for row in rows]
                           for rows in client_call(
                               world.network, OUTSIDE_CLIENT, 33000,
                               node.ip, questions)])
            monkeypatch.undo()
        sides.append((rounds, world.network.udp_queries_sent,
                      world.service.full_resolutions))
        if client_call is ask_many:
            assert built == []
    assert sides[0] == sides[1]
    ttls = [[row[3][0][1] for rows in answers for row in rows]
            for answers in sides[0][0]]
    assert ttls[1] == [ttl - 30 for ttl in ttls[0]]
    assert ttls[2] == [ttl - 200 for ttl in ttls[1]]
    assert len(built) == 6
