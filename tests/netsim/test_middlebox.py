"""Tests for scan blockers and DNS ingress filters (§2.3 explanations)."""

from hypothesis import given, strategies as st

from repro.netsim import (
    DnsIngressFilter,
    GreatFirewall,
    Ipv4Network,
    Network,
    ScannerBlocker,
    SimClock,
    UdpPacket,
)
from repro.netsim.address import int_to_ip
from repro.netsim.middlebox import PATH_DROP, PATH_IGNORE, PATH_INSPECT
from repro.netsim.network import Node
from repro.scenario import ScenarioConfig, build_scenario


class AnswerNode(Node):
    def handle_udp(self, packet, network):
        return b"ok"


def build(middlebox):
    network = Network(SimClock(), seed=1)
    network.register(AnswerNode("50.0.0.10"))
    network.add_middlebox(middlebox)
    return network


def dns_probe(network, src="1.0.0.1", dst="50.0.0.10", dport=53):
    return network.send_udp(UdpPacket(src, 1234, dst, dport, b"q"))


class TestScannerBlocker:
    def make(self, active_after=0.0):
        return ScannerBlocker(["1.0.0.1"],
                              [Ipv4Network("50.0.0.0/24")],
                              active_after=active_after)

    def test_blocks_listed_source(self):
        network = build(self.make())
        assert dns_probe(network) == []

    def test_other_source_passes(self):
        # The verification scan from a second /8 still gets through —
        # this is how the paper identified explanation (i).
        network = build(self.make())
        assert dns_probe(network, src="2.0.0.1")

    def test_other_destination_passes(self):
        network = build(self.make())
        network.register(AnswerNode("60.0.0.1"))
        assert dns_probe(network, dst="60.0.0.1")

    def test_inactive_before_activation(self):
        network = build(self.make(active_after=100.0))
        assert dns_probe(network)
        network.clock.advance(200)
        assert dns_probe(network) == []


class TestDnsIngressFilter:
    def make(self, active_after=0.0):
        return DnsIngressFilter([Ipv4Network("50.0.0.0/24")],
                                active_after=active_after)

    def test_blocks_external_dns(self):
        network = build(self.make())
        assert dns_probe(network) == []

    def test_blocks_all_external_sources(self):
        # Unlike the scanner blocker, verification scans fail too.
        network = build(self.make())
        assert dns_probe(network, src="2.0.0.1") == []

    def test_internal_traffic_passes(self):
        network = build(self.make())
        assert dns_probe(network, src="50.0.0.99")

    def test_non_dns_ports_pass(self):
        network = build(self.make())
        assert dns_probe(network, dport=5353)

    def test_activation_time(self):
        network = build(self.make(active_after=10.0))
        assert dns_probe(network)
        network.clock.advance(11)
        assert dns_probe(network) == []


WATCHED = [Ipv4Network("50.0.0.0/24"), Ipv4Network("60.0.0.0/7"),
           Ipv4Network("70.1.2.3/32")]
# Addresses inside, just beside and far from the watched prefixes.
ADDRESSES = st.one_of(
    st.integers(0, 0xFFFFFFFF),
    st.sampled_from([value + delta for net in WATCHED
                     for value in (net.base, net.base + net.num_addresses)
                     for delta in (-1, 0, 1)]))


def watched(value):
    return any(value & net.mask == net.base for net in WATCHED)


class TestVerdictsFromTheInteger:
    """Each box answers "inside these prefixes" from the integer
    address, with no per-address memo: its verdicts are the mask loop's,
    and a campaign leaves nothing behind in the boxes."""

    @given(src=ADDRESSES, dst=ADDRESSES)
    def test_verdicts_are_the_mask_loop(self, src, dst):
        src_ip, dst_ip = int_to_ip(src), int_to_ip(dst)
        network = Network(SimClock(), seed=1)
        packet = UdpPacket(src_ip, 1234, dst_ip, 53, b"q")
        blocker = ScannerBlocker([src_ip], WATCHED)
        assert blocker.path_verdict(src_ip, dst, 53, network) == (
            PATH_DROP if watched(dst) else PATH_IGNORE)
        assert blocker.drops_query(packet, network) == watched(dst)
        ingress = DnsIngressFilter(WATCHED)
        crossing_in = watched(dst) and not watched(src)
        assert ingress.path_verdict(src_ip, dst, 53, network) == (
            PATH_DROP if crossing_in else PATH_IGNORE)
        assert ingress.drops_query(packet, network) == crossing_in
        gfw = GreatFirewall(WATCHED, ["censored.example"])
        assert gfw.path_verdict(src_ip, dst, 53, network) == (
            PATH_INSPECT if watched(src) != watched(dst) else PATH_IGNORE)
        assert gfw.poisons(src_ip, "censored.example") == watched(src)

    def test_no_box_keeps_an_address_memo(self):
        scenario = build_scenario(ScenarioConfig(scale=30000, seed=7))
        boxes = scenario.network.middleboxes
        assert {type(box) for box in boxes} >= {
            GreatFirewall, ScannerBlocker, DnsIngressFilter}
        campaign = scenario.new_campaign(verify=False)

        def memo_sizes():
            return {(type(box).__name__, name): len(value)
                    for box in boxes for name, value in vars(box).items()
                    if isinstance(value, (dict, set))}

        campaign.run_week()
        first = memo_sizes()
        for __ in range(7):
            campaign.run_week()
        assert memo_sizes() == first
