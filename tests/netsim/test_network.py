"""Tests for the network core: routing, loss, latency, middleboxes."""

import pytest

from repro.netsim import Network, Node, SimClock, UdpPacket
from repro.netsim.address import ip_to_int
from repro.netsim.middlebox import Middlebox
from repro.netsim.network import UdpResponse


class EchoNode(Node):
    """Replies with its own IP as payload."""

    def handle_udp(self, packet, network):
        return b"echo:" + self.ip.encode()


class MultiReplyNode(Node):
    """Replies twice, once from a different source address."""

    def handle_udp(self, packet, network):
        return [(b"first", None), (b"second", "9.9.9.9")]


class SilentNode(Node):
    def handle_udp(self, packet, network):
        return None


def make_network(loss_rate=0.0, seed=1):
    return Network(SimClock(), seed=seed, loss_rate=loss_rate)


def probe(network, dst="2.0.0.1"):
    packet = UdpPacket("1.0.0.1", 1000, dst, 53, b"hi")
    return network.send_udp(packet)


class TestRegistry:
    def test_register_and_lookup(self):
        network = make_network()
        node = EchoNode("2.0.0.1")
        network.register(node)
        assert network.node_at("2.0.0.1") is node
        assert network.node_count == 1

    def test_unregister(self):
        network = make_network()
        network.register(EchoNode("2.0.0.1"))
        network.unregister("2.0.0.1")
        assert network.node_at("2.0.0.1") is None

    def test_rebind_moves_node(self):
        network = make_network()
        node = EchoNode("2.0.0.1")
        network.register(node)
        network.rebind(node, "2.0.0.99")
        assert node.ip == "2.0.0.99"
        assert network.node_at("2.0.0.1") is None
        assert network.node_at("2.0.0.99") is node


class TestUdp:
    def test_delivery_and_reply_addressing(self):
        network = make_network()
        network.register(EchoNode("2.0.0.1"))
        responses = probe(network)
        assert len(responses) == 1
        reply = responses[0].packet
        assert reply.payload == b"echo:2.0.0.1"
        assert reply.src_ip == "2.0.0.1"
        assert reply.dst_ip == "1.0.0.1"
        assert reply.dst_port == 1000
        assert reply.src_port == 53

    def test_no_node_no_response(self):
        assert probe(make_network()) == []

    def test_silent_node(self):
        network = make_network()
        network.register(SilentNode("2.0.0.1"))
        assert probe(network) == []

    def test_divergent_source_reply(self):
        network = make_network()
        network.register(MultiReplyNode("2.0.0.1"))
        responses = probe(network)
        sources = {r.packet.src_ip for r in responses}
        assert sources == {"2.0.0.1", "9.9.9.9"}

    def test_latency_deterministic_and_symmetric_ordering(self):
        network = make_network()
        pair = ip_to_int("1.0.0.1"), ip_to_int("2.0.0.1")
        first = network.latency(*pair)
        second = network.latency(*pair)
        assert first == second
        assert first >= network.base_latency

    def test_full_loss_drops_everything(self):
        network = make_network(loss_rate=1.0)
        network.register(EchoNode("2.0.0.1"))
        assert probe(network) == []
        assert network.udp_queries_lost > 0

    def test_partial_loss_statistics(self):
        network = make_network(loss_rate=0.3, seed=42)
        network.register(EchoNode("2.0.0.1"))
        delivered = sum(1 for __ in range(500) if probe(network))
        # Query AND response each subject to loss: ~0.49 delivery.
        assert 150 < delivered < 350


class DropBox(Middlebox):
    def drops_query(self, packet, network):
        return packet.dst_ip == "2.0.0.1"


class InjectBox(Middlebox):
    def inject_responses(self, packet, network):
        reply = packet.reply(b"forged")
        return [UdpResponse(reply, 0.001, injected=True)]


class ResponseDropBox(Middlebox):
    def drops_response(self, query, response, network):
        return True


class TestMiddleboxes:
    def test_query_drop(self):
        network = make_network()
        network.register(EchoNode("2.0.0.1"))
        network.add_middlebox(DropBox())
        assert probe(network) == []

    def test_drop_is_targeted(self):
        network = make_network()
        network.register(EchoNode("2.0.0.2"))
        network.add_middlebox(DropBox())
        assert probe(network, dst="2.0.0.2")

    def test_injection_arrives_first(self):
        network = make_network()
        network.register(EchoNode("2.0.0.1"))
        network.add_middlebox(InjectBox())
        responses = probe(network)
        assert len(responses) == 2
        assert responses[0].injected
        assert responses[0].packet.payload == b"forged"
        assert responses[1].packet.payload == b"echo:2.0.0.1"
        assert responses[0].latency < responses[1].latency

    def test_response_drop(self):
        network = make_network()
        network.register(EchoNode("2.0.0.1"))
        network.add_middlebox(ResponseDropBox())
        assert probe(network) == []

    def test_injected_wins_exact_latency_tie(self):
        """A forged answer racing the genuine one at the *same* arrival
        time must still be delivered first (the GFW-race ordering the
        paper's double-response detection keys on)."""
        network = make_network()
        network.register(EchoNode("2.0.0.1"))
        tie_latency = network.latency(ip_to_int("1.0.0.1"),
                                      ip_to_int("2.0.0.1")) * 2

        class TieInjector(Middlebox):
            def inject_responses(self, packet, net):
                return [UdpResponse(packet.reply(b"forged"), tie_latency,
                                    injected=True)]

        network.add_middlebox(TieInjector())
        responses = probe(network)
        assert len(responses) == 2
        assert responses[0].latency == responses[1].latency
        assert responses[0].injected
        assert responses[0].packet.payload == b"forged"
        assert not responses[1].injected

    def test_duck_typed_middlebox_without_path_verdict(self):
        """A box that keeps the base class's path_verdict (it overrides
        only the packet hooks) must still see every packet."""

        class DuckDrop(Middlebox):
            def inject_responses(self, packet, network):
                return []

            def drops_query(self, packet, network):
                return packet.dst_ip == "2.0.0.1"

            def drops_response(self, query, response, network):
                return False

        network = make_network()
        network.register(EchoNode("2.0.0.1"))
        network.add_middlebox(DuckDrop())
        assert probe(network) == []
        assert probe(network, dst="2.0.0.2") == []  # no node there

    def test_add_middlebox_refuses_a_non_middlebox(self):
        """The network calls every Middlebox hook with no fallback, so a
        box that is not one is refused where it is added."""

        class NotABox:
            def drops_query(self, packet, network):
                return True

        network = make_network()
        network.register(EchoNode("2.0.0.1"))
        with pytest.raises(TypeError, match="NotABox"):
            network.add_middlebox(NotABox())
        assert network.middleboxes == []
        assert probe(network)


class TestSendProbe:
    def test_send_probe_matches_send_udp(self):
        """The scalar fast path must be fate-for-fate identical to
        packet-based delivery, including loss draws."""
        from repro.netsim.address import ip_to_int

        def run(use_probe):
            network = make_network(loss_rate=0.25, seed=9)
            network.register(EchoNode("2.0.0.1"))
            outcomes = []
            for __ in range(60):
                if use_probe:
                    responses = network.send_probe(
                        "1.0.0.1", 1000, "2.0.0.1", 53,
                        ip_to_int("2.0.0.1"), b"hi")
                else:
                    responses = network.send_udp(UdpPacket(
                        "1.0.0.1", 1000, "2.0.0.1", 53, b"hi"))
                outcomes.append([r.packet.payload for r in responses])
            return outcomes

        assert run(True) == run(False)

    def test_send_probe_dead_address(self):
        network = make_network()
        responses = network.send_probe("1.0.0.1", 1000, "2.0.0.9", 53,
                                       0x0200_0009, b"hi")
        assert list(responses) == []


class TestTcpServices:
    def test_banner_requires_open_port(self):
        network = make_network()

        class BannerNode(Node):
            def tcp_ports(self):
                return frozenset((21,))

            def tcp_banner(self, port, network=None):
                return "220 hello"

        network.register(BannerNode("2.0.0.1"))
        assert network.tcp_banner("1.0.0.1", "2.0.0.1", 21) == "220 hello"
        assert network.tcp_banner("1.0.0.1", "2.0.0.1", 22) is None
        assert network.tcp_banner("1.0.0.1", "9.9.9.9", 21) is None

    def test_http_without_service(self):
        network = make_network()
        network.register(EchoNode("2.0.0.1"))
        from repro.websim.http import HttpRequest
        assert network.http_request("1.0.0.1", "2.0.0.1",
                                    HttpRequest("x.example")) is None

    def test_tls_without_service(self):
        network = make_network()
        network.register(EchoNode("2.0.0.1"))
        assert network.tls_handshake("1.0.0.1", "2.0.0.1") is None
