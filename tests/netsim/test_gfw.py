"""Tests for the Great Firewall injector."""

from repro.dnswire import Message, QTYPE_NS
from repro.netsim import GreatFirewall, Ipv4Network, Network, SimClock, \
    UdpPacket
from repro.netsim.network import Node

CN_PREFIX = Ipv4Network("110.0.0.0/8")


class HonestNode(Node):
    def handle_udp(self, packet, network):
        query = Message.from_wire(packet.payload)
        return query.make_response().to_wire()


def make_gfw(**kwargs):
    return GreatFirewall([CN_PREFIX], ["facebook.com", "twitter.com"],
                         seed=3, **kwargs)


def make_network(gfw):
    network = Network(SimClock(), seed=1)
    network.add_middlebox(gfw)
    return network


def query_packet(name, src="1.0.0.1", dst="110.0.0.5", qtype=None):
    from repro.dnswire.constants import QTYPE_A
    query = Message.query(name, qtype=qtype or QTYPE_A, txid=77)
    return UdpPacket(src, 5353, dst, 53, query.to_wire())


class TestCensorsName:
    def test_exact_and_subdomain(self):
        gfw = make_gfw()
        assert gfw.censors_name("facebook.com")
        assert gfw.censors_name("www.facebook.com")
        assert gfw.censors_name("api.Twitter.COM")
        assert not gfw.censors_name("example.com")
        assert not gfw.censors_name("notfacebook.com")


class TestInjection:
    def test_inject_on_crossing_censored_query(self):
        network = make_network(make_gfw())
        responses = network.send_udp(query_packet("facebook.com"))
        assert len(responses) == 1
        assert responses[0].injected
        message = Message.from_wire(responses[0].packet.payload)
        assert message.header.txid == 77
        assert message.a_addresses()
        # Injection happens even with NO host at the target address —
        # the paper's probes to random Chinese ranges.

    def test_injection_races_ahead_of_genuine_answer(self):
        network = make_network(make_gfw())
        network.register(HonestNode("110.0.0.5"))
        responses = network.send_udp(query_packet("facebook.com"))
        assert len(responses) == 2
        assert responses[0].injected
        assert not responses[1].injected

    def test_no_injection_for_uncensored_name(self):
        network = make_network(make_gfw())
        assert network.send_udp(query_packet("example.com")) == []

    def test_no_injection_inside_to_inside(self):
        network = make_network(make_gfw())
        packet = query_packet("facebook.com", src="110.0.0.1",
                              dst="110.0.0.2")
        assert network.send_udp(packet) == []

    def test_outbound_crossing_also_injected(self):
        network = make_network(make_gfw())
        packet = query_packet("facebook.com", src="110.0.0.1",
                              dst="1.2.3.4")
        responses = network.send_udp(packet)
        assert len(responses) == 1 and responses[0].injected

    def test_non_a_queries_pass(self):
        network = make_network(make_gfw())
        assert network.send_udp(
            query_packet("facebook.com", qtype=QTYPE_NS)) == []

    def test_non_dns_port_passes(self):
        network = make_network(make_gfw())
        query = Message.query("facebook.com").to_wire()
        packet = UdpPacket("1.0.0.1", 5353, "110.0.0.5", 8080, query)
        assert network.send_udp(packet) == []

    def test_forged_bytes_are_pinned(self):
        """A censored exchange, captured before the forged answer was
        written by ``answer_wire`` (8ff27f8): the query's header and
        question echoed, one A record behind a pointer to the name."""
        query = bytes.fromhex(
            "123401000001000000000000037777770846616365426f6f6b03636f6d"
            "0000010001")
        network = make_network(make_gfw())
        responses = network.send_udp(
            UdpPacket("1.0.0.1", 5353, "110.0.0.5", 53, query))
        assert [response.packet.payload.hex() for response in responses] \
            == ["123481800001000100000000037777770846616365426f6f6b03636f"
                "6d0000010001c00c000100010000012c0004505e0fc1"]

    def test_injection_counter(self):
        gfw = make_gfw()
        network = make_network(gfw)
        network.send_udp(query_packet("facebook.com"))
        network.send_udp(query_packet("twitter.com"))
        assert gfw.injection_count == 2


class TestForgedAddresses:
    def test_deterministic_per_name_and_client(self):
        gfw = make_gfw()
        first = gfw.forged_address("facebook.com", client_key="1.1.1.1")
        second = gfw.forged_address("facebook.com", client_key="1.1.1.1")
        assert first == second

    def test_varies_by_client(self):
        gfw = make_gfw()
        addresses = {gfw.forged_address("facebook.com",
                                        client_key="1.1.1.%d" % i)
                     for i in range(30)}
        assert len(addresses) > 10

    def test_decoy_pool_used(self):
        gfw = make_gfw(decoy_pool=["9.9.9.9"], decoy_share=1.0)
        assert gfw.forged_address("facebook.com", "c") == "9.9.9.9"

    def test_forged_is_global_unicast(self):
        from repro.netsim.address import ip_to_int
        gfw = make_gfw()
        for i in range(50):
            value = ip_to_int(gfw.forged_address("facebook.com", str(i)))
            assert ip_to_int("1.0.0.0") <= value < ip_to_int("224.0.0.0")
