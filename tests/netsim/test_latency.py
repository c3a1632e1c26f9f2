"""Property tests for the latency model."""

from hypothesis import given, strategies as st

from repro.netsim import Network, SimClock
from repro.netsim.address import ip_to_int

OCTET = st.integers(min_value=1, max_value=223)


def make_network():
    return Network(SimClock(), seed=1)


@given(OCTET, OCTET, OCTET, OCTET)
def test_latency_bounds(a, b, c, d):
    network = make_network()
    src = "%d.0.0.%d" % (a, b)
    dst = "%d.0.0.%d" % (c, d)
    latency = network.latency(ip_to_int(src), ip_to_int(dst))
    assert network.base_latency <= latency <= network.base_latency + 0.18


@given(OCTET, OCTET)
def test_latency_deterministic(a, b):
    network = make_network()
    src = "%d.1.2.3" % a
    dst = "%d.3.2.1" % b
    assert network.latency(ip_to_int(src), ip_to_int(dst)) == \
        network.latency(ip_to_int(src), ip_to_int(dst))


def test_latency_varies_across_pairs():
    network = make_network()
    values = {network.latency(ip_to_int("1.0.0.1"),
                               ip_to_int("2.0.0.%d" % i))
              for i in range(1, 60)}
    assert len(values) > 30, "latency should spread, not collapse"


def test_gfw_injection_beats_any_genuine_latency():
    # The injector's fixed 4ms must undercut the minimum RTT (2x base).
    network = make_network()
    from repro.netsim.gfw import GreatFirewall
    gfw = GreatFirewall([], [])
    assert gfw.injection_latency < 2 * network.base_latency
