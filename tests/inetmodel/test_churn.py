"""Tests for the DHCP-lease churn model."""

from repro.inetmodel import ChurnModel, LeasedHost, PrefixAllocator, \
    RdnsRegistry
from repro.inetmodel.rdns import has_dynamic_token
from repro.netsim import Network, Node, SimClock
from repro.netsim.clock import DAY, WEEK


def make_world():
    network = Network(SimClock(), seed=1)
    rdns = RdnsRegistry()
    churn = ChurnModel(network, rdns=rdns, seed=2)
    pool = PrefixAllocator().allocate(22)
    return network, rdns, churn, pool


def add_host(churn, network, pool, **kwargs):
    ip = churn.allocate_address(pool)
    node = Node(ip)
    host = LeasedHost(node, pool, **kwargs)
    if host.online:
        network.register(node)
    churn.add(host)
    return host


class TestLeases:
    def test_static_host_never_rebinds(self):
        network, __, churn, pool = make_world()
        host = add_host(churn, network, pool, lease_duration=None)
        original = host.node.ip
        network.clock.advance(100 * WEEK)
        churn.step()
        assert host.node.ip == original
        assert churn.rebind_count == 0

    def test_dynamic_host_rebinds_after_expiry(self):
        network, rdns, churn, pool = make_world()
        host = add_host(churn, network, pool, lease_duration=DAY,
                        isp_domain="isp.example")
        original = host.node.ip
        network.clock.advance(2 * DAY)
        churn.step()
        assert host.node.ip != original
        assert network.node_at(host.node.ip) is host.node
        assert network.node_at(original) is None
        assert churn.rebind_count == 1

    def test_rebind_updates_rdns(self):
        network, rdns, churn, pool = make_world()
        host = add_host(churn, network, pool, lease_duration=DAY,
                        isp_domain="isp.example")
        original = host.node.ip
        rdns.set_ptr(original, "host-x.dynamic.isp.example")
        network.clock.advance(2 * DAY)
        churn.step()
        assert rdns.ptr(original) is None
        new_name = rdns.ptr(host.node.ip)
        assert new_name and has_dynamic_token(new_name)

    def test_no_rebind_before_expiry(self):
        network, __, churn, pool = make_world()
        host = add_host(churn, network, pool, lease_duration=10 * WEEK)
        network.clock.advance(DAY)
        churn.step()
        assert churn.rebind_count == 0

    def test_rebind_stays_in_pool(self):
        network, __, churn, pool = make_world()
        host = add_host(churn, network, pool, lease_duration=DAY)
        for __i in range(5):
            network.clock.advance(2 * DAY)
            churn.step()
            assert host.node.ip in pool


class TestLifecycle:
    def test_offline_after(self):
        network, rdns, churn, pool = make_world()
        host = add_host(churn, network, pool, lease_duration=None,
                        offline_after=WEEK)
        ip = host.node.ip
        rdns.set_ptr(ip, "static-x.isp.example")
        network.clock.advance(2 * WEEK)
        churn.step()
        assert not host.online
        assert network.node_at(ip) is None
        assert rdns.ptr(ip) is None
        assert churn.offline_count == 1

    def test_online_after(self):
        network, __, churn, pool = make_world()
        host = add_host(churn, network, pool, lease_duration=None,
                        online_after=WEEK)
        assert not host.online
        assert network.node_at(host.node.ip) is None
        network.clock.advance(2 * WEEK)
        churn.step()
        assert host.online
        assert network.node_at(host.node.ip) is host.node

    def test_online_then_offline(self):
        network, __, churn, pool = make_world()
        host = add_host(churn, network, pool, lease_duration=None,
                        online_after=WEEK, offline_after=5 * WEEK)
        network.clock.advance(2 * WEEK)
        churn.step()
        assert host.online
        network.clock.advance(10 * WEEK)
        churn.step()
        assert not host.online

    def test_addresses_unique(self):
        network, __, churn, pool = make_world()
        hosts = [add_host(churn, network, pool, lease_duration=DAY)
                 for __i in range(50)]
        for __i in range(4):
            network.clock.advance(2 * DAY)
            churn.step()
            addresses = [host.node.ip for host in hosts]
            assert len(set(addresses)) == len(addresses)

    def test_allocate_address_reserves(self):
        network, __, churn, pool = make_world()
        first = churn.allocate_address(pool)
        second = churn.allocate_address(pool)
        assert first != second
