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


def test_released_leases_leave_the_address_memos(monkeypatch):
    """Each rebind hands out a fresh address; a long campaign hands out
    more than the conversion memos hold.  A released lease (a rebind or
    a decommission) leaves both memos, so they keep what is in use."""
    from repro.netsim import address
    memos = {}, {}
    monkeypatch.setattr(address, "_INT_CACHE", memos[0])
    monkeypatch.setattr(address, "_TEXT_CACHE", memos[1])
    network, __, churn, pool = make_world()
    hosts = [add_host(churn, network, pool, lease_duration=DAY,
                      offline_after=30 * DAY if index % 10 == 0 else None)
             for index in range(100)]
    # What the world converted besides leases (the pool's own bounds).
    others = set(memos[0]) - {host.node.ip for host in hosts}
    for __ in range(20):
        network.clock.advance(2 * DAY)
        churn.step()
        # What the sweep and the replies convert: every address in use.
        for host in hosts:
            if host.online:
                address.int_to_ip(address.ip_to_int(host.node.ip))
    assert churn.rebind_count > 1000 and churn.offline_count == 10
    in_use = {host.node.ip for host in hosts if host.online} | others
    assert set(memos[0]) == in_use
    assert set(memos[1].values()) <= in_use
