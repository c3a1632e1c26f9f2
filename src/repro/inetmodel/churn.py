"""IP address churn: DHCP-style lease expiry and address reassignment.

Figure 2 of the paper shows 52.2% of resolvers changing address within a
week and >40% within a day, driven by short DHCP leases on consumer
broadband links.  Here every dynamic host has a lease inside its ISP's
pool prefix; when the simulated clock passes the expiry the host rebinds
to a fresh address in the pool, and its (dynamic-looking) rDNS record
follows it.  Hosts may also be permanently decommissioned (``offline_after``),
which is what drives the population decline in Figure 1.
"""

import random

from repro.inetmodel.rdns import dynamic_pool_name
from repro.netsim.address import forget, ip_to_int


class LeasedHost:
    """A network node living on a (possibly dynamic) leased address.

    Slotted: the lazy population keeps one of these per pool member
    even when the member itself is a 17-byte derivation record, so at
    a million members the per-host ``__dict__`` would be the single
    biggest remaining O(population) allocation (~100 B/host saved).
    """

    __slots__ = ("node", "pool", "lease_duration", "offline_after",
                 "online_after", "isp_domain", "expires_at", "online")

    def __init__(self, node, pool, lease_duration=None, offline_after=None,
                 isp_domain=None, online_after=None):
        self.node = node
        self.pool = pool
        self.lease_duration = lease_duration  # None => static address
        self.offline_after = offline_after    # None => never decommissioned
        self.online_after = online_after      # None => online from the start
        self.isp_domain = isp_domain
        self.expires_at = None
        self.online = online_after is None

    @property
    def dynamic(self):
        return self.lease_duration is not None

    def __repr__(self):
        return "LeasedHost(%r, dynamic=%s, online=%s)" % (
            self.node.ip, self.dynamic, self.online)


class ChurnModel:
    """Drives lease expiry, rebinding, and decommissioning for a host set."""

    def __init__(self, network, rdns=None, seed=0):
        self.network = network
        self.rdns = rdns
        self._rng = random.Random(seed)
        self._hosts = []
        self._pool_used = {}  # pool.base -> set of used offsets
        self.rebind_count = 0
        self.offline_count = 0

    def add(self, host):
        """Track a host; schedules its first lease expiry."""
        self._hosts.append(host)
        pool = host.pool
        used = self._pool_used.setdefault(pool.base, set())
        used.add(ip_to_int(host.node.ip) - pool.base)
        if host.dynamic:
            host.expires_at = (self.network.clock.now
                               + self._jittered(host.lease_duration))

    def allocate_address(self, pool):
        """Reserve and return a free address inside ``pool``."""
        return pool.address_at(self._free_offset(pool))

    def hosts(self):
        return list(self._hosts)

    def _jittered(self, duration):
        """Lease lengths vary around the nominal duration (0.5x - 1.5x)."""
        return duration * (0.5 + self._rng.random())

    def _free_offset(self, pool):
        used = self._pool_used.setdefault(pool.base, set())
        if len(used) >= pool.num_addresses - 2:
            raise RuntimeError("pool %s exhausted" % pool.cidr)
        while True:
            # Skip network (0) and broadcast (last) addresses.
            offset = self._rng.randrange(1, pool.num_addresses - 1)
            if offset not in used:
                used.add(offset)
                return offset

    def _release(self, host):
        used = self._pool_used.get(host.pool.base)
        if used is not None:
            used.discard(ip_to_int(host.node.ip) - host.pool.base)

    def rebind(self, host):
        """Move a host to a fresh address within its pool; the old one
        leaves the address memos, which would otherwise keep every lease
        a long campaign hands out."""
        old_ip = host.node.ip
        self._release(host)
        new_ip = host.pool.address_at(self._free_offset(host.pool))
        self.network.rebind(host.node, new_ip)
        forget(old_ip)
        if self.rdns is not None:
            self.rdns.remove(old_ip)
            if host.isp_domain:
                self.rdns.set_ptr(
                    new_ip, dynamic_pool_name(new_ip, host.isp_domain))
        host.expires_at = (self.network.clock.now
                           + self._jittered(host.lease_duration))
        self.rebind_count += 1

    def take_offline(self, host):
        """Permanently decommission a host."""
        self._release(host)
        self.network.unregister(host.node.ip)
        forget(host.node.ip)
        if self.rdns is not None:
            self.rdns.remove(host.node.ip)
        host.online = False
        self.offline_count += 1

    def bring_online(self, host):
        """Activate a host whose ``online_after`` has arrived."""
        self.network.register(host.node)
        if self.rdns is not None and host.isp_domain:
            if host.dynamic:
                self.rdns.set_ptr(host.node.ip, dynamic_pool_name(
                    host.node.ip, host.isp_domain))
        host.online = True
        host.online_after = None
        if host.dynamic:
            host.expires_at = (self.network.clock.now
                               + self._jittered(host.lease_duration))

    def pending_churn(self, horizon=0.0):
        """Forecast: pool cidr -> count of lifecycle events due soon.

        An event is "due" when :meth:`step` called within ``horizon``
        seconds of the current clock would apply it: a dynamic lease
        expiring (rebind), a decommission (``offline_after``), or a
        scheduled arrival (``online_after``).  Pure read — no RNG draw,
        no state change — so a delta-scanning campaign can ask "which
        pools will move this week?" before advancing the model, and a
        resumed campaign asking again gets the identical answer.
        """
        deadline = self.network.clock.now + horizon
        pending = {}
        for host in self._hosts:
            if not host.online:
                due = (host.online_after is not None
                       and host.online_after <= deadline)
            elif host.offline_after is not None \
                    and host.offline_after <= deadline:
                due = True
            else:
                due = (host.dynamic and host.expires_at is not None
                       and host.expires_at <= deadline)
            if due:
                cidr = host.pool.cidr
                pending[cidr] = pending.get(cidr, 0) + 1
        return pending

    def step(self):
        """Apply all expiries/decommissions due at the current clock time."""
        now = self.network.clock.now
        for host in self._hosts:
            if not host.online:
                if host.online_after is not None and now >= host.online_after:
                    self.bring_online(host)
                continue
            if host.offline_after is not None and now >= host.offline_after:
                self.take_offline(host)
                continue
            if host.dynamic:
                # A long step may span several leases; one rebind per step
                # is enough since intermediate addresses were never observed.
                if host.expires_at is not None and now >= host.expires_at:
                    self.rebind(host)
