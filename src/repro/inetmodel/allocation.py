"""Carving the simulated IPv4 space into autonomous systems and hosts.

:class:`PrefixAllocator` hands out aligned CIDR blocks from a configurable
super-range, skipping reserved space, so every autonomous system in the
scenario gets disjoint address space and prefix lookup can use a sorted
table.  :class:`AddressPlan` is where a world gets every address from: it
numbers the ASes, carves their prefixes from two regions, and hands out
each block's hosts through one :class:`HostBlock` cursor, so an address is
never handed out twice.
"""

import itertools

from repro.inetmodel.asdb import AutonomousSystem
from repro.netsim.address import Ipv4Network, int_to_ip, ip_to_int, is_reserved


class PrefixAllocator:
    """Sequentially allocates aligned, non-overlapping CIDR blocks."""

    def __init__(self, start="1.0.0.0", end="223.255.255.255"):
        self._cursor = ip_to_int(start)
        self._end = ip_to_int(end)
        self.allocated = []

    def allocate(self, prefix_length):
        """Allocate the next free block of the given prefix length."""
        size = 1 << (32 - prefix_length)
        cursor = (self._cursor + size - 1) // size * size  # align
        while True:
            if cursor + size - 1 > self._end:
                raise RuntimeError("address space exhausted")
            block = Ipv4Network("%s/%d" % (int_to_ip(cursor), prefix_length))
            # Skip blocks that collide with reserved ranges.
            if is_reserved(block.base) or is_reserved(block.base + size - 1):
                cursor += size
                continue
            self._cursor = cursor + size
            self.allocated.append(block)
            return block


class AddressPlanError(ValueError):
    """An address handed out twice, or one outside its block."""


class HostBlock:
    """One prefix and the hosts handed out inside it.

    :meth:`next` hands out hosts in order from the declared ``first``
    offset; :meth:`host` hands out one named host at a fixed offset.
    Both raise :class:`AddressPlanError` for an address already handed
    out or one outside the prefix.  ``asys`` is the AS the block was
    carved for (``None`` for a block made outside a plan).
    """

    def __init__(self, prefix, first=1, asys=None):
        self.prefix = prefix
        self.asys = asys
        self._cursor = first
        self._taken = set()

    def host(self, offset):
        if not 0 <= offset < self.prefix.num_addresses:
            raise AddressPlanError("host %d is outside %s"
                                   % (offset, self.prefix.cidr))
        if offset in self._taken:
            raise AddressPlanError("host %d of %s is handed out twice"
                                   % (offset, self.prefix.cidr))
        self._taken.add(offset)
        return self.prefix.address_at(offset)

    def next(self):
        ip = self.host(self._cursor)
        self._cursor += 1
        return ip


class AddressPlan:
    """Every AS number, prefix and host a world hands out.

    Two regions: ``main`` from ``1.0.0.0`` up, and ``vantage``, the far
    end of the space the verification scan runs from (a different /8,
    §2.2).  ASNs count up from :attr:`FIRST_ASN` in the order blocks are
    carved.
    """

    FIRST_ASN = 64501
    REGIONS = {"main": "1.0.0.0", "vantage": "203.64.0.0"}

    def __init__(self, registry):
        self.registry = registry
        self._asns = itertools.count(self.FIRST_ASN)
        self._regions = {name: PrefixAllocator(start=start)
                         for name, start in self.REGIONS.items()}

    def block(self, name, country, kind, prefix_length, first=1,
              region="main"):
        """Carve one ``/prefix_length`` from ``region``, register it as
        the AS ``name``, and return its :class:`HostBlock`."""
        prefix = self._regions[region].allocate(prefix_length)
        asys = AutonomousSystem(next(self._asns), name, country, kind,
                                [prefix])
        self.registry.add(asys)
        return HostBlock(prefix, first, asys)
