"""IPv4 address arithmetic and well-known reserved ranges.

A tiny, dependency-free equivalent of the pieces of :mod:`ipaddress` the
scanners need, plus the private/unallocated ranges the paper's Internet-wide
scans exclude.
"""

from bisect import bisect_left, bisect_right
from itertools import chain

# Conversion memos: scans touch every address of every target prefix each
# week, so both directions are called hundreds of thousands of times per
# simulated week on a small, recurring working set.  Capped so unbounded
# address churn cannot grow them without limit; a released DHCP lease
# leaves them (:func:`forget`), so a long campaign does not fill them.
_INT_CACHE = {}
_TEXT_CACHE = {}
_CACHE_LIMIT = 1 << 18


def ip_to_int(text):
    """Convert dotted-quad text to a 32-bit integer."""
    value = _INT_CACHE.get(text)
    if value is not None:
        return value
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError("bad IPv4 address %r" % text)
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError("bad IPv4 address %r" % text)
        value = (value << 8) | octet
    if len(_INT_CACHE) < _CACHE_LIMIT:
        _INT_CACHE[text] = value
    return value


def int_to_ip(value):
    """Convert a 32-bit integer to dotted-quad text."""
    text = _TEXT_CACHE.get(value)
    if text is not None:
        return text
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError("IPv4 integer out of range: %r" % value)
    text = "%d.%d.%d.%d" % (value >> 24, (value >> 16) & 0xFF,
                            (value >> 8) & 0xFF, value & 0xFF)
    if len(_TEXT_CACHE) < _CACHE_LIMIT:
        _TEXT_CACHE[value] = text
    return text


def forget(text):
    """Drop the address ``text`` from both conversion memos."""
    value = _INT_CACHE.pop(text, None)
    if value is not None:
        _TEXT_CACHE.pop(value, None)


class Ipv4Network:
    """A CIDR prefix, e.g. ``Ipv4Network("10.0.0.0/8")``."""

    def __init__(self, cidr):
        base_text, __, length_text = cidr.partition("/")
        self.prefix_length = int(length_text) if length_text else 32
        if not 0 <= self.prefix_length <= 32:
            raise ValueError("bad prefix length in %r" % cidr)
        self.mask = (0xFFFFFFFF << (32 - self.prefix_length)) & 0xFFFFFFFF
        self.base = ip_to_int(base_text) & self.mask

    @property
    def cidr(self):
        return "%s/%d" % (int_to_ip(self.base), self.prefix_length)

    @property
    def num_addresses(self):
        return 1 << (32 - self.prefix_length)

    def __contains__(self, address):
        if isinstance(address, str):
            address = ip_to_int(address)
        return (address & self.mask) == self.base

    def contains_int(self, value):
        return (value & self.mask) == self.base

    def address_at(self, index):
        """The dotted-quad address ``index`` positions into the prefix."""
        if not 0 <= index < self.num_addresses:
            raise IndexError("index %d outside %s" % (index, self.cidr))
        return int_to_ip(self.base + index)

    def __eq__(self, other):
        return isinstance(other, Ipv4Network) and (
            other.base, other.prefix_length) == (self.base, self.prefix_length)

    def __hash__(self):
        return hash((self.base, self.prefix_length))

    def __repr__(self):
        return "Ipv4Network(%r)" % self.cidr


# Ranges excluded from Internet-wide scans: private, loopback, link-local,
# multicast, reserved, and documentation space.
RESERVED_NETWORKS = tuple(Ipv4Network(cidr) for cidr in (
    "0.0.0.0/8",
    "10.0.0.0/8",
    "100.64.0.0/10",
    "127.0.0.0/8",
    "169.254.0.0/16",
    "172.16.0.0/12",
    "192.0.0.0/24",
    "192.0.2.0/24",
    "192.168.0.0/16",
    "198.18.0.0/15",
    "198.51.100.0/24",
    "203.0.113.0/24",
    "224.0.0.0/4",
    "240.0.0.0/4",
))

_PRIVATE_NETWORKS = tuple(Ipv4Network(cidr) for cidr in (
    "10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16", "169.254.0.0/16",
    "127.0.0.0/8",
))


def is_reserved(address):
    """True when the address falls in a range excluded from scanning."""
    value = ip_to_int(address) if isinstance(address, str) else address
    return any(net.contains_int(value) for net in RESERVED_NETWORKS)


def is_private(address):
    """True for RFC1918/loopback/link-local space (LAN addresses).

    The pipeline uses this to recognise resolvers that answer with LAN IPs
    (a captive-portal / router-login signature, §4.2).
    """
    value = ip_to_int(address) if isinstance(address, str) else address
    return any(net.contains_int(value) for net in _PRIVATE_NETWORKS)


def address_positions(addresses, addresses_sorted, values, ranges):
    """The positions ``i >= 1`` where ``addresses[i]`` is one of
    ``values`` or lies in one of the ``(base, mask)`` CIDR ``ranges``,
    as an iterable that may name a position twice (slot 0 of a sweep's
    address column is a sentinel, never named).

    A column ascending from slot 1 (``addresses_sorted``) costs one
    bisect per value and two per range, whose positions come as one
    ``range``; any other column is read once.
    """
    if not addresses_sorted:
        values = set(values)
        index = RangeIndex(ranges)
        return (position for position, value in enumerate(addresses)
                if position and (value in values
                                 or index.find(value) is not None))
    end = len(addresses)
    found = []
    for value in values:
        position = bisect_left(addresses, value, 1)
        if position < end and addresses[position] == value:
            found.append(position)
    return chain(found, *(
        range(bisect_left(addresses, base, 1),
              bisect_right(addresses, base | (~mask & 0xFFFFFFFF), 1))
        for base, mask in ranges))


class RangeIndex:
    """First-match lookup over a list of ``(base, mask)`` CIDR ranges.

    ``find(value)`` is the position of the first listed range holding
    ``value`` (``None`` when none does) — what a pass over the list
    answers, at one dict lookup per distinct mask.
    """

    def __init__(self, ranges):
        by_mask = {}
        for position, (base, mask) in enumerate(ranges):
            by_mask.setdefault(mask, {}).setdefault(base, position)
        self._by_mask = tuple(by_mask.items())

    def find(self, value):
        found = None
        for mask, bases in self._by_mask:
            position = bases.get(value & mask)
            if position is not None and (found is None or position < found):
                found = position
        return found


class PrefixSet:
    """Whether an integer address lies in a fixed list of CIDR
    ``networks``, answered without a memo: a first-octet guard turns
    almost every outside address away in one lookup, the mask loop
    answers the rest.  ``masks`` lists the ``(base, mask)`` ranges."""

    __slots__ = ("masks", "_octets")

    def __init__(self, networks):
        self.masks = [(net.base, net.mask) for net in networks]
        self._octets = frozenset(
            octet for base, mask in self.masks
            for octet in range(base >> 24, (base >> 24) + 1
                               + ((~mask & 0xFFFFFFFF) >> 24)))

    def __contains__(self, value):
        if value >> 24 not in self._octets:
            return False
        for base, mask in self.masks:
            if value & mask == base:
                return True
        return False


def reverse_pointer_name(address):
    """The in-addr.arpa name for an address, used for rDNS lookups."""
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError("bad IPv4 address %r" % address)
    return ".".join(reversed(parts)) + ".in-addr.arpa"


def same_slash24(left, right):
    """True when two addresses share their /24 prefix (§4.2 heuristic)."""
    return (ip_to_int(left) >> 8) == (ip_to_int(right) >> 8)
