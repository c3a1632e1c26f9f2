"""On-path middleboxes: scan blockers and DNS ingress/egress filters.

Section 2.3 of the paper attributes vanished resolver populations to three
causes: (i) the measurement source being blocked at the network level,
(ii) newly deployed DNS ingress/egress filtering, and (iii) genuine
shutdowns.  The first two are middleboxes here, so the verification-scan
methodology (scan again from a second /8) can be reproduced.
"""

from repro.netsim.address import PrefixSet, ip_to_int


# Path verdicts: how a middlebox relates to one (src, dst, dst_port)
# path at the network's current clock.  The network asks per packet —
# boxes answering PATH_IGNORE are never handed the packet itself, so the
# verdict must be cheap: integer arithmetic on the addressing tuple, no
# text parsing.
PATH_IGNORE = "ignore"    # never affects packets on this path right now
PATH_DROP = "drop"        # drops every query on this path right now
PATH_INSPECT = "inspect"  # must see each packet (payload-dependent)


class Middlebox:
    """Base middlebox: sees every packet, may drop or inject."""

    # Flight-recorder attribution for drops this box causes: when a
    # box's verdict (or drops_query/drops_response) kills a packet, the
    # network records this cause string against the loss event.  None
    # falls back to the generic "middlebox_drop"; defensive boxes
    # (:mod:`repro.netsim.defense`) set ``defense:*`` causes.
    drop_cause = None

    def path_verdict(self, src_ip, dst_int, dst_port, network):
        """Classify this box's effect on a path (see PATH_* above).

        ``dst_int`` is the destination as a 32-bit integer — the network
        hands middleboxes the numeric form so per-packet verdicts stay
        free of dotted-quad parsing (scans visit millions of distinct
        destinations, so per-destination string caches never hit).  The
        conservative default inspects everything.  Boxes whose behaviour
        is a pure function of the addressing tuple and the clock should
        return PATH_IGNORE or PATH_DROP so the network can skip them on
        the hot path.
        """
        return PATH_INSPECT

    def drops_query(self, packet, network):
        """Return True to silently drop the query before delivery."""
        return False

    def drops_response(self, query_packet, response_packet, network):
        """Return True to silently drop a response on its way back.

        ``response_packet.payload`` may be unrendered (a ``WireReply``);
        ``bytes()`` of it gives the datagram."""
        return False

    def inject_responses(self, packet, network):
        """Return a list of :class:`UdpResponse` to inject for this query."""
        return []

    def acts_on(self, question):
        """False promises that, on a path this box inspects, a stub query
        of ``(qname, qtype, qclass, txid)`` meets no injection, no drop
        and no other effect here -- so the network may settle it without
        a packet (:meth:`repro.netsim.network.Network._datagram`)."""
        return True

    def scan_interest(self, src_ip, dst_port, network, qname_suffix=None):
        """Destinations this box may affect for ``(src_ip, dst_port)`` at
        the network's current clock, as ``(base, mask)`` ranges.

        ``qname_suffix``, when given, promises every probe in the sweep
        queries a name under that suffix — payload-inspecting boxes may
        use it to prove themselves inert.  ``[]`` means "no
        destination" (the box is inert for this scan source right now);
        ``None`` means "cannot enumerate" and forces the scanner back
        onto the per-packet path for every probe.  The batched scan
        sweep uses this once per scan to split the target space into a
        bulk-settled cold region and a fully-simulated hot region, so
        an over-wide answer costs only speed — an under-wide one would
        change results, hence the conservative default.
        """
        return None


class ScannerBlocker(Middlebox):
    """Blocks all traffic from specific source addresses into a set of
    prefixes — explanation (i): "our requests were blocked at the network
    level".  A verification scan from a different source IP still gets
    through, which is how the paper distinguished this case."""

    def __init__(self, blocked_sources, protected_networks, active_after=0.0):
        self.blocked_sources = frozenset(blocked_sources)
        self.protected_networks = list(protected_networks)
        self.active_after = active_after
        self._protected = PrefixSet(self.protected_networks)

    def path_verdict(self, src_ip, dst_int, dst_port, network):
        if (network.clock.now < self.active_after
                or src_ip not in self.blocked_sources):
            return PATH_IGNORE
        return PATH_DROP if dst_int in self._protected else PATH_IGNORE

    def drops_query(self, packet, network):
        if network.clock.now < self.active_after:
            return False
        return (packet.src_ip in self.blocked_sources
                and ip_to_int(packet.dst_ip) in self._protected)

    def scan_interest(self, src_ip, dst_port, network, qname_suffix=None):
        """Mirror of :meth:`path_verdict` over a whole scan: inert unless
        active and the source is blocked, else the protected ranges."""
        if (network.clock.now < self.active_after
                or src_ip not in self.blocked_sources):
            return []
        return self._protected.masks


class DnsIngressFilter(Middlebox):
    """Blocks DNS (port 53) traffic entering a set of prefixes from anywhere
    outside them — explanation (ii): ISP-deployed DNS ingress filtering.
    Unlike :class:`ScannerBlocker` this also defeats verification scans."""

    def __init__(self, protected_networks, active_after=0.0, port=53):
        self.protected_networks = list(protected_networks)
        self.active_after = active_after
        self.port = port
        self._filtered = PrefixSet(self.protected_networks)

    def _inside(self, ip):
        return ip_to_int(ip) in self._filtered

    def path_verdict(self, src_ip, dst_int, dst_port, network):
        if (dst_port != self.port
                or network.clock.now < self.active_after
                or self._inside(src_ip)):
            return PATH_IGNORE
        return PATH_DROP if dst_int in self._filtered else PATH_IGNORE

    def drops_query(self, packet, network):
        if network.clock.now < self.active_after:
            return False
        return (packet.dst_port == self.port
                and self._inside(packet.dst_ip)
                and not self._inside(packet.src_ip))

    def scan_interest(self, src_ip, dst_port, network, qname_suffix=None):
        """Inert unless filtering this port, active, and the scan source
        sits outside the filtered prefixes; else the filtered ranges."""
        if (dst_port != self.port
                or network.clock.now < self.active_after
                or self._inside(src_ip)):
            return []
        return self._filtered.masks
