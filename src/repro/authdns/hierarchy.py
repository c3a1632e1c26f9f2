"""Builder for a complete DNS hierarchy: root, TLDs, and domain zones."""

from repro.authdns.server import AuthNsServer
from repro.authdns.zone import Zone, ZoneLookupResult
from repro.dnswire.constants import QTYPE_PTR
from repro.dnswire.name import normalize_name
from repro.dnswire.records import ResourceRecord


class RdnsZone(Zone):
    """A dynamic ``in-addr.arpa`` zone backed by the rDNS registry, so PTR
    data follows churned addresses without rebuilding zone files."""

    def __init__(self, rdns_registry):
        super().__init__("in-addr.arpa")
        self._registry = rdns_registry

    def lookup(self, qname, qtype):
        if qtype == QTYPE_PTR:
            name = normalize_name(qname)
            if name.endswith(".in-addr.arpa"):
                octets = name[:-len(".in-addr.arpa")].split(".")
                if len(octets) == 4:
                    ip = ".".join(reversed(octets))
                    target = self._registry.ptr(ip)
                    if target is not None:
                        return ZoneLookupResult(
                            ZoneLookupResult.ANSWER,
                            records=[ResourceRecord.ptr(qname, target)])
            return ZoneLookupResult(ZoneLookupResult.NXDOMAIN,
                                    authority=[self.soa])
        return super().lookup(qname, qtype)


class DnsHierarchy:
    """The assembled hierarchy: root servers and every zone built so far."""

    def __init__(self, root_ips):
        self.root_ips = list(root_ips)
        self.zones = {}     # origin -> Zone
        self.servers = {}   # origin -> AuthNsServer

    def zone(self, origin):
        return self.zones.get(normalize_name(origin))


class HierarchyBuilder:
    """Creates AuthNS nodes and wires delegations root -> TLD -> domain.

    Server addresses come in order from ``hosts``, the infrastructure
    prefix's :class:`~repro.inetmodel.allocation.HostBlock`, so they are
    disjoint from resolver/content address space and from the block's
    other hosts.
    """

    def __init__(self, network, hosts, rdns_registry=None):
        self.network = network
        self.hosts = hosts
        self.rdns_registry = rdns_registry
        self._root_zone = Zone("", soa_mname="a.root-servers.sim")
        root_ip = hosts.next()
        self._root_server = AuthNsServer(root_ip, [self._root_zone])
        network.register(self._root_server)
        self.hierarchy = DnsHierarchy([root_ip])
        self.hierarchy.zones[""] = self._root_zone
        self.hierarchy.servers[""] = self._root_server
        if rdns_registry is not None:
            self._install_rdns_zone()

    def _install_rdns_zone(self):
        # arpa TLD, then a registry-backed in-addr.arpa zone beneath it.
        arpa_zone = self.ensure_tld("arpa")
        rdns_zone = RdnsZone(self.rdns_registry)
        server_ip = self.hosts.next()
        server = AuthNsServer(server_ip, [rdns_zone])
        self.network.register(server)
        arpa_zone.delegate("in-addr.arpa",
                           {"ns1.in-addr.arpa": server_ip})
        self.hierarchy.zones["in-addr.arpa"] = rdns_zone
        self.hierarchy.servers["in-addr.arpa"] = server

    def ensure_tld(self, tld):
        """Create (or fetch) the zone for a top-level domain."""
        tld = normalize_name(tld)
        existing = self.hierarchy.zones.get(tld)
        if existing is not None:
            return existing
        zone = Zone(tld)
        server_ip = self.hosts.next()
        server = AuthNsServer(server_ip, [zone])
        self.network.register(server)
        ns_host = "ns1.nic.%s" % tld
        self._root_zone.delegate(tld, {ns_host: server_ip})
        self.hierarchy.zones[tld] = zone
        self.hierarchy.servers[tld] = server
        return zone

    def register_domain(self, domain, a_records=None, wildcard_address=None,
                        mx_hosts=None):
        """Create a domain zone, its AuthNS, and the TLD delegation.

        ``a_records`` maps fully-qualified names (the apex or subdomains)
        to lists of IPv4 addresses.  ``wildcard_address`` installs
        ``*.domain`` (used by the scanner's measurement domain).
        ``mx_hosts`` is a list of (preference, hostname) pairs.
        Returns the new :class:`Zone` for further customisation.
        """
        domain = normalize_name(domain)
        labels = domain.split(".")
        if len(labels) < 2:
            raise ValueError("domain %r has no TLD" % domain)
        tld = labels[-1]
        tld_zone = self.ensure_tld(tld)
        zone = Zone(domain)
        server_ip = self.hosts.next()
        server = AuthNsServer(server_ip, [zone])
        self.network.register(server)
        ns_host = "ns1.%s" % domain
        tld_zone.delegate(domain, {ns_host: server_ip})
        zone.add_a(ns_host, server_ip, ttl=3600)
        for name, addresses in (a_records or {}).items():
            for address in addresses:
                zone.add_a(name, address)
        if wildcard_address is not None:
            zone.add_a("*.%s" % domain, wildcard_address)
        for preference, hostname in (mx_hosts or []):
            zone.add_mx(domain, preference, hostname)
        self.hierarchy.zones[domain] = zone
        self.hierarchy.servers[domain] = server
        return zone
