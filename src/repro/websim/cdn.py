"""Content Delivery Network model: multi-AS edges and GeoDNS rotation.

CDNs are what makes the prefilter hard (§3.4): a domain on a CDN resolves
to different edge IPs depending on where you ask from, the edges span many
ASes beyond the provider's primary ones, and the trusted-resolver AS check
therefore misses them.  The paper recovers these via HTTPS certificates:
an SNI handshake returning a valid certificate for the domain, or — for
the largest providers — a non-SNI default certificate with the provider's
known common name.
"""

import random

from repro.authdns.zone import Zone, ZoneLookupResult
from repro.dnswire.constants import QTYPE_A
from repro.dnswire.name import normalize_name
from repro.dnswire.records import ResourceRecord
from repro.netsim.network import Node
from repro.websim.http import HttpResponse
from repro.websim.pages import error_page


class RotatingAZone(Zone):
    """A zone whose A answers rotate through an edge pool per query,
    emulating GeoDNS/load balancing: successive (or differently-located)
    queries see different IP subsets."""

    def __init__(self, origin, edge_pool, answers_per_query=2):
        super().__init__(origin)
        self._edge_pool = {}
        self._counters = {}
        self.answers_per_query = answers_per_query
        for name, addresses in edge_pool.items():
            self._edge_pool[normalize_name(name)] = list(addresses)

    def lookup(self, qname, qtype):
        name = normalize_name(qname)
        if qtype == QTYPE_A and name in self._edge_pool:
            pool = self._edge_pool[name]
            counter = self._counters.get(name, 0)
            self._counters[name] = counter + 1
            count = min(self.answers_per_query, len(pool))
            picks = [pool[(counter + i) % len(pool)] for i in range(count)]
            records = [ResourceRecord.a(qname, address, ttl=20)
                       for address in picks]
            return ZoneLookupResult(ZoneLookupResult.ANSWER, records=records)
        return super().lookup(qname, qtype)


class CdnEdgeServer(Node):
    """One CDN edge: serves customer-domain content, presents the
    customer certificate under SNI and the provider default without."""

    def __init__(self, ip, site_library, customer_domains, provider_cert,
                 customer_certs, enabled=True):
        super().__init__(ip)
        self.site_library = site_library
        self.customer_domains = {normalize_name(d) for d in customer_domains}
        self.provider_cert = provider_cert
        self.customer_certs = {normalize_name(d): cert
                               for d, cert in customer_certs.items()}
        # Disabled edges model the paper's observation of content servers
        # "disabled and not distributing actual HTTP(S) payload data".
        self.enabled = enabled

    def tcp_ports(self):
        return frozenset((80, 443)) if self.enabled else frozenset()

    def handle_http(self, request, network):
        if not self.enabled:
            return None
        host = normalize_name(request.host)
        if host in self.customer_domains:
            return HttpResponse(200, self.site_library.page_for(
                host, request.path))
        return HttpResponse(404, error_page(404))

    def tls_certificate(self, sni, network=None):
        if not self.enabled:
            return None
        if sni is None:
            return self.provider_cert
        return self.customer_certs.get(normalize_name(sni),
                                       self.provider_cert)


class CdnProvider:
    """A CDN operator: primary ASes, edges scattered across foreign ASes,
    a known default-certificate common name, and customer domains."""

    def __init__(self, name, common_name, ca, site_library, seed=0):
        self.name = name
        self.common_name = common_name
        self.ca = ca
        self.site_library = site_library
        self.provider_cert = ca.issue(common_name,
                                      san=(common_name,
                                           "*.%s" % common_name.lstrip("*.")))
        self.edges = []
        self.customer_domains = set()
        self._customer_certs = {}
        self._rng = random.Random("%s|%s" % (seed, name))

    def add_customer(self, domain):
        domain = normalize_name(domain)
        self.customer_domains.add(domain)
        self._customer_certs[domain] = self.ca.issue(
            domain, san=(domain, "www." + domain))

    def deploy_edge(self, network, ip, enabled=True):
        """Place one edge server at ``ip`` (caller picks the AS/prefix)."""
        edge = CdnEdgeServer(ip, self.site_library, self.customer_domains,
                             self.provider_cert, self._customer_certs,
                             enabled=enabled)
        # Late-added customers must be visible to existing edges: share
        # the live dicts rather than copies.
        edge.customer_domains = self.customer_domains
        edge.customer_certs = self._customer_certs
        network.register(edge)
        self.edges.append(edge)
        return edge

    def edge_ips(self, include_disabled=True):
        return [edge.ip for edge in self.edges
                if include_disabled or edge.enabled]

    def edge_pool_for(self, domain):
        """The addresses GeoDNS rotates through for a customer domain.

        Only live edges: the CDN withdraws dead edges from its DNS, so
        disabled addresses are served exclusively by resolvers holding
        stale data (:class:`repro.resolvers.behaviors.StaleCdnBehavior`).
        """
        if normalize_name(domain) not in self.customer_domains:
            raise KeyError("%s is not a customer of %s" % (domain, self.name))
        return self.edge_ips(include_disabled=False)
