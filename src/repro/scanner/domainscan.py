"""Domain scanning: querying the 155-domain set at every open resolver
(paper §3.3).

Unlike the IPv4 scans, the query names are fixed, so the target resolver's
identity is encoded in the transaction ID (16 bits), UDP source port
(9 bits), and redundantly in the 0x20 case pattern of the query name.
Each scan records every response — including multiple responses for one
query, which is how the Great Firewall's injected-then-genuine double
answers are detected (§4.2).
"""

from repro.dnswire.client import ask_many
from repro.dnswire.constants import QTYPE_A, QTYPE_NS, RCODE_NOERROR
from repro.scanner.encoding import TXID_BITS, ResolverIdCodec


def _addresses(records):
    """The A addresses among an answer's ``(rtype, ttl, rdata)`` rows."""
    return tuple([data.address for rtype, __, data in records
                  if rtype == QTYPE_A])


class DnsObservation:
    """One resolver's answer(s) for one scanned domain."""

    def __init__(self, domain, resolver_ip, rcode, addresses,
                 source_ip=None, all_responses=None, injected_suspect=False,
                 ns_record_count=0):
        self.domain = domain
        self.resolver_ip = resolver_ip       # target (decoded identity)
        self.rcode = rcode                   # of the first response
        self.addresses = tuple(addresses)    # of the first response
        self.source_ip = source_ip           # UDP source of first response
        self.ns_record_count = ns_record_count  # NS-only answers (§4.1)
        # All responses observed: (rcode, (addresses...)) pairs in arrival
        # order.  More than one entry with disagreeing answers is the GFW
        # signature.  Tuples of strings, which the collector stops
        # tracking: the 13 sets' observations stay resident.
        self.all_responses = tuple(all_responses or ())
        self.injected_suspect = injected_suspect

    @property
    def empty(self):
        return self.rcode == RCODE_NOERROR and not self.addresses

    @property
    def multiple_disagreeing(self):
        if len(self.all_responses) < 2:
            return False
        # Compare (rcode, addresses): an injected NXDOMAIN followed by a
        # genuine empty NOERROR disagrees even though both address lists
        # are empty (the GFW's NXDOMAIN-injection signature).
        first = self.all_responses[0]
        return any(other[0] != first[0] or other[1] != first[1]
                   for other in self.all_responses[1:])

    def __repr__(self):
        return "DnsObservation(%s @ %s, rcode=%d, %r)" % (
            self.domain, self.resolver_ip, self.rcode, self.addresses)


class DomainScanner:
    """Sends A queries for a domain list to a resolver list."""

    # The scan loop can report progress per resolver, so the shard
    # engine's heartbeat supervision works (see scanner.engine).
    supports_progress = True
    # No registry of its own: a shard's Ledger finds nothing to swap.
    perf = None

    def __init__(self, network, source_ip, codec=None):
        self.network = network
        self.source_ip = source_ip
        self.codec = codec or ResolverIdCodec()
        self.queries_sent = 0

    def _query_resolver(self, resolver_ip, resolver_id, domains, cased):
        """The :class:`DnsObservation` of each of ``domains`` (``cased``
        in the resolver's 0x20 pattern) that got an answer, in order: one
        :func:`ask_many` call on the resolver's (port, txid) flow.

        Every accepted answer echoes the flow's txid and comes back to its
        source port, which :meth:`ResolverIdCodec.decode` reads back as
        ``resolver_id``: the identity is the flow's, so no row is
        decoded."""
        txid, src_port = self.codec.flow(resolver_id)
        self.queries_sent += len(cased)
        observations = []
        for domain, rows in zip(domains, ask_many(
                self.network, self.source_ip, src_port, resolver_ip,
                [(cased_qname, txid) for cased_qname in cased])):
            if not rows:
                continue
            __, __, rcode, records, source_ip, injected = rows[0]
            responses = [(rcode, _addresses(records))]
            for __, __, other_rcode, other, __, other_injected in rows[1:]:
                responses.append((other_rcode, _addresses(other)))
                injected = injected or other_injected
            observations.append(DnsObservation(
                domain, resolver_ip, rcode, responses[0][1],
                source_ip=source_ip, all_responses=responses,
                injected_suspect=injected,
                ns_record_count=[rtype for rtype, __, __ in records].count(
                    QTYPE_NS)))
        return observations

    def scan(self, resolver_ips, domains, index_range=None,
             on_progress=None):
        """Query every domain at every resolver.

        ``domains`` is an iterable of domain-name strings.  Returns a flat
        list of observations (resolvers that never answered are absent).

        ``index_range`` restricts the scan to resolvers with positions in
        the contiguous ``(start, stop)`` slice of ``resolver_ips``.  The
        resolver id encoded into each query stays the *global* list
        index, so a shard worker emits byte-identical queries to the ones
        a sequential scan would emit for those resolvers.  ``on_progress``
        (no arguments) is invoked once per resolver — the heartbeat hook
        for worker supervision.
        """
        resolver_ips = list(resolver_ips)
        start, stop = (index_range if index_range is not None
                       else (0, len(resolver_ips)))
        domains = list(domains)
        observations = []
        window = cased = None
        for resolver_id in range(start, stop):
            resolver_ip = resolver_ips[resolver_id]
            if resolver_id >> TXID_BITS != window:
                # The 0x20 pattern is the port window's: case the
                # domains once per window, not once per query.
                window = resolver_id >> TXID_BITS
                cased = [self.codec.case(resolver_id, domain)
                         for domain in domains]
            observations.extend(self._query_resolver(
                resolver_ip, resolver_id, domains, cased))
            if on_progress is not None:
                on_progress()
        return observations
