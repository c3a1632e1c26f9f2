"""The iterative resolution engine: root -> TLD -> domain AuthNS.

This is the "correct" resolution procedure the paper's threat model defines.
Honest recursive resolvers embed one of these engines; the trusted
resolvers used by the prefilter do too.
"""

from repro.dnswire.client import ask
from repro.dnswire.constants import (
    QTYPE_A,
    QTYPE_CNAME,
    QTYPE_NS,
    RCODE_NOERROR,
    RCODE_NXDOMAIN,
    RCODE_SERVFAIL,
)
from repro.dnswire.name import normalize_name

MAX_REFERRALS = 24
MAX_CNAME_CHAIN = 8


class ResolutionError(Exception):
    """Resolution could not complete (no servers reachable, loop, …)."""


class ResolutionResult:
    """Final outcome of an iterative resolution."""

    def __init__(self, rcode, records, authority=(), queries_sent=0):
        self.rcode = rcode
        self.records = list(records)
        self.authority = list(authority)
        self.queries_sent = queries_sent

    def a_addresses(self):
        return [record.data.address for record in self.records
                if record.rtype == QTYPE_A]

    def min_ttl(self, default=300):
        ttls = [record.ttl for record in self.records]
        return min(ttls) if ttls else default


class IterativeResolver:
    """Resolves names by walking the hierarchy from the root servers."""

    def __init__(self, root_server_ips, source_ip):
        if not root_server_ips:
            raise ValueError("need at least one root server")
        self.root_server_ips = list(root_server_ips)
        self.source_ip = source_ip
        self._txid = 1

    def _ask(self, network, server_ip, name, qtype):
        self._txid = (self._txid + 1) & 0xFFFF
        answers = ask(network, self.source_ip, 40000 + (self._txid % 1000),
                      server_ip, name, self._txid, qtype=qtype, rd=False)
        return answers[0][0] if answers else None

    def resolve(self, network, name, qtype=QTYPE_A):
        """Iteratively resolve ``name``; returns a :class:`ResolutionResult`.

        Follows referrals from the root and chases CNAME chains across
        zones, exactly as a hierarchy-respecting recursive resolver would.
        """
        answers = []
        queries_sent = 0
        current_name = name
        for __ in range(MAX_CNAME_CHAIN):
            servers = list(self.root_server_ips)
            rcode = None
            terminal = None
            for __ in range(MAX_REFERRALS):
                response = None
                for server_ip in servers:
                    queries_sent += 1
                    response = self._ask(network, server_ip,
                                         current_name, qtype)
                    if response is not None:
                        break
                if response is None:
                    return ResolutionResult(RCODE_SERVFAIL, answers,
                                            queries_sent=queries_sent)
                if response.rcode == RCODE_NXDOMAIN:
                    return ResolutionResult(
                        RCODE_NXDOMAIN, answers,
                        authority=response.authorities,
                        queries_sent=queries_sent)
                if response.rcode != RCODE_NOERROR:
                    return ResolutionResult(response.rcode, answers,
                                            queries_sent=queries_sent)
                direct = [rr for rr in response.answers
                          if rr.rtype == qtype
                          and normalize_name(rr.name)
                          == normalize_name(current_name)]
                cnames = [rr for rr in response.answers
                          if rr.rtype == QTYPE_CNAME]
                if direct:
                    answers.extend(response.answers)
                    return ResolutionResult(RCODE_NOERROR, answers,
                                            queries_sent=queries_sent)
                if cnames and qtype != QTYPE_CNAME:
                    answers.extend(cnames)
                    # Did the same response carry the final answer too?
                    tail = [rr for rr in response.answers
                            if rr.rtype == qtype]
                    if tail:
                        answers.extend(tail)
                        return ResolutionResult(RCODE_NOERROR, answers,
                                                queries_sent=queries_sent)
                    current_name = cnames[-1].data.name
                    terminal = "cname"
                    break
                referral_ns = [rr for rr in response.authorities
                               if rr.rtype == QTYPE_NS]
                if referral_ns:
                    glue = {normalize_name(rr.name): rr.data.address
                            for rr in response.additionals
                            if rr.rtype == QTYPE_A}
                    next_servers = []
                    for ns_record in referral_ns:
                        address = glue.get(
                            normalize_name(ns_record.data.name))
                        if address is not None:
                            next_servers.append(address)
                    if not next_servers:
                        return ResolutionResult(RCODE_SERVFAIL, answers,
                                                queries_sent=queries_sent)
                    servers = next_servers
                    continue
                # NOERROR with no answer and no referral: NODATA.
                return ResolutionResult(RCODE_NOERROR, answers,
                                        authority=response.authorities,
                                        queries_sent=queries_sent)
            if terminal != "cname":
                return ResolutionResult(RCODE_SERVFAIL, answers,
                                        queries_sent=queries_sent)
        raise ResolutionError("CNAME chain too long for %r" % name)
