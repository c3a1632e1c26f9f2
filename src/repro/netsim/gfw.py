"""The Great Firewall of China as an on-path DNS injector.

The paper found (§4.2) that 2.4% of Chinese resolvers appeared to return two
responses for censored domains: a forged A record arriving first, and the
legitimate answer a few milliseconds later.  Follow-up probes to *randomly
chosen* Chinese IP ranges — including addresses with no resolver at all —
also triggered forged answers, showing the injection is on-path rather than
performed by the resolvers themselves.  This middlebox reproduces both
artefacts: it watches DNS queries crossing into its prefixes, and for
censored names injects a forged response with lower latency than any
genuine reply.
"""

import random

from repro.dnswire.constants import CLASS_IN, QTYPE_A, RCODE_NOERROR
from repro.dnswire.name import normalize_name
from repro.dnswire.records import ResourceRecord
from repro.dnswire.wire import answer_wire, peek_query
from repro.netsim.address import PrefixSet, int_to_ip, ip_to_int
from repro.netsim.middlebox import PATH_IGNORE, PATH_INSPECT, Middlebox
from repro.netsim.network import UdpResponse


class GreatFirewall(Middlebox):
    """On-path injector of forged DNS A responses for censored domains."""

    def __init__(self, prefixes, censored_domains, seed=0,
                 injection_latency=0.004, decoy_pool=(), decoy_share=0.25):
        self.prefixes = list(prefixes)
        self.censored = frozenset(normalize_name(d) for d in censored_domains)
        self.injection_latency = injection_latency
        self._seed = seed
        # Occasionally forged answers point at real, allocated hosts —
        # making some of the "randomly-chosen" addresses serve content.
        self.decoy_pool = list(decoy_pool)
        self.decoy_share = decoy_share
        self.injection_count = 0
        self._watched = PrefixSet(self.prefixes)
        # name as a stub asks it -> censored: the questions repeat.
        self._asked = {}

    def _inside(self, ip):
        return ip_to_int(ip) in self._watched

    def poisons(self, ip, name):
        """True when a resolver at ``ip`` looking ``name`` up gets a
        forged answer: it sits inside the watched prefixes, so its
        queries to the outside hierarchy cross this box, and the name
        is censored."""
        return self._inside(ip) and self.censors_name(name)

    def censors_name(self, name):
        """True when ``name`` or any parent domain is on the censor list."""
        labels = normalize_name(name).split(".")
        for i in range(len(labels)):
            if ".".join(labels[i:]) in self.censored:
                return True
        return False

    def may_censor_under(self, suffix):
        """Whether a name under the normalized ``suffix`` (itself or a
        subdomain) may be censored: the suffix or a parent is on the
        list, or a listed name is a strict subdomain of it."""
        tail = "." + suffix
        return self.censors_name(suffix) or any(
            name.endswith(tail) for name in self.censored)

    def acts_on(self, question):
        """Only A queries in class IN for a censored name draw a forged
        answer (:meth:`inject_responses`); nothing else is touched."""
        qname, qtype, qclass, __ = question
        if qtype != QTYPE_A or qclass != CLASS_IN:
            return False
        censored = self._asked.get(qname)
        if censored is None:
            censored = self.censors_name(qname)
            if len(self._asked) < 1 << 16:
                self._asked[qname] = censored
        return censored

    def path_verdict(self, src_ip, dst_int, dst_port, network):
        """Injection depends on the query name, so boundary-crossing DNS
        paths need per-packet inspection; everything else is ignored."""
        if dst_port != 53 or not self.censored:
            return PATH_IGNORE
        watched = self._watched
        if (dst_int in watched) == (ip_to_int(src_ip) in watched):
            return PATH_IGNORE
        return PATH_INSPECT

    def scan_interest(self, src_ip, dst_port, network, qname_suffix=None):
        """Outside sources probing port 53 interest exactly the watched
        prefixes; a source *inside* them makes the interesting region
        "everywhere outside", which is not enumerable — return ``None``
        so such scans take the per-packet path.

        When the sweep promises a ``qname_suffix``, injection can only
        trigger if some censored entry is reachable under it — either
        the suffix itself (or a parent) is censored, or a censored name
        is a strict subdomain of the suffix that a probe's variable
        labels could spell out.  A clean measurement domain rules both
        out, making this box provably inert for the whole sweep.
        """
        if dst_port != 53 or not self.censored:
            return []
        if qname_suffix is not None and not self.may_censor_under(
                normalize_name(qname_suffix)):
            return []
        if self._inside(src_ip):
            return None
        return self._watched.masks

    def forged_address(self, query_name, client_key=None):
        """A pseudo-random bogus IPv4 address.

        Deterministic per (name, client): different clients observe
        different "randomly-chosen" addresses, as the paper reports, but
        a run is reproducible.
        """
        rng = random.Random("%s|%s|%s" % (
            self._seed, normalize_name(query_name), client_key))
        if self.decoy_pool and rng.random() < self.decoy_share:
            return self.decoy_pool[rng.randrange(len(self.decoy_pool))]
        # Forged answers observed from the GFW look like arbitrary global
        # unicast addresses; draw from 1.0.0.0 - 223.255.255.255.
        value = rng.randrange(ip_to_int("1.0.0.0"), ip_to_int("224.0.0.0"))
        return int_to_ip(value)

    def inject_responses(self, packet, network):
        if packet.dst_port != 53 \
                or self._inside(packet.dst_ip) == self._inside(packet.src_ip):
            return []
        query = peek_query(packet.payload)
        if query is None:
            return []
        name, qtype, qclass = query
        if qtype != QTYPE_A or qclass != CLASS_IN \
                or not self.censors_name(name):
            return []
        forged = ResourceRecord.a(
            name, self.forged_address(name, client_key=packet.src_ip),
            ttl=300)
        self.injection_count += 1
        reply = packet.reply(answer_wire(packet.payload, name,
                                         RCODE_NOERROR, True, [forged]))
        return [UdpResponse(reply, self.injection_latency, injected=True)]
