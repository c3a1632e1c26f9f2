"""DNS cache snooping for the utilization study (paper §2.6).

Every 60 minutes for 36 hours, the prober sends non-recursive NS queries
for 15 TLDs to each resolver and records the returned TTLs.  The analysis
layer turns the per-resolver TTL traces into the paper's usage classes:
a TLD whose entry expires and later reappears at full TTL was re-added by
a real client, so the resolver is in use.
"""

from repro.dnswire.client import ask_many
from repro.dnswire.constants import QTYPE_NS

# UDP source port: it keys packet fates (DESIGN.md "Stub DNS client").
SOURCE_PORT = 31500


def snoop_ns_ttls(network, source_ip, source_port, resolver_ip, questions):
    """Non-recursive NS probes, one per ``(tld, txid)`` of
    ``questions``, over one flow; each decoded from its first accepted
    answer: its largest NS TTL, ``"empty"`` when it carries no NS
    record, ``None`` when nothing acceptable arrived."""
    # rd=False: cache snooping must not trigger recursion itself.
    values = []
    for rows in ask_many(network, source_ip, source_port, resolver_ip,
                         questions, qtype=QTYPE_NS, rd=False):
        if not rows:
            values.append(None)
            continue
        ttls = [ttl for rtype, ttl, __ in rows[0][3] if rtype == QTYPE_NS]
        values.append(max(ttls) if ttls else "empty")
    return values


class SnoopingTrace:
    """TTL observations for one resolver: {tld: [(time, ttl|None|"empty")]}.

    ``None`` records a probe that went unanswered, the string ``"empty"``
    an empty NOERROR response, and an integer the observed NS TTL.
    """

    def __init__(self, resolver_ip):
        self.resolver_ip = resolver_ip
        self.observations = {}

    def record(self, tld, timestamp, value):
        self.observations.setdefault(tld, []).append((timestamp, value))

    def values_for(self, tld):
        return [value for __, value in self.observations.get(tld, [])]

    def __repr__(self):
        return "SnoopingTrace(%s, %d TLDs)" % (
            self.resolver_ip, len(self.observations))


class CacheSnoopingProber:
    """Runs the periodic snooping probes against a resolver sample."""

    def __init__(self, network, source_ip, tlds, interval_minutes=60,
                 duration_hours=36):
        self.network = network
        self.source_ip = source_ip
        self.tlds = tuple(tlds)
        self.interval_minutes = interval_minutes
        self.duration_hours = duration_hours
        self._txid = 0

    def _ask(self, resolver_ip):
        """One round's probe of every TLD at ``resolver_ip``."""
        questions = []
        for tld in self.tlds:
            self._txid = (self._txid + 1) & 0xFFFF
            questions.append((tld, self._txid))
        return snoop_ns_ttls(self.network, self.source_ip, SOURCE_PORT,
                             resolver_ip, questions)

    def run(self, resolver_ips):
        """Probe all resolvers for the configured duration.

        Advances the simulated clock by ``duration_hours``.  Returns a
        list of :class:`SnoopingTrace`, one per resolver.
        """
        traces = {ip: SnoopingTrace(ip) for ip in resolver_ips}
        rounds = int(self.duration_hours * 60 / self.interval_minutes) + 1
        for round_index in range(rounds):
            if round_index:
                self.network.clock.advance(self.interval_minutes * 60)
            now = self.network.clock.now
            for resolver_ip in resolver_ips:
                for tld, value in zip(self.tlds, self._ask(resolver_ip)):
                    traces[resolver_ip].record(tld, now, value)
        return list(traces.values())
