"""DNS cache snooping for the utilization study (paper §2.6).

Every 60 minutes for 36 hours, the prober sends non-recursive NS queries
for 15 TLDs to each resolver and records the returned TTLs.  The analysis
layer turns the per-resolver TTL traces into the paper's usage classes:
a TLD whose entry expires and later reappears at full TTL was re-added by
a real client, so the resolver is in use.
"""

from repro.dnswire.client import ask
from repro.dnswire.constants import QTYPE_NS

# UDP source port: it keys packet fates (DESIGN.md "Stub DNS client").
SOURCE_PORT = 31500


def snoop_ns_ttl(network, source_ip, source_port, resolver_ip, tld, txid):
    """One non-recursive NS probe, decoded from the first accepted
    answer: its largest NS TTL, ``"empty"`` when it carries no NS
    record, ``None`` when nothing acceptable arrived."""
    # rd=False: cache snooping must not trigger recursion itself.
    answers = ask(network, source_ip, source_port, resolver_ip, tld, txid,
                  qtype=QTYPE_NS, rd=False)
    if not answers:
        return None
    ttls = [record.ttl for record in answers[0][0].answers
            if record.rtype == QTYPE_NS]
    return max(ttls) if ttls else "empty"


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

    def answered_any(self):
        return any(value is not None
                   for series in self.observations.values()
                   for __, value in series)

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

    def _ask(self, resolver_ip, tld):
        self._txid = (self._txid + 1) & 0xFFFF
        return snoop_ns_ttl(self.network, self.source_ip, SOURCE_PORT,
                            resolver_ip, tld, self._txid)

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
                for tld in self.tlds:
                    value = self._ask(resolver_ip, tld)
                    traces[resolver_ip].record(tld, now, value)
        return list(traces.values())
