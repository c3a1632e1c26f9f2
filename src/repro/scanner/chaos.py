"""CHAOS-class software fingerprinting scan (paper §2.4, Table 3).

Sends ``version.bind`` and ``version.server`` TXT queries in class CH to
every resolver and classifies the response pair: error codes for both,
NOERROR without version data, administrator-hidden strings, or a usable
software/version string.
"""

from repro.dnswire.client import ask_many
from repro.dnswire.constants import (
    CLASS_CH,
    QTYPE_TXT,
    RCODE_NOERROR,
)

# UDP source port: it keys packet fates (DESIGN.md "Stub DNS client").
SOURCE_PORT = 31400

# Response-pair classification outcomes.
OUTCOME_ERROR = "error"            # REFUSED/SERVFAIL for both queries
OUTCOME_NO_VERSION = "no_version"  # NOERROR but no version specified
OUTCOME_HIDDEN = "hidden"          # arbitrary admin-configured string
OUTCOME_VERSION = "version"        # usable software/version string
OUTCOME_SILENT = "silent"          # no response at all


class ChaosObservation:
    """The CHAOS scan result for one resolver."""

    def __init__(self, resolver_ip, outcome, version_string=None):
        self.resolver_ip = resolver_ip
        self.outcome = outcome
        self.version_string = version_string

    def __repr__(self):
        return "ChaosObservation(%s, %s, %r)" % (
            self.resolver_ip, self.outcome, self.version_string)


class ChaosScanner:
    """Runs the version.bind/version.server scan over a resolver list."""

    QUERY_NAMES = ("version.bind", "version.server")

    def __init__(self, network, source_ip):
        self.network = network
        self.source_ip = source_ip
        self._txid = 0

    def _ask(self, resolver_ip):
        """Each query's first accepted answer ``(rcode, records)``, or None."""
        questions = []
        for qname in self.QUERY_NAMES:
            self._txid = (self._txid + 1) & 0xFFFF
            questions.append((qname, self._txid))
        return [rows[0][2:4] if rows else None
                for rows in ask_many(self.network, self.source_ip,
                                     SOURCE_PORT, resolver_ip, questions,
                                     qtype=QTYPE_TXT, qclass=CLASS_CH)]

    def _txt_value(self, answer):
        if answer is None or answer[0] != RCODE_NOERROR:
            return None
        for rtype, __, data in answer[1]:
            if rtype == QTYPE_TXT:
                text = data.text.strip()
                if text:
                    return text
        return None

    def _looks_like_version(self, text):
        """Heuristic: does the string identify real software?"""
        lowered = text.lower()
        has_digit = any(ch.isdigit() for ch in lowered)
        known = any(token in lowered for token in (
            "bind", "unbound", "dnsmasq", "powerdns", "microsoft",
            "nominum", "9.", "4."))
        return has_digit and known

    def probe(self, resolver_ip):
        """Scan one resolver; returns a :class:`ChaosObservation`."""
        responses = self._ask(resolver_ip)
        if all(response is None for response in responses):
            return ChaosObservation(resolver_ip, OUTCOME_SILENT)
        if all(response is None or response[0] != RCODE_NOERROR
               for response in responses):
            return ChaosObservation(resolver_ip, OUTCOME_ERROR)
        values = [self._txt_value(response) for response in responses]
        texts = [value for value in values if value]
        if not texts:
            return ChaosObservation(resolver_ip, OUTCOME_NO_VERSION)
        for text in texts:
            if self._looks_like_version(text):
                return ChaosObservation(resolver_ip, OUTCOME_VERSION, text)
        return ChaosObservation(resolver_ip, OUTCOME_HIDDEN, texts[0])

    def scan(self, resolver_ips):
        """Scan a set of resolvers; returns observations for responders."""
        observations = []
        for resolver_ip in resolver_ips:
            observation = self.probe(resolver_ip)
            if observation.outcome != OUTCOME_SILENT:
                observations.append(observation)
        return observations
