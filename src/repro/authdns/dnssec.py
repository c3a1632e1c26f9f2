"""Simulated DNSSEC: zone signing and client validation strategies (§5).

The paper's discussion section argues that DNSSEC alone does not defeat
the Great Firewall's injected responses: a resolver typically takes the
FIRST response matching an open transaction, and the forged packet wins
the race.  Only a client that *waits* for a correctly signed response —
dropping unsigned and badly signed ones — is protected, and it can only
do that when it already knows the domain deploys DNSSEC (otherwise an
attacker simply strips the signatures).

This module makes that argument executable.  Signatures are simulated:
an RRSIG-like TXT-encoded record carries a keyed digest over the answer
rrset; validators share the zone's public key out of band (the trust
anchor).  An on-path injector cannot produce the digest without the key.

Strategies:

* ``STRATEGY_FIRST`` — classic resolver behaviour: first matching
  response wins (vulnerable).
* ``STRATEGY_WAIT_SIGNED`` — collect responses, accept the first one
  carrying a valid signature (protected — but only for signed zones the
  client knows about).
"""

from repro.dnswire.client import ask
from repro.dnswire.constants import QTYPE_A
from repro.dnswire.name import normalize_name
from repro.dnswire.records import ResourceRecord
from repro.util import stable_hash

# UDP source port: it keys packet fates (DESIGN.md "Stub DNS client").
SOURCE_PORT = 31800

SIG_LABEL = "_repro-rrsig"

STRATEGY_FIRST = "first"
STRATEGY_WAIT_SIGNED = "wait-signed"


def rrset_digest(key, name, addresses):
    """The keyed digest a signer embeds and a validator recomputes."""
    return "%08x" % stable_hash(key, normalize_name(name),
                                *sorted(addresses))


class ZoneSigner:
    """Signs A answers of a zone with a per-zone key."""

    def __init__(self, key):
        self.key = key

    def sign_answers(self, message):
        """Append a signature record covering the A rrset of the answer
        section; no-op when there is nothing to sign."""
        by_name = {}
        for record in message.answers:
            if record.rtype == QTYPE_A:
                by_name.setdefault(normalize_name(record.name),
                                   []).append(record.data.address)
        for name, addresses in by_name.items():
            digest = rrset_digest(self.key, name, addresses)
            message.answers.append(ResourceRecord.txt(
                "%s.%s" % (SIG_LABEL, name), ["sig=%s" % digest],
                ttl=300))
        return message


class DnssecValidator:
    """Validates simulated signatures against trust anchors.

    ``trust_anchors`` maps zone apex -> key; a name is covered when any
    anchored apex is one of its suffixes.
    """

    def __init__(self, trust_anchors):
        self.trust_anchors = {normalize_name(apex): key
                              for apex, key in trust_anchors.items()}

    def anchor_for(self, name):
        labels = normalize_name(name).split(".")
        for index in range(len(labels)):
            apex = ".".join(labels[index:])
            if apex in self.trust_anchors:
                return apex
        return None

    def expects_signature(self, name):
        """True when the client knows this domain deploys DNSSEC —
        the prior knowledge §5 calls out as the hard prerequisite."""
        return self.anchor_for(name) is not None

    def validate(self, message, qname):
        """True when the message's A answers carry a valid signature."""
        apex = self.anchor_for(qname)
        if apex is None:
            return False
        key = self.trust_anchors[apex]
        name = normalize_name(qname)
        addresses = [record.data.address for record in message.answers
                     if record.rtype == QTYPE_A
                     and normalize_name(record.name) == name]
        if not addresses:
            return False
        expected = rrset_digest(key, name, addresses)
        sig_name = normalize_name("%s.%s" % (SIG_LABEL, name))
        for record in message.answers:
            if record.rtype == 16 and \
                    normalize_name(record.name) == sig_name:
                if record.data.text == "sig=%s" % expected:
                    return True
        return False


class ValidatingClient:
    """A stub client applying a response-acceptance strategy.

    Sends an A query to a resolver (or authoritative server) and picks
    among ALL arriving responses — including on-path injections — per
    the configured strategy.
    """

    def __init__(self, network, source_ip, validator=None,
                 strategy=STRATEGY_FIRST):
        self.network = network
        self.source_ip = source_ip
        self.validator = validator
        self.strategy = strategy
        self._txid = 0

    def query(self, server_ip, name):
        """Resolve ``name`` via ``server_ip``; returns (addresses,
        authenticated) where authenticated reports signature validity."""
        self._txid = (self._txid + 1) & 0xFFFF
        messages = [message for message, __ in ask(
            self.network, self.source_ip, SOURCE_PORT, server_ip, name,
            self._txid)]
        if not messages:
            return [], False
        if self.strategy == STRATEGY_WAIT_SIGNED and \
                self.validator is not None and \
                self.validator.expects_signature(name):
            for message in messages:  # arrival order: wait for a valid one
                if self.validator.validate(message, name):
                    return message.a_addresses(), True
            return [], False  # nothing validly signed: resolution fails
        first = messages[0]
        authenticated = bool(
            self.validator is not None
            and self.validator.validate(first, name))
        return first.a_addresses(), authenticated
