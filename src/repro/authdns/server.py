"""Authoritative name server nodes."""

from repro.dnswire.constants import (
    CLASS_IN,
    RCODE_NOERROR,
    RCODE_NXDOMAIN,
    RCODE_REFUSED,
)
from repro.dnswire.message import Message
from repro.dnswire.name import normalize_name
from repro.authdns.zone import ZoneLookupResult
from repro.netsim.network import Node


class AuthNsServer(Node):
    """A name server authoritative for one or more zones.

    Answers only for names inside its zones (an AuthNS "does not need to
    process lookup requests for domains other than in its zone" — §2.1);
    everything else is REFUSED, never recursed.
    """

    def __init__(self, ip, zones=()):
        super().__init__(ip)
        self.zones = list(zones)
        self.query_count = 0

    def _zone_for(self, qname):
        """Deepest zone on this server covering ``qname``."""
        best = None
        name = normalize_name(qname)
        for zone in self.zones:
            if zone.covers(name):
                if best is None or len(zone.origin) > len(best.origin):
                    best = zone
        return best

    def handle_udp(self, packet, network):
        if packet.dst_port != 53:
            return None
        try:
            query = Message.from_wire(packet.payload)
        except ValueError:
            return None
        if query.header.qr or query.question is None:
            return None
        self.query_count += 1
        return self.answer(query).to_wire()

    def answer(self, query):
        """Authoritatively answer a parsed query message."""
        question = query.question
        if question.qclass != CLASS_IN:
            return query.make_response(rcode=RCODE_REFUSED, ra=False)
        zone = self._zone_for(question.name)
        if zone is None:
            return query.make_response(rcode=RCODE_REFUSED, ra=False)
        result = zone.lookup(question.name, question.qtype)
        response = query.make_response(aa=True, ra=False)
        if result.status == ZoneLookupResult.ANSWER:
            response.answers.extend(result.records)
            if zone.signer is not None:
                zone.signer.sign_answers(response)
        elif result.status == ZoneLookupResult.CNAME:
            response.answers.extend(result.records)
            # Chase the CNAME while it stays inside our zones.
            target = result.records[0].data.name
            seen = {normalize_name(question.name)}
            while normalize_name(target) not in seen:
                seen.add(normalize_name(target))
                target_zone = self._zone_for(target)
                if target_zone is None:
                    break
                chased = target_zone.lookup(target, question.qtype)
                if chased.status == ZoneLookupResult.ANSWER:
                    response.answers.extend(chased.records)
                    break
                if chased.status == ZoneLookupResult.CNAME:
                    response.answers.extend(chased.records)
                    target = chased.records[0].data.name
                    continue
                break
        elif result.status == ZoneLookupResult.DELEGATION:
            response.header.aa = False
            response.authorities.extend(result.authority)
            response.additionals.extend(result.additional)
        elif result.status == ZoneLookupResult.NXDOMAIN:
            response.header.rcode = RCODE_NXDOMAIN
            response.authorities.extend(result.authority)
        else:  # NODATA
            response.header.rcode = RCODE_NOERROR
            response.authorities.extend(result.authority)
        return response
