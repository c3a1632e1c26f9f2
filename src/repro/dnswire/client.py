"""The stub DNS client: questions out, the acceptable answers back.

Every measurement beyond the IPv4 sweep — the domain scan, cache
snooping, popularity, CHAOS fingerprinting, redirect chasing, the
iterative resolver's walk, the validating client — is this one act.
Each consumer keeps only what is its own: how it picks the transaction
ID and source port (they key packet fates, so they never change
silently; see DESIGN.md "Stub DNS client"), and how it decodes what
:func:`ask` or :func:`ask_many` accepted.
"""

from functools import lru_cache

from repro.dnswire.constants import CLASS_IN, QTYPE_A
from repro.dnswire.message import Message
from repro.dnswire.wire import WireReply, accepted_message, message_row
from repro.netsim.network import UdpPacket


@lru_cache(maxsize=4096)
def _query_frame(qname, qtype, qclass, rd):
    """A query's wire form after its two txid bytes: it does not depend
    on the txid, so each question is encoded once."""
    return Message.query(qname, qtype=qtype, qclass=qclass,
                         rd=rd).to_wire()[2:]


def _query(qname, txid, qtype, qclass, rd):
    return txid.to_bytes(2, "big") + _query_frame(qname, qtype, qclass, rd)


def _accepted(payload, txid):
    """``payload`` read as a ``Message``, or ``None`` unless it parses,
    has QR set and echoes ``txid``.  The header decides before a parse; a
    ``WireReply`` answers this very query and is read unpeeked; a
    ``ValueError`` drops the datagram."""
    try:
        if type(payload) is WireReply:
            return payload.message()
        return accepted_message(payload, txid)
    except ValueError:
        return None


def ask(network, source_ip, source_port, server_ip, qname, txid,
        qtype=QTYPE_A, qclass=CLASS_IN, rd=True):
    """Send one question to ``server_ip``:53 and return the accepted
    answers (:func:`_accepted`) as ``[(Message, UdpResponse), ...]`` in
    arrival order.  On-path injections that pass are kept (a forged
    answer racing the genuine one is a finding, not noise)."""
    packet = UdpPacket(source_ip, source_port, server_ip, 53,
                       _query(qname, txid, qtype, qclass, rd))
    accepted = []
    for response in network.send_udp(packet, rendered=False):
        message = _accepted(response.packet.payload, txid)
        if message is not None:
            accepted.append((message, response))
    return accepted


def ask_many(network, source_ip, source_port, server_ip, questions,
             qtype=QTYPE_A, qclass=CLASS_IN, rd=True):
    """:func:`ask` for each ``(qname, txid)`` of the list ``questions``,
    over one flow, answers read as rows: per question, ``[(txid, echoed
    name, rcode, [(rtype, ttl, rdata), ...], source ip, injected), ...]``
    — the :func:`message_row` of each ``Message`` ``ask`` would accept,
    the asked name standing in for a question the reply does not echo,
    and where that response came from.  A question the network settled
    by class comes back as these rows already."""
    def query(question):
        qname, qtype, qclass, txid = question
        return _query(qname, txid, qtype, qclass, rd)

    sent = network.send_many(
        source_ip, source_port, server_ip, 53,
        [(qname, qtype, qclass, txid) for qname, txid in questions], query)
    answers = []
    for (qname, txid), replies in zip(questions, sent):
        if not replies or type(replies[0]) is tuple:
            for row in replies:
                if row[3] is None:      # settled, but no stub can read it
                    replies = [row for row in replies if row[3] is not None]
                    break
            answers.append(replies)
            continue
        rows = []
        for response in replies:
            message = _accepted(response.packet.payload, txid)
            if message is not None:
                row = message_row(message)
                rows.append((row[0], qname if row[1] is None else row[1],
                             row[2], row[3], response.packet.src_ip,
                             response.injected))
        answers.append(rows)
    return answers
