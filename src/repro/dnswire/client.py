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
from repro.dnswire.message import Message, peek_header
from repro.dnswire.wire import WireQuery, WireReply, message_row, \
    peek_query
from repro.netsim.network import UdpPacket


@lru_cache(maxsize=4096)
def _query_frame(qname, qtype, qclass, rd):
    """A query's wire form after its two txid bytes, and
    :func:`peek_query`'s reading of it: neither depends on the txid, so
    each question is encoded and read once."""
    frame = Message.query(qname, qtype=qtype, qclass=qclass,
                          rd=rd).to_wire()[2:]
    return frame, peek_query(b"\0\0" + frame)


def _query(qname, txid, qtype, qclass, rd):
    frame, question = _query_frame(qname, qtype, qclass, rd)
    return WireQuery(txid.to_bytes(2, "big") + frame, question)


def _accepted(payload, txid, as_row):
    """``payload`` read as a ``Message`` (``as_row``: its row), or
    ``None`` unless it parses, has QR set and echoes ``txid``.  The header
    decides before a parse; a ``WireReply`` answers this very query and
    is read unpeeked; a ``ValueError`` drops the datagram."""
    try:
        if type(payload) is WireReply:
            return payload.row() if as_row else payload.message()
        header = peek_header(payload)
        if header is None or not header[1] or header[0] != txid:
            return None
        message = Message.from_wire(payload)
    except ValueError:
        return None
    return message_row(message) if as_row else message


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
        message = _accepted(response.packet.payload, txid, False)
        if message is not None:
            accepted.append((message, response))
    return accepted


def ask_many(network, source_ip, source_port, server_ip, questions,
             qtype=QTYPE_A, qclass=CLASS_IN, rd=True):
    """:func:`ask` for each ``(qname, txid)`` of the list ``questions``,
    over one flow, answers read as rows: per question, ``[(txid, echoed
    name, rcode, [(rtype, ttl, rdata), ...], UdpResponse), ...]`` — the
    :func:`message_row` of each ``Message`` ``ask`` would accept, the
    asked name standing in for a question the reply does not echo."""
    sent = network.send_many(
        source_ip, source_port, server_ip, 53,
        [_query(qname, txid, qtype, qclass, rd) for qname, txid in questions])
    answers = []
    for (qname, txid), responses in zip(questions, sent):
        rows = []
        for response in responses:
            row = _accepted(response.packet.payload, txid, True)
            if row is not None:
                rows.append((row[0], qname if row[1] is None else row[1],
                             row[2], row[3], response))
        answers.append(rows)
    return answers
