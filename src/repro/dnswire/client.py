"""The stub DNS client: one question out, the acceptable answers back.

Every measurement beyond the IPv4 sweep — the domain scan, cache
snooping, popularity, CHAOS fingerprinting, redirect chasing, the
iterative resolver's walk, the validating client — is this one act.
Each consumer keeps only what is its own: how it picks the transaction
ID and source port (they key packet fates, so they never change
silently; see DESIGN.md "Stub DNS client"), and how it decodes what
:func:`ask` accepted.
"""

from functools import lru_cache

from repro.dnswire.constants import CLASS_IN, QTYPE_A
from repro.dnswire.message import Message, peek_header
from repro.dnswire.wire import WireReply
from repro.netsim.network import UdpPacket


@lru_cache(maxsize=4096)
def _query_frame(qname, qtype, qclass, rd):
    """A query's wire form after its two txid bytes: the same for every
    txid, so each question is encoded once."""
    return Message.query(qname, qtype=qtype, qclass=qclass,
                         rd=rd).to_wire()[2:]


def ask(network, source_ip, source_port, server_ip, qname, txid,
        qtype=QTYPE_A, qclass=CLASS_IN, rd=True):
    """Send one question to ``server_ip``:53 and return the accepted
    answers as ``[(Message, UdpResponse), ...]`` in arrival order.

    Accepted means: the datagram parses, has QR set and echoes
    ``txid``.  On-path injections that pass are kept (a forged answer
    racing the genuine one is a finding, not noise); everything else —
    garbage, truncations, echoed queries, other transactions' answers —
    is dropped silently, never raised.  The header decides first, so
    only a datagram that could be accepted is parsed.  A reply still
    unrendered (a ``WireReply``) answers this very query: never parsed.
    """
    packet = UdpPacket(source_ip, source_port, server_ip, 53,
                       txid.to_bytes(2, "big")
                       + _query_frame(qname, qtype, qclass, rd))
    accepted = []
    for response in network.send_udp(packet, rendered=False):
        payload = response.packet.payload
        try:
            if type(payload) is WireReply:
                message = payload.message()
            else:
                header = peek_header(payload)
                if header is None or not header[1] or header[0] != txid:
                    continue
                message = Message.from_wire(payload)
        except ValueError:
            continue
        accepted.append((message, response))
    return accepted
