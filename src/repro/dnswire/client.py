"""The stub DNS client: one question out, the acceptable answers back.

Every measurement beyond the IPv4 sweep — the domain scan, cache
snooping, popularity, CHAOS fingerprinting, redirect chasing, the
iterative resolver's walk, the validating client — is this one act.
Each consumer keeps only what is its own: how it picks the transaction
ID and source port (they key packet fates, so they never change
silently; see DESIGN.md "Stub DNS client"), and how it decodes what
:func:`ask` accepted.
"""

from repro.dnswire.constants import CLASS_IN, QTYPE_A
from repro.dnswire.message import Message
from repro.netsim.network import UdpPacket


def ask(network, source_ip, source_port, server_ip, qname, txid,
        qtype=QTYPE_A, qclass=CLASS_IN, rd=True):
    """Send one question to ``server_ip``:53 and return the accepted
    answers as ``[(Message, UdpResponse), ...]`` in arrival order.

    Accepted means: the datagram parses, has QR set and echoes
    ``txid``.  On-path injections that pass are kept (a forged answer
    racing the genuine one is a finding, not noise); everything else —
    garbage, truncations, echoed queries, other transactions' answers —
    is dropped silently, never raised.
    """
    query = Message.query(qname, qtype=qtype, qclass=qclass, txid=txid,
                          rd=rd)
    packet = UdpPacket(source_ip, source_port, server_ip, 53,
                       query.to_wire())
    accepted = []
    for response in network.send_udp(packet):
        try:
            message = Message.from_wire(response.packet.payload)
        except ValueError:
            continue
        if message.header.qr and message.header.txid == txid:
            accepted.append((message, response))
    return accepted
