"""Identity encodings used by the scanners.

Two encodings from the paper:

*IPv4 scans* (§2.2): each probe's query name embeds the target address
(``prefix.hex-ip.domain.edu``), so a response can be attributed to the
host it was actually sent to even when the reply's UDP source address
differs (multi-homed hosts, DNS proxies).

*Domain scans* (§3.3): the query name is fixed per domain, so the target
resolver's identity is packed into ceil(log2(20M)) = 25 bits: 16 in the
DNS transaction ID, 9 in the UDP source port, and — redundantly, because
some resolvers rewrite the destination port of their response — the same
9 bits in the 0x20 case pattern of the query name.
"""

from repro.dnswire.constants import CLASS_IN, QTYPE_A
from repro.dnswire.name import (
    apply_0x20,
    encode_name,
    normalize_name,
    recover_0x20_bits,
    split_labels,
)
from repro.netsim.address import int_to_ip, ip_to_int

PORT_BITS = 9
TXID_BITS = 16
MAX_RESOLVER_ID = (1 << (PORT_BITS + TXID_BITS)) - 1

# Wire constants of the one query shape every IPv4-scan probe shares:
# header flags/counts for a 1-question rd=1 query (bytes 2..11), and the
# QTYPE=A / QCLASS=IN question tail.
_QUERY_HEADER_TAIL = b"\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00"
_QUESTION_TAIL = b"\x00\x01\x00\x01"


class ProbeBatchEncoder:
    """Preallocated-buffer encoder for IPv4-scan probe payloads.

    Every probe's wire image differs from its neighbours only in three
    windows — the 2-byte txid, the ``r<hex>`` cache-busting label (2–7
    bytes, so six distinct frame lengths), and the 8-hex-char target —
    everything else is a pure function of the measurement domain.  The
    encoder keeps one mutable template per frame length, pre-filled
    with all the constant bytes, and :meth:`encode` just writes the
    three windows and snapshots the frame (a single C ``memcpy``).
    Compared to joining seven fragments per probe, nothing is
    re-derived and no intermediate tuples or fragments are allocated.

    Output is byte-identical to ``Message.query(...).to_wire()`` for
    the equivalent query (pinned by tests).  The sweep asks for the
    probe's :meth:`question`, and :meth:`render` builds the payload
    from it only when the datagram takes the wire.
    """

    _LABEL_OFFSET = 13  # txid(2) + header tail(10) + length byte(1)

    def __init__(self, measurement_domain):
        self.measurement_domain = measurement_domain
        suffix_wire = encode_name(measurement_domain)
        # The query name as the wire spells it: case kept, no trailing
        # dot — what peek_query reads off the payload.
        suffix = ".".join(split_labels(measurement_domain))
        self._qname = "r%x.%08x" + ("." + suffix.replace("%", "%%")
                                    if suffix else "")
        self._pool = {}
        for label_len in range(2, 8):  # "r0" .. "rffffff"
            frame = bytearray()
            frame += b"\x00\x00"                  # txid window
            frame += _QUERY_HEADER_TAIL
            frame.append(label_len)
            frame += b"\x00" * label_len          # label window
            frame.append(8)
            frame += b"\x00" * 8                  # hex-target window
            frame += suffix_wire + _QUESTION_TAIL
            hex_offset = self._LABEL_OFFSET + label_len + 1
            self._pool[label_len] = (frame, hex_offset)

    def encode(self, key, value):
        """Encode the probe for one (probe key, target int) pair.

        Returns ``(txid, payload_bytes)``; the txid and label are the
        probe-key windows the scanner derives from its splitmix64 probe
        identity, ``value`` is the 32-bit target address.
        """
        txid = key & 0xFFFF
        return txid, self._frame(txid, b"r%x" % (key >> 16 & 0xFFFFFF),
                                 b"%08x" % value)

    def question(self, key, value):
        """The question :meth:`encode`'s probe asks, ``(qname, QTYPE_A,
        CLASS_IN, txid)``: the qname is what
        :func:`~repro.dnswire.wire.peek_query` reads off the payload,
        which :meth:`render` builds from the question alone."""
        return (self._qname % (key >> 16 & 0xFFFFFF, value), QTYPE_A,
                CLASS_IN, key & 0xFFFF)

    def render(self, question):
        """The payload of the probe asking ``question`` (one of
        :meth:`question`'s): :meth:`encode`'s bytes for the same key and
        target."""
        qname = question[0]
        cut = qname.index(".")
        return self._frame(question[3], qname[:cut].encode(),
                           qname[cut + 1:cut + 9].encode())

    def _frame(self, txid, label, target):
        """Write the three windows into the frame of ``label``'s length
        and snapshot it."""
        frame, hex_offset = self._pool[len(label)]
        frame[0] = txid >> 8
        frame[1] = txid & 0xFF
        frame[self._LABEL_OFFSET:hex_offset - 1] = label
        frame[hex_offset:hex_offset + 8] = target
        return bytes(frame)

    def encode_batch(self, keys, values):
        """Encode a whole batch; returns a list of (txid, payload)."""
        encode = self.encode
        return [encode(key, value) for key, value in zip(keys, values)]


def encode_target_qname(target_ip, measurement_domain, probe_id=0):
    """Build the IPv4-scan query name: random prefix + hex target IP."""
    return "r%x.%08x.%s" % (probe_id & 0xFFFFFF, ip_to_int(target_ip),
                            measurement_domain)


def decode_target_ip(qname, measurement_domain):
    """Recover the target address from an IPv4-scan query name."""
    name = normalize_name(qname)
    suffix = "." + normalize_name(measurement_domain)
    if not name.endswith(suffix):
        return None
    remainder = name[:-len(suffix)]
    labels = remainder.split(".")
    if len(labels) != 2:
        return None
    try:
        value = int(labels[1], 16)
    except ValueError:
        return None
    if not 0 <= value <= 0xFFFFFFFF:
        return None
    return int_to_ip(value)


class ResolverIdCodec:
    """Packs a 25-bit resolver identifier into txid + source port + 0x20.

    ``base_port`` anchors the 512-port window used for the 9 high bits.
    Decoding prefers the port bits; when the response's destination port
    falls outside the window (a port-rewriting resolver) the 0x20 case
    pattern of the echoed question supplies the same bits.
    """

    def __init__(self, base_port=33000):
        if not 1024 <= base_port <= 65535 - (1 << PORT_BITS):
            raise ValueError("base_port window out of range")
        self.base_port = base_port

    def encode(self, resolver_id, domain):
        """Return ``(txid, src_port, cased_qname)`` for a scan query."""
        return self.flow(resolver_id) + (self.case(resolver_id, domain),)

    def flow(self, resolver_id):
        """``(txid, src_port)`` of a scan query to ``resolver_id``."""
        if not 0 <= resolver_id <= MAX_RESOLVER_ID:
            raise ValueError("resolver id %d exceeds 25 bits" % resolver_id)
        return (resolver_id & 0xFFFF,
                self.base_port + (resolver_id >> TXID_BITS))

    def case(self, resolver_id, domain):
        """``domain`` in the 0x20 pattern of ``resolver_id``'s port
        window: the same for all 65 536 ids that share a source port."""
        return apply_0x20(normalize_name(domain), resolver_id >> TXID_BITS)

    def decode(self, txid, response_dst_port, echoed_qname):
        """Recover the resolver id from a response's fields.

        ``response_dst_port`` is the UDP port the response was sent to
        (our original source port); ``echoed_qname`` is the question name
        echoed in the response.
        """
        window = 1 << PORT_BITS
        if self.base_port <= response_dst_port < self.base_port + window:
            high = response_dst_port - self.base_port
        else:
            high, bit_count = recover_0x20_bits(echoed_qname)
            if bit_count < PORT_BITS:
                # Short names cannot carry all 9 bits; mask what we have.
                high &= (1 << bit_count) - 1
            else:
                high &= window - 1
        return (high << TXID_BITS) | (txid & 0xFFFF)
