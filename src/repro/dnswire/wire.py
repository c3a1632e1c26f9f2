"""One question in, one reply out, on the query's own bytes.

A server answering a stub query needs the question's name, type and
class, and echoes the rest: :func:`peek_query` reads those off the
datagram and :func:`answer_wire` writes the reply around the query's
bytes, so no :class:`~repro.dnswire.message.Message` is built.  Both
work on one query shape (see :func:`peek_query`); a server stays silent
for anything else.
"""

from repro.dnswire.name import MAX_NAME_LENGTH, NameCompressor, \
    normalize_name

# qdcount=1, ancount=nscount=arcount=0: the header tail of the one shape.
_ONE_QUESTION = b"\x00\x01\x00\x00\x00\x00\x00\x00"
# The question name starts right after the 12-byte header.
_QUESTION_POINTER = b"\xc0\x0c"


def peek_query(payload):
    """``(name, qtype, qclass)`` of a query in the accepted shape, else
    ``None``.

    The shape: QR clear, one question and no records, the datagram
    ending where the question does, and a name of plain-ASCII labels —
    no compression pointer, no ``.`` byte inside a label — at most 255
    bytes on the wire.  Exactly those names survive a trip through
    text, which is what lets :func:`answer_wire` echo the question by
    copying it.
    """
    size = len(payload)
    if size < 17 or payload[2] & 0x80 or payload[4:12] != _ONE_QUESTION:
        return None
    labels = []
    pos = 12
    while payload[pos]:
        length = payload[pos]
        if length >= 0x40:
            return None
        pos += length + 1
        if pos > size - 5:      # the root byte, type and class follow
            return None
        labels.append(payload[pos - length:pos])
    if pos != size - 5 or pos - 11 > MAX_NAME_LENGTH:
        return None
    name = b".".join(labels)
    if not name.isascii() or labels and name.count(b".") != len(labels) - 1:
        return None
    return (name.decode("ascii"), payload[pos + 1] << 8 | payload[pos + 2],
            payload[pos + 3] << 8 | payload[pos + 4])


def answer_wire(query, qname, rcode, ra, records):
    """The reply to ``query``, bytes :func:`peek_query` read as
    ``qname``: txid, opcode, RD and question echoed, QR set, ``ra`` and
    ``rcode`` written, ``records`` as the answer section.

    Byte-identical to ``Message.from_wire(query).make_response(rcode,
    ra=ra)`` with ``records`` appended, then ``to_wire()``: a record
    owned by the question name takes the pointer to it, any other goes
    through a :class:`NameCompressor` that has seen the question.
    """
    out = bytearray(query)
    out[2] = 0x80 | query[2] & 0x79         # QR, the query's opcode and RD
    out[3] = (0x80 if ra else 0) | rcode & 0xF
    out[6:8] = len(records).to_bytes(2, "big")
    key = normalize_name(qname)
    compressor = None
    for record in records:
        if key and normalize_name(record.name) == key:
            name_wire = _QUESTION_POINTER
        else:
            if compressor is None:
                compressor = NameCompressor()
                compressor.encode(qname, 12)
            name_wire = compressor.encode(record.name, len(out))
        out += record.to_wire(name_wire)
    return bytes(out)
