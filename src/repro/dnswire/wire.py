"""One question in, one reply out, on the query's own bytes.

A server answering a stub query needs the question's name, type and
class, and echoes the rest: :func:`peek_query` reads those off the
datagram and :func:`answer_wire` writes the reply around the query's
bytes, so no :class:`~repro.dnswire.message.Message` is built.  Both
work on one query shape (see :func:`peek_query`); a server stays silent
for anything else.  A :class:`WireReply` renders the reply only when
read, and :func:`reply_rows` reads an answer's records as a stub would.
"""

from functools import lru_cache

from repro.dnswire.message import Header, Message, Question, peek_header
from repro.dnswire.name import MAX_NAME_LENGTH, NameCompressor, \
    normalize_name
from repro.dnswire.records import (AData, CnameData, MxData, NsData,
                                   PtrData, ResourceRecord, TxtData,
                                   decode_rdata)

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


# Rdata whose equality covers all it writes (not SoaData, OpaqueData).
_EXACT_RDATA = (AData, NsData, CnameData, PtrData, TxtData, MxData)


@lru_cache(maxsize=4096)
def _reads_back(rtype, data):
    """Whether ``data`` parses back equal under ``rtype`` — not text the
    codec rewrites or refuses (``"010.0.0.1"``, a trailing dot)."""
    if type(data) not in _EXACT_RDATA or data.rtype != rtype:
        return False
    try:
        raw = data.to_wire()
    except ValueError:
        return False
    return decode_rdata(rtype, raw, 0, len(raw)) == data


def accepted_message(payload, txid):
    """The ``Message`` a stub accepts in the datagram ``payload`` asking
    ``txid``: ``None`` unless its header has QR set and echoes ``txid``
    (read before the parse, which raises ``ValueError`` on garbage)."""
    header = peek_header(payload)
    if header is None or not header[1] or header[0] != txid:
        return None
    return Message.from_wire(payload)


def relayed_answer(payload, txid):
    """``(rcode, rows)`` of the reply datagram ``payload`` to the stub
    query ``txid``, as :func:`accepted_message` reads it: rows ``None``
    when no stub accepts it."""
    try:
        message = accepted_message(payload, txid)
    except ValueError:
        message = None
    if message is None:
        return 0, None
    row = message_row(message)
    return row[2], row[3]


def message_row(message):
    """``(txid, question name or None, rcode, [(rtype, ttl, rdata), …])``
    of ``message``'s header, question and answer section."""
    question = message.question
    return (message.header.txid, question.name if question else None,
            message.rcode, [(record.rtype, record.ttl, record.data)
                            for record in message.answers])


class WireReply:
    """A server's ``(rcode, ra, records)`` answer to ``query``, which
    :func:`peek_query` read as ``question``.  :meth:`wire` (or
    ``bytes(reply)``) renders :func:`answer_wire`'s bytes on the first
    read; :meth:`message` is what they parse to, built without them."""

    __slots__ = ("query", "question", "rcode", "ra", "records", "_wire")

    def __init__(self, query, question, rcode, ra, records):
        self.query = query
        self.question = question
        self.rcode = rcode
        self.ra = ra
        self.records = records
        self._wire = None

    def wire(self):
        if self._wire is None:
            self._wire = answer_wire(self.query, self.question[0],
                                     self.rcode, self.ra, self.records)
        return self._wire

    __bytes__ = wire

    def message(self):
        """``Message.from_wire(self.wire())``, field for field, from the
        tuple when :func:`_held` holds; else parsed."""
        if not _held(self.question[0], self.records):
            return Message.from_wire(self.wire())
        qname, qtype, qclass = self.question
        query = self.query
        return Message(Header(query[0] << 8 | query[1], True,
                              query[2] >> 3 & 0xF, False, False,
                              bool(query[2] & 1), bool(self.ra),
                              self.rcode & 0xF),
                       [Question(qname, qtype, qclass)],
                       [ResourceRecord(qname, record.rtype, record.rclass,
                                       record.ttl & 0xFFFFFFFF, record.data)
                        for record in self.records])



def _held(qname, records):
    """Whether each record reads back as held in a reply to ``qname``:
    owned by the question name, rdata that parses back equal (rdata
    objects are shared)."""
    key = qname.lower()     # peek_query's names have no trailing dot
    for record in records:
        if record.name != qname and normalize_name(record.name) != key \
                or not _reads_back(record.rtype, record.data):
            return False
    return True


def reply_rows(qname, qtype, qclass, rcode, ra, records):
    """The ``[(rtype, ttl, rdata), ...]`` of :func:`message_row` of the
    reply ``(rcode, ra, records)`` to a query of ``(qname, qtype,
    qclass)``: read off the records where :func:`_held` holds (the TTL
    wrapped as the wire wraps it), else off the parse of the rendered
    reply, ``None`` when that does not parse.  Neither the txid nor the
    header flags of the query change what its answer section parses to."""
    if _held(qname, records):
        return [(record.rtype, record.ttl & 0xFFFFFFFF, record.data)
                for record in records]
    query = Message.query(qname, qtype=qtype, qclass=qclass).to_wire()
    try:
        return message_row(Message.from_wire(
            answer_wire(query, qname, rcode, ra, records)))[3]
    except ValueError:
        return None
