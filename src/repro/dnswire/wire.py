"""One question in, one reply out, on the query's own bytes.

A server answering a stub query needs the question's name, type and
class, and echoes the rest: :func:`peek_query` reads those off the
datagram and :func:`answer_wire` writes the reply around the query's
bytes, so no :class:`~repro.dnswire.message.Message` is built.  Both
work on one query shape (see :func:`peek_query`); a server stays silent
for anything else.  A :class:`WireQuery` carries its reading along, and
a :class:`WireReply` renders the reply only when read.
"""

from functools import lru_cache

from repro.dnswire.message import Header, Message, Question
from repro.dnswire.name import MAX_NAME_LENGTH, NameCompressor, \
    normalize_name
from repro.dnswire.records import (AData, CnameData, MxData, NsData,
                                   PtrData, ResourceRecord, TxtData,
                                   decode_rdata)

# qdcount=1, ancount=nscount=arcount=0: the header tail of the one shape.
_ONE_QUESTION = b"\x00\x01\x00\x00\x00\x00\x00\x00"
# The question name starts right after the 12-byte header.
_QUESTION_POINTER = b"\xc0\x0c"


class WireQuery(bytes):
    """A query's bytes carrying ``question``, :func:`peek_query`'s
    reading of them, which that function then returns unread."""

    def __new__(cls, data, question=None):
        query = super().__new__(cls, data)
        query.question = question
        return query


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
    if type(payload) is WireQuery:
        return payload.question
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
    read; :meth:`message` is what they parse to, built without them, and
    :meth:`row` that message's :func:`message_row`."""

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

    def _read_back(self):
        """Whether each record reads back as held: owned by the question
        name, rdata that parses back equal (rdata objects are shared)."""
        qname = self.question[0]
        key = qname.lower()     # peek_query's names have no trailing dot
        for record in self.records:
            if record.name != qname and normalize_name(record.name) != key \
                    or not _reads_back(record.rtype, record.data):
                return False
        return True

    def message(self):
        """``Message.from_wire(self.wire())``, field for field, from the
        tuple when :meth:`_read_back` holds; else parsed."""
        if not self._read_back():
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

    def row(self):
        """``message_row(self.message())``, built without the message
        when :meth:`_read_back` holds."""
        if not self._read_back():
            return message_row(Message.from_wire(self.wire()))
        query = self.query
        return (query[0] << 8 | query[1], self.question[0], self.rcode & 0xF,
                [(record.rtype, record.ttl & 0xFFFFFFFF, record.data)
                 for record in self.records])
