"""DNS message header, question, and full-message wire codec."""

import struct

from repro.dnswire import constants
from repro.dnswire.name import (
    NameCompressor,
    decode_name,
    encode_name,
    normalize_name,
)
from repro.dnswire.records import ResourceRecord

HEADER_STRUCT = struct.Struct("!HHHHHH")
_QUESTION_FIXED = struct.Struct("!HH")
# The first name of a message starts right after the header, so this is
# the compression pointer every later copy of it becomes.
_FIRST_NAME_OFFSET = HEADER_STRUCT.size
_FIRST_NAME_POINTER = bytes((0xC0, _FIRST_NAME_OFFSET))


def peek_header(data):
    """Read (txid, qr, rcode) straight off the fixed 12-byte header.

    The Internet-wide scanner only needs these three fields to attribute
    a response, so it can skip constructing a :class:`Message` (and
    decoding names/records) entirely.  Returns ``None`` for payloads too
    short to carry a DNS header; anything longer yields whatever the
    header bytes say — callers reject garbage through the same txid/qr
    checks they already apply to parsed messages.
    """
    if len(data) < 12:
        return None
    return ((data[0] << 8) | data[1],        # txid
            bool(data[2] & 0x80),            # qr
            data[3] & 0x0F)                  # rcode


class Header:
    """The 12-byte DNS header with all flag bits."""

    def __init__(self, txid=0, qr=False, opcode=constants.OPCODE_QUERY,
                 aa=False, tc=False, rd=True, ra=False,
                 rcode=constants.RCODE_NOERROR):
        self.txid = txid
        self.qr = qr
        self.opcode = opcode
        self.aa = aa
        self.tc = tc
        self.rd = rd
        self.ra = ra
        self.rcode = rcode

    def flags_word(self):
        word = 0
        if self.qr:
            word |= 0x8000
        word |= (self.opcode & 0xF) << 11
        if self.aa:
            word |= 0x0400
        if self.tc:
            word |= 0x0200
        if self.rd:
            word |= 0x0100
        if self.ra:
            word |= 0x0080
        word |= self.rcode & 0xF
        return word

    @classmethod
    def from_flags_word(cls, txid, word):
        return cls(txid, word & 0x8000 != 0, (word >> 11) & 0xF,
                   word & 0x0400 != 0, word & 0x0200 != 0,
                   word & 0x0100 != 0, word & 0x0080 != 0, word & 0xF)

    def __repr__(self):
        return ("Header(txid=0x%04x, qr=%s, rcode=%s)"
                % (self.txid, self.qr, constants.rcode_name(self.rcode)))


class Question:
    """A question section entry: name, type, class."""

    def __init__(self, name, qtype=constants.QTYPE_A,
                 qclass=constants.CLASS_IN):
        self.name = name
        self.qtype = qtype
        self.qclass = qclass

    def to_wire(self, name_wire=None):
        """Wire form; ``name_wire`` is the already-encoded (possibly
        compressed) name when the entry is part of a message."""
        if name_wire is None:
            name_wire = encode_name(self.name)
        return name_wire + _QUESTION_FIXED.pack(self.qtype, self.qclass)

    @classmethod
    def from_wire(cls, message, offset):
        name, pos = decode_name(message, offset)
        if pos + 4 > len(message):
            raise ValueError("truncated question at offset %d" % offset)
        qtype, qclass = _QUESTION_FIXED.unpack_from(message, pos)
        return cls(name, qtype, qclass), pos + 4

    def __eq__(self, other):
        return isinstance(other, Question) and (
            other.name, other.qtype, other.qclass) == (
            self.name, self.qtype, self.qclass)

    def __hash__(self):
        return hash((self.name, self.qtype, self.qclass))

    def __repr__(self):
        return "Question(%r, %s, %s)" % (
            self.name, constants.qtype_name(self.qtype),
            constants.class_name(self.qclass))


class Message:
    """A complete DNS message with question/answer/authority/additional."""

    def __init__(self, header=None, questions=None, answers=None,
                 authorities=None, additionals=None):
        self.header = header or Header()
        self.questions = list(questions) if questions else []
        self.answers = list(answers) if answers else []
        self.authorities = list(authorities) if authorities else []
        self.additionals = list(additionals) if additionals else []

    @classmethod
    def query(cls, name, qtype=constants.QTYPE_A, qclass=constants.CLASS_IN,
              txid=0, rd=True):
        """Build a standard query message."""
        header = Header(txid=txid, qr=False, rd=rd)
        return cls(header=header, questions=[Question(name, qtype, qclass)])

    def make_response(self, rcode=constants.RCODE_NOERROR, aa=False, ra=True):
        """Build an (empty) response echoing this query's txid and question."""
        header = Header(txid=self.header.txid, qr=True,
                        opcode=self.header.opcode,
                        aa=aa, rd=self.header.rd, ra=ra, rcode=rcode)
        return Message(header=header, questions=list(self.questions))

    @property
    def rcode(self):
        return self.header.rcode

    @property
    def question(self):
        """The first (and in practice only) question, or ``None``."""
        return self.questions[0] if self.questions else None

    def a_addresses(self):
        """All IPv4 addresses in the answer section, in order."""
        return [rr.data.address for rr in self.answers
                if rr.rtype == constants.QTYPE_A]

    def to_wire(self):
        header = self.header
        out = bytearray(HEADER_STRUCT.pack(
            header.txid, header.flags_word(),
            len(self.questions), len(self.answers),
            len(self.authorities), len(self.additionals)))
        # The first name is written out in full at offset 12 and nearly
        # every record is owned by it: those take the pointer without
        # any compressor state.  A NameCompressor exists only once some
        # other name appears, replayed up to where a compressor that had
        # seen the whole message would be.
        first = first_key = compressor = None
        for section in (self.questions, self.answers, self.authorities,
                        self.additionals):
            for entry in section:
                name = entry.name
                if first is None:
                    first = name
                    first_key = normalize_name(name)
                    name_wire = encode_name(name)
                elif first_key and normalize_name(name) == first_key:
                    # (The root name is a lone zero byte, never a
                    # pointer target.)
                    name_wire = _FIRST_NAME_POINTER
                else:
                    if compressor is None:
                        compressor = NameCompressor()
                        compressor.encode(first, _FIRST_NAME_OFFSET)
                    name_wire = compressor.encode(name, len(out))
                out += entry.to_wire(name_wire)
        return bytes(out)

    @classmethod
    def from_wire(cls, data):
        if len(data) < HEADER_STRUCT.size:
            raise ValueError("message shorter than DNS header")
        txid, flags, qdcount, ancount, nscount, arcount = \
            HEADER_STRUCT.unpack_from(data, 0)
        message = cls(Header.from_flags_word(txid, flags))
        pos = HEADER_STRUCT.size
        # Compression pointer -> the question name it refers to, so the
        # records owned by it (nearly all) skip decoding it again.  Only
        # names stored without a pointer of their own qualify — k labels
        # then occupy exactly len(name) + 2 bytes — which keeps the
        # pointer-jump budget of decode_name out of the picture.
        pointed = {}
        for __ in range(qdcount):
            question, end = Question.from_wire(data, pos)
            if end - 4 - pos == len(question.name) + 2 and pos < 0x4000:
                pointed[bytes((0xC0 | pos >> 8, pos & 0xFF))] = \
                    question.name
            message.questions.append(question)
            pos = end
        for count, records in ((ancount, message.answers),
                               (nscount, message.authorities),
                               (arcount, message.additionals)):
            for __ in range(count):
                record, pos = ResourceRecord.from_wire(data, pos, pointed)
                records.append(record)
        return message

    def __repr__(self):
        return ("Message(%r, %d questions, %d answers, rcode=%s)"
                % (self.header, len(self.questions), len(self.answers),
                   constants.rcode_name(self.header.rcode)))
