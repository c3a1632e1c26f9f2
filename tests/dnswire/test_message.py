"""Tests for the DNS message codec."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnswire import constants
from repro.dnswire.message import Header, Message, Question
from repro.dnswire.name import NameError_, decode_name, normalize_name
from repro.dnswire.records import ResourceRecord
from tests.oracles import compressor_only_to_wire


class TestHeader:
    def test_flags_roundtrip_all_set(self):
        header = Header(txid=0x1234, qr=True, opcode=2, aa=True, tc=True,
                        rd=True, ra=True, rcode=5)
        decoded = Header.from_flags_word(0x1234, header.flags_word())
        for attribute in ("qr", "opcode", "aa", "tc", "rd", "ra", "rcode"):
            assert getattr(decoded, attribute) == getattr(header, attribute)

    def test_default_is_recursive_query(self):
        header = Header()
        assert not header.qr
        assert header.rd
        assert header.rcode == constants.RCODE_NOERROR

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_flags_word_roundtrip(self, word):
        # The reserved Z bits are not modelled; mask them out.
        meaningful = word & 0xFF8F
        assert Header.from_flags_word(0, meaningful).flags_word() \
            == meaningful


class TestQuestion:
    def test_wire_roundtrip(self):
        wire = Question("example.com", constants.QTYPE_NS).to_wire()
        decoded, offset = Question.from_wire(wire, 0)
        assert decoded.name == "example.com"
        assert decoded.qtype == constants.QTYPE_NS
        assert offset == len(wire)

    def test_equality(self):
        assert Question("a.example") == Question("a.example")
        assert Question("a.example") != Question("a.example",
                                                 constants.QTYPE_NS)


class TestMessage:
    def test_query_builder(self):
        query = Message.query("example.com", txid=7)
        assert query.header.txid == 7
        assert not query.header.qr
        assert query.question.name == "example.com"

    def test_full_roundtrip(self):
        query = Message.query("www.example.com", txid=99)
        response = query.make_response(aa=True)
        response.answers.append(
            ResourceRecord.a("www.example.com", "192.0.2.7", ttl=60))
        response.authorities.append(
            ResourceRecord.ns("example.com", "ns1.example.com"))
        response.additionals.append(
            ResourceRecord.a("ns1.example.com", "192.0.2.53"))
        decoded = Message.from_wire(response.to_wire())
        assert decoded.header.txid == 99
        assert decoded.header.qr
        assert decoded.header.aa
        assert decoded.question.name == "www.example.com"
        assert decoded.a_addresses() == ["192.0.2.7"]
        assert decoded.authorities[0].data.name == "ns1.example.com"
        assert decoded.additionals[0].data.address == "192.0.2.53"

    def test_compression_shrinks_message(self):
        response = Message.query("www.example.com").make_response()
        for i in range(5):
            response.answers.append(ResourceRecord.a(
                "www.example.com", "192.0.2.%d" % i))
        wire = response.to_wire()
        # 5 answers sharing the qname: each answer name is a 2-byte
        # pointer instead of 17 bytes.
        assert len(wire) < 12 + 21 + 5 * (17 + 14)

    def test_make_response_echoes_question_case(self):
        query = Message.query("ExAmPlE.CoM", txid=3)
        response = query.make_response()
        assert response.question.name == "ExAmPlE.CoM"

    def test_make_response_rcode(self):
        response = Message.query("x.example").make_response(
            rcode=constants.RCODE_NXDOMAIN)
        assert response.rcode == constants.RCODE_NXDOMAIN
        assert response.header.qr

    @pytest.mark.parametrize("name", ["a..example.com",
                                      ".".join(["a" * 60] * 5)],
                             ids=["empty label", "305 bytes"])
    def test_malformed_names_never_reach_the_wire(self, name):
        """A question name ``encode_name`` refuses is refused as the
        first name too (it used to go out ending at the empty label, or
        over-long), and so is a record owner name."""
        with pytest.raises(NameError_):
            Message.query(name).to_wire()
        response = Message.query("example.com").make_response()
        response.answers.append(ResourceRecord.a(name, "192.0.2.1"))
        with pytest.raises(NameError_):
            response.to_wire()

    def test_truncated_raises(self):
        with pytest.raises(ValueError):
            Message.from_wire(b"\x00" * 5)

    def test_empty_answer_a_addresses(self):
        assert Message.query("x.example").a_addresses() == []

    def test_question_none_when_empty(self):
        message = Message()
        assert message.question is None

    @given(st.integers(min_value=0, max_value=0xFFFF),
           st.lists(st.integers(min_value=0, max_value=255), min_size=4,
                    max_size=4))
    def test_query_roundtrip_property(self, txid, octets):
        address = ".".join(str(o) for o in octets)
        query = Message.query("probe.example.com", txid=txid)
        response = query.make_response()
        response.answers.append(
            ResourceRecord.a("probe.example.com", address))
        decoded = Message.from_wire(response.to_wire())
        assert decoded.header.txid == txid
        assert decoded.a_addresses() == [address]

    def test_chaos_txt_roundtrip(self):
        query = Message.query("version.bind", qtype=constants.QTYPE_TXT,
                              qclass=constants.CLASS_CH)
        response = query.make_response()
        response.answers.append(
            ResourceRecord.txt("version.bind", ["9.8.2rc1"]))
        decoded = Message.from_wire(response.to_wire())
        assert decoded.answers[0].data.text == "9.8.2rc1"
        assert decoded.answers[0].rclass == constants.CLASS_CH


def header_bytes(qdcount=0, ancount=0, nscount=0, arcount=0):
    return struct.pack("!HHHHHH", 7, 0x8180, qdcount, ancount, nscount,
                       arcount)


class TestMalformedInput:
    """``from_wire`` reports every malformed message as ``ValueError``:
    that is the only exception its callers (resolvers, scanners) catch,
    so anything else aborts a scan on one corrupt datagram."""

    def test_truncated_question(self):
        with pytest.raises(ValueError):
            Message.from_wire(header_bytes(qdcount=1) + b"\x03www\x00\x00")

    def test_truncated_record_header(self):
        with pytest.raises(ValueError):
            Message.from_wire(header_bytes(ancount=1)
                              + b"\x03www\x00" + b"\x00\x01\x00\x01\x00")

    def test_txt_rdlength_past_message(self):
        record = b"\x03www\x00" + struct.pack(
            "!HHIH", constants.QTYPE_TXT, constants.CLASS_CH, 0, 40)
        with pytest.raises(ValueError):
            Message.from_wire(header_bytes(ancount=1) + record + b"\x05ab")

    def test_short_mx_and_soa_rdata(self):
        for rtype, rdata in ((constants.QTYPE_MX, b"\x00"),
                             (constants.QTYPE_SOA, b"\x00\x00\x00\x01")):
            record = b"\x01a\x00" + struct.pack(
                "!HHIH", rtype, constants.CLASS_IN, 0, len(rdata)) + rdata
            with pytest.raises(ValueError):
                Message.from_wire(header_bytes(ancount=1) + record)

    def test_pointer_jump_budget_covers_the_owner_pointer(self):
        # A question name that takes exactly the 64 jumps a name may
        # take: two 63-byte labels and a 2-byte one, all filled with
        # pointers that walk backwards through them.  The record's
        # owner is a pointer to that name: a 65th jump, so the message
        # is malformed although the question alone is not.
        region = bytearray(12)
        region += b"\x3f\x00"                      # 12: label; 13: root
        for position in range(14, 76, 2):          # 14..74 -> 13, 14, ..
            region += bytes((0xC0, max(13, position - 2)))
        region += b"\x3f\x00"                      # 76: label; 77 unused
        for position in range(78, 140, 2):         # 78 -> 74, then -2
            region += bytes((0xC0, 74 if position == 78 else position - 2))
        region += b"\x02\xc0\x8a"                  # 140: label -> 138
        region += b"\xc0\x8d"                      # 143 -> 141
        name, end = decode_name(bytes(region), 12)
        assert end == 145 and len(name) == 63 + 1 + 63 + 1 + 2
        question = bytes(region[12:]) + b"\x00\x01\x00\x01"
        assert Message.from_wire(
            header_bytes(qdcount=1) + question).question.name == name
        record = b"\xc0\x0c" + struct.pack(
            "!HHIH", constants.QTYPE_A, constants.CLASS_IN, 0, 4) + bytes(4)
        with pytest.raises(ValueError):
            Message.from_wire(header_bytes(qdcount=1, ancount=1)
                              + question + record)


LABELS = st.text(alphabet="abcXYZ019-", min_size=1, max_size=12)
NAMES = st.lists(LABELS, max_size=4).map(".".join)     # "" is the root


@st.composite
def cased_like(draw, name):
    """``name`` in another mix of upper and lower case."""
    flips = draw(st.integers(min_value=0, max_value=(1 << len(name)) - 1)
                 if name else st.just(0))
    return "".join(ch.swapcase() if flips >> i & 1 else ch
                   for i, ch in enumerate(name))


@st.composite
def messages(draw):
    """Messages shaped like the ones the study exchanges, and not:
    zero to two questions, the root name, owners in another case than
    the question, owners below and beside it, CNAME chains, every
    rdata type."""
    pool = draw(st.lists(NAMES, min_size=1, max_size=3))
    questions = [Question(draw(st.sampled_from(pool)),
                          draw(st.sampled_from((constants.QTYPE_A,
                                                constants.QTYPE_TXT))))
                 for __ in range(draw(st.integers(0, 2)))]
    if questions:
        pool.append("www." + questions[0].name)

    def owner():
        return draw(cased_like(draw(st.sampled_from(pool))))

    def record():
        kind = draw(st.integers(0, 6))
        name = owner()
        ttl = draw(st.integers(0, 2 ** 33))
        if kind == 0:
            return ResourceRecord.cname(name, owner(), ttl=ttl)
        if kind == 1:
            return ResourceRecord.ns(name, owner(), ttl=ttl)
        if kind == 2:
            return ResourceRecord.mx(name, draw(st.integers(0, 65535)),
                                     owner(), ttl=ttl)
        if kind == 3:
            return ResourceRecord.txt(name, draw(st.lists(
                st.text(alphabet="abc .", max_size=300), max_size=3)),
                ttl=ttl)
        if kind == 4:
            return ResourceRecord.soa(name, owner(), owner(), ttl=ttl,
                                      serial=draw(st.integers(0, 2 ** 31)))
        return ResourceRecord.a(name, ".".join(
            str(draw(st.integers(0, 255))) for __ in range(4)), ttl=ttl)

    sections = [[record() for __ in range(draw(st.integers(0, 3)))]
                for __ in range(3)]
    header = Header(txid=draw(st.integers(0, 0xFFFF)),
                    qr=draw(st.booleans()), rd=draw(st.booleans()),
                    rcode=draw(st.integers(0, 5)))
    return Message(header, questions, *sections)


def standalone_records(wire, message):
    """The records of ``wire`` decoded one by one, every owner name
    through ``decode_name`` (no per-message pointer table)."""
    pos = 12
    for __ in message.questions:
        __, pos = Question.from_wire(wire, pos)
    records = []
    for __ in (message.answers + message.authorities
               + message.additionals):
        record, pos = ResourceRecord.from_wire(wire, pos)
        records.append(record)
    assert pos == len(wire)
    return records


class TestCodecAgainstCompressorOnly:
    @given(messages())
    @settings(max_examples=400, deadline=None)
    def test_to_wire_is_byte_identical(self, message):
        assert message.to_wire() == compressor_only_to_wire(message)

    @given(messages())
    @settings(max_examples=400, deadline=None)
    def test_roundtrip(self, message):
        wire = message.to_wire()
        decoded = Message.from_wire(wire)
        assert decoded.header.flags_word() == message.header.flags_word()
        assert decoded.header.txid == message.header.txid
        # Compression keeps the case of a name's first occurrence only.
        assert [(normalize_name(q.name), q.qtype, q.qclass)
                for q in decoded.questions] \
            == [(normalize_name(q.name), q.qtype, q.qclass)
                for q in message.questions]
        for decoded_section, section in (
                (decoded.answers, message.answers),
                (decoded.authorities, message.authorities),
                (decoded.additionals, message.additionals)):
            assert [normalize_name(r.name) for r in decoded_section] \
                == [normalize_name(r.name) for r in section]
            assert [(r.rtype, r.rclass, r.ttl) for r in decoded_section] \
                == [(r.rtype, r.rclass, r.ttl & 0xFFFFFFFF)
                    for r in section]
        assert decoded.to_wire() == wire
        # The pointer table answers exactly what decode_name would.
        assert [(r.name, r.data) for r in standalone_records(wire, decoded)] \
            == [(r.name, r.data) for r in decoded.answers
                + decoded.authorities + decoded.additionals]

    def test_study_shapes(self):
        query = Message.query("WwW.ExAmPle.cOm", txid=9)
        response = Message.from_wire(query.to_wire()).make_response()
        response.answers.append(
            ResourceRecord.cname("www.example.com", "cdn.Example.net"))
        response.answers.append(
            ResourceRecord.a("cdn.example.NET", "192.0.2.1"))
        response.answers.append(
            ResourceRecord.a("WWW.example.com", "192.0.2.2"))
        wire = response.to_wire()
        assert wire == compressor_only_to_wire(response)
        assert wire.count(b"\xc0\x0c") == 2
        decoded = Message.from_wire(wire)
        assert [r.name for r in decoded.answers] == [
            "WwW.ExAmPle.cOm", "cdn.example.NET", "WwW.ExAmPle.cOm"]

    def test_root_question_is_never_a_pointer_target(self):
        message = Message(questions=[Question("")], answers=[
            ResourceRecord.ns("", "a.root-servers.net"),
            ResourceRecord.ns(".", "b.root-servers.net")])
        wire = message.to_wire()
        assert wire == compressor_only_to_wire(message)
        assert b"\xc0\x0c" not in wire
        assert [r.name for r in Message.from_wire(wire).answers] == ["", ""]

    def test_no_question(self):
        message = Message(answers=[
            ResourceRecord.a("Example.com", "192.0.2.1"),
            ResourceRecord.a("example.COM", "192.0.2.2"),
            ResourceRecord.a("www.example.com", "192.0.2.3")])
        wire = message.to_wire()
        assert wire == compressor_only_to_wire(message)
        assert [r.name for r in Message.from_wire(wire).answers] == [
            "Example.com", "Example.com", "www.Example.com"]


MUTATIONS = st.lists(st.tuples(st.sampled_from(("flip", "cut", "dup")),
                               st.integers(0, 10 ** 6),
                               st.integers(1, 255)), max_size=4)


class TestFromWireFuzz:
    """Whatever arrives, ``from_wire`` returns a message or raises
    ``ValueError`` — never ``struct.error``, ``IndexError`` or worse."""

    @staticmethod
    def parse(data):
        try:
            assert isinstance(Message.from_wire(data), Message)
        except ValueError:
            pass

    @given(st.binary(max_size=120))
    @settings(max_examples=500, deadline=None)
    def test_random_bytes(self, data):
        self.parse(data)

    @given(st.binary(min_size=12, max_size=12), st.binary(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_small_counts_over_random_body(self, header, body):
        # Random headers claim thousands of entries and fail at once;
        # small counts let the parser get into the records.
        counts = bytes(value & 3 for value in header[4:])
        self.parse(header[:4] + counts + body)

    @given(messages(), MUTATIONS)
    @settings(max_examples=600, deadline=None)
    def test_damaged_valid_messages(self, message, mutations):
        wire = bytearray(message.to_wire())
        for kind, position, value in mutations:
            position %= len(wire)
            if kind == "flip":
                wire[position] ^= value
            elif kind == "cut":
                del wire[position:]
            else:
                wire[position:position] = wire[position:position + value]
            if not wire:
                break
        self.parse(bytes(wire))
