"""The server side's wire path: read a query's question off its bytes,
write the reply around them."""

from hypothesis import given, settings, strategies as st

from repro.dnswire import constants
from repro.dnswire.message import Header, Message, Question
from repro.dnswire.records import (MxData, OpaqueData, ResourceRecord,
                                   SoaData)
from repro.dnswire.wire import (WireReply, answer_wire, message_row,
                                peek_query, relayed_answer, reply_rows)
from tests.oracles import message_fields, row_fields

LABEL = st.text(alphabet="abcXYZ019-_", min_size=1, max_size=12)
NAME = st.lists(LABEL, max_size=5).map(".".join)


class TestPeekQuery:
    @given(NAME, st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
           st.booleans(), st.integers(0, 15))
    def test_reads_back_what_message_query_wrote(self, name, qtype, qclass,
                                                 rd, opcode):
        query = Message(Header(txid=9, opcode=opcode, rd=rd),
                        [Question(name, qtype, qclass)]).to_wire()
        assert peek_query(query) == (name, qtype, qclass)

    def test_a_response_is_not_a_query(self):
        response = Message.query("example.com").make_response().to_wire()
        assert peek_query(response) is None

    def test_longest_name_accepted(self):
        name = ".".join(["a" * 63] * 3 + ["a" * 61])    # 255 bytes on wire
        assert peek_query(Message.query(name).to_wire())[0] == name

    @given(st.binary(max_size=48), st.binary(min_size=2, max_size=2))
    def test_the_reading_never_looks_at_the_txid(self, datagram, txid):
        """Why one frame's reading serves every txid."""
        assert peek_query(txid + datagram[2:]) \
            == peek_query(b"\0\0" + datagram[2:])


def response_by_message(query, rcode, ra, records):
    response = Message.from_wire(query).make_response(rcode=rcode, ra=ra)
    response.answers.extend(records)
    return response.to_wire()


RECORDS = st.lists(st.sampled_from([
    ResourceRecord.a("www.example.com", "192.0.2.1"),
    ResourceRecord.a("WWW.Example.COM.", "192.0.2.2", ttl=7),
    ResourceRecord.ns("www.example.com", "ns1.example.com"),
    ResourceRecord.txt("_sig.www.example.com", ["sig=1"], ttl=300),
    ResourceRecord.a("mail.example.com", "192.0.2.3"),
    ResourceRecord.ptr("9.2.0.192.in-addr.arpa", "host.example.net"),
    ResourceRecord.a("", "192.0.2.4"),
]), max_size=5)


class TestAnswerWire:
    @settings(max_examples=150)
    @given(st.sampled_from(["www.example.com", "wWw.ExAmple.cOm", "com",
                            ""]),
           st.integers(0, 0xFFFF), st.booleans(), st.integers(0, 15),
           st.sampled_from([0, 2, 3, 5, 15]), st.booleans(), RECORDS)
    def test_equals_the_message_built_response(self, name, txid, rd, opcode,
                                               rcode, ra, records):
        query = Message(Header(txid=txid, opcode=opcode, rd=rd),
                        [Question(name)]).to_wire()
        assert answer_wire(query, name, rcode, ra, records) \
            == response_by_message(query, rcode, ra, records)

    def test_records_of_the_question_name_point_at_it(self):
        query = Message.query("Example.com", txid=1).to_wire()
        reply = answer_wire(query, "Example.com", constants.RCODE_NOERROR,
                            True, [ResourceRecord.a("example.com",
                                                    "192.0.2.1")])
        assert reply[len(query):len(query) + 2] == b"\xc0\x0c"


# Records each taking one way a field does not survive the wire: an
# owner that is not the question's (compressed under its 0x20 casing),
# rdata the parser reads as another class or rewrites.
ODD_RECORDS = [
    ResourceRecord.txt("_sig.www.example.com", ["sig=1"], ttl=300,
                       rclass=constants.CLASS_IN),
    ResourceRecord.a("mail.example.com", "192.0.2.3"),
    ResourceRecord.a("www.example.com", "010.0.2.1"),
    ResourceRecord.a("www.example.com", " 192.0.2.1"),
    ResourceRecord.ns("www.example.com", "ns1.example.com."),
    ResourceRecord("www.example.com", 28, constants.CLASS_IN, 60,
                   OpaqueData(28, bytes(16))),
    ResourceRecord("www.example.com", constants.QTYPE_TXT,
                   constants.CLASS_IN, 60, OpaqueData(16, b"\x01x")),
    ResourceRecord("www.example.com", constants.QTYPE_SOA,
                   constants.CLASS_IN, 60,
                   SoaData("ns1.example.com", "admin.example.com",
                           refresh=7)),
    ResourceRecord.txt("www.example.com", ["caf\u00e9"]),
    ResourceRecord.txt("www.example.com", ["x" * 300]),
]
# ... and records that do: owned by the question name, in any case,
# with TTLs wrapped to 32 bits as the wire wraps them.
PLAIN_RECORDS = [
    ResourceRecord.a("www.example.com", "192.0.2.5", ttl=-1),
    ResourceRecord.a("www.example.com", "192.0.2.6", ttl=1 << 33),
    ResourceRecord.a("www.example.com", "192.0.2.1"),
    ResourceRecord.a("WWW.Example.COM.", "192.0.2.2", ttl=7),
    ResourceRecord.ns("www.example.com", "ns1.example.com"),
    ResourceRecord.txt("www.example.com", ["9.9.4-bind", ""]),
    ResourceRecord.txt("www.example.com", []),
    ResourceRecord.cname("www.example.com", "edge.example.net"),
    ResourceRecord.ptr("www.example.com", "host.example.net"),
    ResourceRecord("www.example.com", constants.QTYPE_MX,
                   constants.CLASS_IN, 60, MxData(10, "mx.example.com")),
]


@st.composite
def replies(draw):
    """A reply to a drawn query: ``(WireReply, records)``."""
    name = draw(st.sampled_from(["www.example.com", "wWw.ExAmple.cOm", ""]))
    query = Message(Header(txid=draw(st.integers(0, 0xFFFF)),
                           opcode=draw(st.integers(0, 15)),
                           rd=draw(st.booleans())),
                    [Question(name, constants.QTYPE_A)]).to_wire()
    records = draw(st.lists(st.sampled_from(PLAIN_RECORDS + ODD_RECORDS + [
        ResourceRecord.a("", "192.0.2.4"),
        ResourceRecord.ns(".", "a.root-servers.net")]), max_size=4))
    return WireReply(query, peek_query(query),
                     draw(st.sampled_from([0, 2, 3, 5, 15])),
                     draw(st.booleans()), records), records


class TestWireReply:
    """:meth:`WireReply.message` and :func:`reply_rows` against a parse
    of the bytes the reply stands for, field by field."""

    @settings(max_examples=300)
    @given(replies())
    def test_message_equals_the_parse_of_its_bytes(self, drawn):
        reply, records = drawn
        message = reply.message()
        assert bytes(reply) == answer_wire(reply.query, reply.question[0],
                                           reply.rcode, reply.ra, records)
        assert message_fields(message) \
            == message_fields(Message.from_wire(reply.wire()))

    @settings(max_examples=300)
    @given(replies())
    def test_row_equals_the_parse_of_its_bytes(self, drawn):
        reply, records = drawn
        name, qtype, qclass = reply.question
        rows = reply_rows(name, qtype, qclass, reply.rcode, reply.ra,
                          records)
        assert row_fields((None, None, None, rows)) == row_fields(
            (None, None, None,
             message_row(Message.from_wire(reply.wire()))[3]))

    def test_plain_records_are_not_rendered(self):
        query = Message.query("wWw.ExAmple.cOm", txid=3).to_wire()
        reply = WireReply(query, peek_query(query), 0, True, PLAIN_RECORDS)
        assert [record.name for record in reply.message().answers] \
            == ["wWw.ExAmple.cOm"] * len(PLAIN_RECORDS)
        assert reply._wire is None

    def test_each_odd_record_is_rendered(self):
        query = Message.query("wWw.ExAmple.cOm", txid=3).to_wire()
        for record in ODD_RECORDS:
            reply = WireReply(query, peek_query(query), 0, True,
                              PLAIN_RECORDS[:1] + [record])
            reply.message()
            assert reply._wire is not None, record


class TestRelayedAnswer:
    """A forwarder's settled answer to a datagram it relayed: the rows a
    stub reads, and the rcode a header peek reads (``None`` where the
    peek drops the datagram)."""

    QUERY = Message.query("www.example.com", txid=0x1234).to_wire()

    def reply(self, rcode=constants.RCODE_NOERROR):
        return response_by_message(self.QUERY, rcode, True, [
            ResourceRecord.a("www.example.com", "192.0.2.1")])

    def test_a_reply_reads_as_its_rows(self):
        rcode, rows = relayed_answer(self.reply(), 0x1234)
        assert rcode == constants.RCODE_NOERROR
        assert [(rtype, ttl) for rtype, ttl, __ in rows] \
            == [(constants.QTYPE_A, 300)]

    def test_a_header_no_peek_accepts_has_no_rcode(self):
        reply = self.reply(constants.RCODE_REFUSED)
        for datagram, txid in ((reply[:8], 0x1234),     # truncated
                               (reply, 0x4321),         # foreign txid
                               (self.QUERY, 0x1234)):   # QR clear
            assert relayed_answer(datagram, txid) == (None, None)

    def test_a_header_over_a_body_that_does_not_parse_keeps_its_rcode(self):
        # The sweep's header peek counts such a reply; a stub drops it.
        damaged = self.reply(constants.RCODE_SERVFAIL)[:-3]
        assert relayed_answer(damaged, 0x1234) \
            == (constants.RCODE_SERVFAIL, None)
