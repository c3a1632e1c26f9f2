"""The server side's wire path: read a query's question off its bytes,
write the reply around them."""

from hypothesis import given, settings, strategies as st

from repro.dnswire import constants
from repro.dnswire.message import Header, Message, Question
from repro.dnswire.records import ResourceRecord
from repro.dnswire.wire import answer_wire, peek_query

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
