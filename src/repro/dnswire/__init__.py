"""DNS wire protocol: RFC 1035 message codec, record types, and 0x20 encoding.

This package implements the on-the-wire DNS format used by every other
subsystem: the scanners craft real DNS query packets with it, the simulated
resolvers and authoritative servers parse and answer them, and the analysis
pipeline decodes the responses.  Nothing above this layer touches raw bytes.
:mod:`repro.dnswire.client` (imported by name, since it needs the network
simulator) is the one client-side exchange built on it.
"""

from repro.dnswire.constants import (
    CLASS_CH,
    CLASS_IN,
    OPCODE_QUERY,
    QTYPE_A,
    QTYPE_AAAA,
    QTYPE_ANY,
    QTYPE_CNAME,
    QTYPE_MX,
    QTYPE_NS,
    QTYPE_PTR,
    QTYPE_SOA,
    QTYPE_TXT,
    RCODE_FORMERR,
    RCODE_NOERROR,
    RCODE_NOTIMP,
    RCODE_NXDOMAIN,
    RCODE_REFUSED,
    RCODE_SERVFAIL,
    class_name,
    qtype_name,
    rcode_name,
)
from repro.dnswire.message import Header, Message, Question, peek_header
from repro.dnswire.name import (
    apply_0x20,
    decode_name,
    encode_name,
    matches_0x20,
    normalize_name,
    random_0x20_bits,
    recover_0x20_bits,
)
from repro.dnswire.records import (
    AData,
    CnameData,
    MxData,
    NsData,
    PtrData,
    ResourceRecord,
    SoaData,
    TxtData,
)

__all__ = [
    "AData",
    "CLASS_CH",
    "CLASS_IN",
    "CnameData",
    "Header",
    "Message",
    "MxData",
    "NsData",
    "OPCODE_QUERY",
    "PtrData",
    "QTYPE_A",
    "QTYPE_AAAA",
    "QTYPE_ANY",
    "QTYPE_CNAME",
    "QTYPE_MX",
    "QTYPE_NS",
    "QTYPE_PTR",
    "QTYPE_SOA",
    "QTYPE_TXT",
    "Question",
    "RCODE_FORMERR",
    "RCODE_NOERROR",
    "RCODE_NOTIMP",
    "RCODE_NXDOMAIN",
    "RCODE_REFUSED",
    "RCODE_SERVFAIL",
    "ResourceRecord",
    "SoaData",
    "TxtData",
    "apply_0x20",
    "class_name",
    "decode_name",
    "encode_name",
    "matches_0x20",
    "normalize_name",
    "peek_header",
    "qtype_name",
    "random_0x20_bits",
    "rcode_name",
    "recover_0x20_bits",
]
