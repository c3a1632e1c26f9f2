"""Resource record data types and their wire codecs."""

import struct

from repro.dnswire import constants
from repro.dnswire.name import decode_name, encode_name

# type, class, TTL, rdlength: the fixed part of every record.
_FIXED = struct.Struct("!HHIH")


def _pack_ipv4(text):
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError("bad IPv4 address %r" % text)
    try:
        return bytes(map(int, parts))    # rejects octets outside 0..255
    except ValueError:
        raise ValueError("bad IPv4 address %r" % text) from None


class AData:
    """An IPv4 address (A record rdata)."""

    rtype = constants.QTYPE_A

    def __init__(self, address):
        self.address = address

    def to_wire(self):
        return _pack_ipv4(self.address)

    @classmethod
    def from_wire(cls, data, offset, rdlength, message=None):
        octets = message[offset:offset + rdlength]
        if len(octets) != 4:
            raise ValueError("A rdata must be 4 bytes")
        return cls("%d.%d.%d.%d" % tuple(octets))

    def __eq__(self, other):
        return isinstance(other, AData) and other.address == self.address

    def __hash__(self):
        return hash(("A", self.address))

    def __repr__(self):
        return "AData(%r)" % self.address


class _NameData:
    """Base for rdata that is a single domain name (NS, CNAME, PTR)."""

    rtype = None

    def __init__(self, name):
        self.name = name

    def to_wire(self):
        return encode_name(self.name)

    @classmethod
    def from_wire(cls, data, offset, rdlength, message=None):
        name, __ = decode_name(message, offset)
        return cls(name)

    def __eq__(self, other):
        return type(other) is type(self) and other.name == self.name

    def __hash__(self):
        return hash((type(self).__name__, self.name))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.name)


class NsData(_NameData):
    rtype = constants.QTYPE_NS


class CnameData(_NameData):
    rtype = constants.QTYPE_CNAME


class PtrData(_NameData):
    rtype = constants.QTYPE_PTR


class TxtData:
    """One or more character strings (TXT rdata); used by CHAOS replies."""

    rtype = constants.QTYPE_TXT

    def __init__(self, strings):
        if isinstance(strings, str):
            strings = [strings]
        self.strings = list(strings)

    @property
    def text(self):
        return "".join(self.strings)

    def to_wire(self):
        out = bytearray()
        for text in self.strings:
            raw = text.encode("ascii", "replace")
            for start in range(0, max(len(raw), 1), 255):
                chunk = raw[start:start + 255]
                out.append(len(chunk))
                out.extend(chunk)
        return bytes(out)

    @classmethod
    def from_wire(cls, data, offset, rdlength, message=None):
        end = offset + rdlength
        strings = []
        pos = offset
        while pos < end:
            length = message[pos]
            pos += 1
            strings.append(
                message[pos:pos + length].decode("ascii", "replace"))
            pos += length
        return cls(strings)

    def __eq__(self, other):
        return isinstance(other, TxtData) and other.strings == self.strings

    def __hash__(self):
        return hash(("TXT", tuple(self.strings)))

    def __repr__(self):
        return "TxtData(%r)" % self.strings


class MxData:
    """Mail exchange rdata: preference and exchange host."""

    rtype = constants.QTYPE_MX

    def __init__(self, preference, exchange):
        self.preference = preference
        self.exchange = exchange

    def to_wire(self):
        return struct.pack("!H", self.preference) + encode_name(self.exchange)

    @classmethod
    def from_wire(cls, data, offset, rdlength, message=None):
        if rdlength < 2:
            raise ValueError("MX rdata shorter than its preference")
        (preference,) = struct.unpack_from("!H", message, offset)
        exchange, __ = decode_name(message, offset + 2)
        return cls(preference, exchange)

    def __eq__(self, other):
        return (isinstance(other, MxData)
                and other.preference == self.preference
                and other.exchange == self.exchange)

    def __hash__(self):
        return hash(("MX", self.preference, self.exchange))

    def __repr__(self):
        return "MxData(%d, %r)" % (self.preference, self.exchange)


class SoaData:
    """Start of authority rdata."""

    rtype = constants.QTYPE_SOA

    def __init__(self, mname, rname, serial=1, refresh=3600, retry=600,
                 expire=86400, minimum=60):
        self.mname = mname
        self.rname = rname
        self.serial = serial
        self.refresh = refresh
        self.retry = retry
        self.expire = expire
        self.minimum = minimum

    def to_wire(self):
        return (encode_name(self.mname) + encode_name(self.rname)
                + struct.pack("!IIIII", self.serial, self.refresh,
                              self.retry, self.expire, self.minimum))

    @classmethod
    def from_wire(cls, data, offset, rdlength, message=None):
        mname, pos = decode_name(message, offset)
        rname, pos = decode_name(message, pos)
        if pos + 20 > len(message):
            raise ValueError("truncated SOA rdata")
        serial, refresh, retry, expire, minimum = struct.unpack_from(
            "!IIIII", message, pos)
        return cls(mname, rname, serial, refresh, retry, expire, minimum)

    def __eq__(self, other):
        return isinstance(other, SoaData) and (
            other.mname, other.rname, other.serial) == (
            self.mname, self.rname, self.serial)

    def __hash__(self):
        return hash(("SOA", self.mname, self.rname, self.serial))

    def __repr__(self):
        return "SoaData(%r, %r, serial=%d)" % (self.mname, self.rname,
                                               self.serial)


class OpaqueData:
    """Uninterpreted rdata for record types the codec does not model."""

    rtype = None

    def __init__(self, rtype, raw):
        self.rtype = rtype
        self.raw = raw

    def to_wire(self):
        return self.raw

    def __eq__(self, other):
        return (isinstance(other, OpaqueData) and other.rtype == self.rtype
                and other.raw == self.raw)

    def __hash__(self):
        return hash(("OPAQUE", self.rtype, self.raw))

    def __repr__(self):
        return "OpaqueData(%d, %r)" % (self.rtype, self.raw)


_RDATA_CLASSES = {
    constants.QTYPE_A: AData,
    constants.QTYPE_NS: NsData,
    constants.QTYPE_CNAME: CnameData,
    constants.QTYPE_PTR: PtrData,
    constants.QTYPE_TXT: TxtData,
    constants.QTYPE_MX: MxData,
    constants.QTYPE_SOA: SoaData,
}


def decode_rdata(rtype, message, offset, rdlength):
    """Decode rdata bytes into a typed object (or :class:`OpaqueData`)."""
    cls = _RDATA_CLASSES.get(rtype)
    if cls is None:
        return OpaqueData(rtype, bytes(message[offset:offset + rdlength]))
    return cls.from_wire(None, offset, rdlength, message=message)


class ResourceRecord:
    """A complete resource record: name, type, class, TTL, and typed rdata."""

    def __init__(self, name, rtype, rclass, ttl, data):
        self.name = name
        self.rtype = rtype
        self.rclass = rclass
        self.ttl = ttl
        self.data = data

    @classmethod
    def a(cls, name, address, ttl=300, rclass=constants.CLASS_IN):
        return cls(name, constants.QTYPE_A, rclass, ttl, AData(address))

    @classmethod
    def ns(cls, name, target, ttl=3600, rclass=constants.CLASS_IN):
        return cls(name, constants.QTYPE_NS, rclass, ttl, NsData(target))

    @classmethod
    def cname(cls, name, target, ttl=300, rclass=constants.CLASS_IN):
        return cls(name, constants.QTYPE_CNAME, rclass, ttl, CnameData(target))

    @classmethod
    def ptr(cls, name, target, ttl=3600, rclass=constants.CLASS_IN):
        return cls(name, constants.QTYPE_PTR, rclass, ttl, PtrData(target))

    @classmethod
    def txt(cls, name, strings, ttl=0, rclass=constants.CLASS_CH):
        return cls(name, constants.QTYPE_TXT, rclass, ttl, TxtData(strings))

    @classmethod
    def mx(cls, name, preference, exchange, ttl=3600,
           rclass=constants.CLASS_IN):
        return cls(name, constants.QTYPE_MX, rclass, ttl,
                   MxData(preference, exchange))

    @classmethod
    def soa(cls, name, mname, rname, ttl=3600, **kwargs):
        return cls(name, constants.QTYPE_SOA, constants.CLASS_IN, ttl,
                   SoaData(mname, rname, **kwargs))

    def with_ttl(self, ttl):
        """Return a copy of this record with a different TTL."""
        return ResourceRecord(self.name, self.rtype, self.rclass, ttl,
                              self.data)

    def to_wire(self, name_wire=None):
        """Wire form; ``name_wire`` is the already-encoded (possibly
        compressed) owner name when the record is part of a message."""
        if name_wire is None:
            name_wire = encode_name(self.name)
        rdata = self.data.to_wire()
        return name_wire + _FIXED.pack(
            self.rtype, self.rclass, self.ttl & 0xFFFFFFFF,
            len(rdata)) + rdata

    @classmethod
    def from_wire(cls, message, offset, pointed=None):
        """Decode the record at ``offset``; returns ``(record, end)``.

        ``pointed`` maps two-byte compression pointers to the names
        already decoded at their targets: an owner name that is such a
        pointer is taken from there instead of being decoded again.
        """
        name = pointed.get(message[offset:offset + 2]) if pointed else None
        if name is not None:
            pos = offset + 2
        else:
            name, pos = decode_name(message, offset)
        end = pos + _FIXED.size
        if end > len(message):
            raise ValueError("truncated record header at offset %d" % pos)
        rtype, rclass, ttl, rdlength = _FIXED.unpack_from(message, pos)
        if end + rdlength > len(message):
            raise ValueError("rdata of %d bytes runs past the message"
                             % rdlength)
        data = decode_rdata(rtype, message, end, rdlength)
        return cls(name, rtype, rclass, ttl, data), end + rdlength

    def __eq__(self, other):
        return isinstance(other, ResourceRecord) and (
            other.name.lower(), other.rtype, other.rclass, other.data) == (
            self.name.lower(), self.rtype, self.rclass, self.data)

    def __hash__(self):
        return hash((self.name.lower(), self.rtype, self.rclass, self.data))

    def __repr__(self):
        return "ResourceRecord(%r, %s, ttl=%d, %r)" % (
            self.name, constants.qtype_name(self.rtype), self.ttl, self.data)
