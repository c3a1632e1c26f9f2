"""Zone data and authoritative lookup semantics."""

from repro.dnswire.constants import QTYPE_CNAME, QTYPE_NS, QTYPE_SOA
from repro.dnswire.name import normalize_name
from repro.dnswire.records import ResourceRecord


class ZoneLookupResult:
    """Outcome of an authoritative lookup inside one zone."""

    ANSWER = "answer"          # records found at the name
    CNAME = "cname"            # a CNAME redirects the query
    DELEGATION = "delegation"  # the name lives below a zone cut
    NXDOMAIN = "nxdomain"      # the name does not exist in the zone
    NODATA = "nodata"          # the name exists but has no such rtype

    def __init__(self, status, records=(), authority=(), additional=()):
        self.status = status
        self.records = list(records)
        self.authority = list(authority)
        self.additional = list(additional)

    def __repr__(self):
        return "ZoneLookupResult(%s, %d records)" % (
            self.status, len(self.records))


class Zone:
    """One DNS zone: an origin, its records, and its delegations.

    Supports exact names, wildcards (``*.example.edu`` — used by the
    scanner's measurement domain, whose queries carry random prefixes), and
    zone cuts with glue.
    """

    def __init__(self, origin, soa_mname=None, soa_rname=None):
        self.origin = normalize_name(origin)
        self._records = {}      # (name, rtype) -> [ResourceRecord]
        self._names = set()     # all names with any record
        self._cuts = {}         # delegated child zone apex -> [NS records]
        self._glue = {}         # ns hostname -> [A records]
        mname = soa_mname or ("ns1.%s" % self.origin if self.origin
                              else "ns1.root")
        rname = soa_rname or ("hostmaster.%s" % self.origin
                              if self.origin else "hostmaster.root")
        self.soa = ResourceRecord.soa(self.origin or ".", mname, rname)
        self.signer = None  # set via sign_with() for DNSSEC-enabled zones

    def sign_with(self, key):
        """Enable (simulated) DNSSEC: answers from this zone carry a
        keyed signature record (see :mod:`repro.authdns.dnssec`)."""
        from repro.authdns.dnssec import ZoneSigner
        self.signer = ZoneSigner(key)
        return self.signer

    # -- building ----------------------------------------------------------

    def _check_in_zone(self, name):
        if self.origin and not (name == self.origin
                                or name.endswith("." + self.origin)):
            raise ValueError("%r is not inside zone %r" % (name, self.origin))

    def add(self, record):
        """Add a record owned by this zone."""
        name = normalize_name(record.name)
        self._check_in_zone(name.lstrip("*."))
        self._records.setdefault((name, record.rtype), []).append(record)
        self._names.add(name)
        return record

    def add_a(self, name, address, ttl=300):
        return self.add(ResourceRecord.a(name, address, ttl=ttl))

    def add_cname(self, name, target, ttl=300):
        return self.add(ResourceRecord.cname(name, target, ttl=ttl))

    def add_mx(self, name, preference, exchange, ttl=3600):
        return self.add(ResourceRecord.mx(name, preference, exchange, ttl=ttl))

    def delegate(self, child_apex, ns_hosts):
        """Create a zone cut: ``child_apex`` is served by ``ns_hosts``.

        ``ns_hosts`` maps NS hostnames to glue A addresses (address may be
        ``None`` when the NS host is out-of-bailiwick and needs no glue).
        """
        child = normalize_name(child_apex)
        self._check_in_zone(child)
        ns_records = []
        for hostname, address in ns_hosts.items():
            ns_records.append(ResourceRecord.ns(child, hostname))
            if address is not None:
                self._glue.setdefault(normalize_name(hostname), []).append(
                    ResourceRecord.a(hostname, address, ttl=3600))
        self._cuts[child] = ns_records

    # -- lookup ------------------------------------------------------------

    def _delegation_for(self, name):
        """The deepest zone cut at/above ``name`` (below the origin)."""
        labels = name.split(".")
        for i in range(len(labels)):
            candidate = ".".join(labels[i:])
            if candidate == self.origin:
                return None
            if candidate in self._cuts:
                return candidate
        return None

    def _glue_for(self, ns_records):
        additional = []
        for record in ns_records:
            additional.extend(self._glue.get(
                normalize_name(record.data.name), []))
        return additional

    def lookup(self, qname, qtype):
        """Authoritative lookup; returns a :class:`ZoneLookupResult`."""
        name = normalize_name(qname)
        cut = self._delegation_for(name)
        if cut is not None:
            ns_records = self._cuts[cut]
            return ZoneLookupResult(
                ZoneLookupResult.DELEGATION, authority=ns_records,
                additional=self._glue_for(ns_records))
        exact = self._records.get((name, qtype))
        if exact:
            return ZoneLookupResult(ZoneLookupResult.ANSWER, records=exact)
        cname = self._records.get((name, QTYPE_CNAME))
        if cname and qtype != QTYPE_CNAME:
            return ZoneLookupResult(ZoneLookupResult.CNAME, records=cname)
        if name in self._names:
            return ZoneLookupResult(
                ZoneLookupResult.NODATA, authority=[self.soa])
        # Wildcard synthesis: deepest *.suffix whose suffix covers the name.
        labels = name.split(".")
        for i in range(1, len(labels)):
            wildcard = "*." + ".".join(labels[i:])
            records = self._records.get((wildcard, qtype))
            if records:
                synthesized = [
                    ResourceRecord(qname, r.rtype, r.rclass, r.ttl, r.data)
                    for r in records]
                return ZoneLookupResult(
                    ZoneLookupResult.ANSWER, records=synthesized)
            if wildcard in self._names:
                return ZoneLookupResult(
                    ZoneLookupResult.NODATA, authority=[self.soa])
        return ZoneLookupResult(ZoneLookupResult.NXDOMAIN,
                                authority=[self.soa])

    def covers(self, qname):
        """True when this zone's origin is a suffix of ``qname``."""
        name = normalize_name(qname)
        if not self.origin:
            return True  # root zone covers everything
        return name == self.origin or name.endswith("." + self.origin)

    def __repr__(self):
        return "Zone(%r, %d rrsets, %d cuts)" % (
            self.origin or ".", len(self._records), len(self._cuts))
