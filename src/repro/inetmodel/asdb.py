"""Autonomous systems, their prefixes, and Regional Internet Registries."""

import bisect

# ISO country code -> RIR, for every country appearing in the scenario.
# (Roughly: ARIN = North America, LACNIC = Latin America & Caribbean,
# RIPE = Europe/Middle East/parts of Central Asia, APNIC = Asia-Pacific,
# AFRINIC = Africa.)
COUNTRY_TO_RIR = {
    "US": "ARIN", "CA": "ARIN",
    "MX": "LACNIC", "CO": "LACNIC", "AR": "LACNIC", "BR": "LACNIC",
    "CL": "LACNIC", "PE": "LACNIC", "VE": "LACNIC", "EC": "LACNIC",
    "DE": "RIPE", "GB": "RIPE", "FR": "RIPE", "IT": "RIPE", "TR": "RIPE",
    "RU": "RIPE", "PL": "RIPE", "NL": "RIPE", "ES": "RIPE", "UA": "RIPE",
    "GR": "RIPE", "BE": "RIPE", "EE": "RIPE", "IR": "RIPE", "LB": "RIPE",
    "SA": "RIPE", "CH": "RIPE", "SE": "RIPE", "RO": "RIPE", "CZ": "RIPE",
    "CN": "APNIC", "VN": "APNIC", "IN": "APNIC", "TH": "APNIC",
    "TW": "APNIC", "KR": "APNIC", "JP": "APNIC", "ID": "APNIC",
    "MY": "APNIC", "AU": "APNIC", "PH": "APNIC", "HK": "APNIC",
    "SG": "APNIC", "MN": "APNIC", "BD": "APNIC", "PK": "APNIC",
    "EG": "AFRINIC", "DZ": "AFRINIC", "ZA": "AFRINIC", "NG": "AFRINIC",
    "MA": "AFRINIC", "KE": "AFRINIC", "TN": "AFRINIC",
}

RIRS = ("ARIN", "LACNIC", "RIPE", "APNIC", "AFRINIC")


def rir_for_country(country):
    """The RIR responsible for a country code (``"UNKNOWN"`` if unmapped)."""
    return COUNTRY_TO_RIR.get(country, "UNKNOWN")


class AutonomousSystem:
    """One AS: number, operator name, country, kind, and its prefixes.

    ``kind`` distinguishes the operator categories the paper's Top-25
    analysis relies on: broadband/telecom ISPs vs hosting vs enterprise etc.
    """

    BROADBAND = "broadband"
    HOSTING = "hosting"
    ENTERPRISE = "enterprise"
    ACADEMIC = "academic"
    MOBILE = "mobile"

    def __init__(self, asn, name, country, kind=BROADBAND, prefixes=None):
        self.asn = asn
        self.name = name
        self.country = country
        self.kind = kind
        self.prefixes = list(prefixes or [])

    @property
    def rir(self):
        return rir_for_country(self.country)

    def __contains__(self, ip):
        return any(ip in prefix for prefix in self.prefixes)

    def __repr__(self):
        return "AS%d(%s, %s, %s)" % (self.asn, self.name, self.country,
                                     self.kind)


class AsRegistry:
    """Prefix-indexed registry: IP -> owning AS in O(log n).

    Prefixes must be non-overlapping (the allocator guarantees this);
    lookup is a bisect on sorted prefix bases.
    """

    def __init__(self):
        self._systems = {}
        self._bases = []
        self._entries = []  # parallel: (prefix, asn)
        self._dirty = False

    def add(self, autonomous_system):
        if autonomous_system.asn in self._systems:
            raise ValueError("duplicate ASN %d" % autonomous_system.asn)
        self._systems[autonomous_system.asn] = autonomous_system
        for prefix in autonomous_system.prefixes:
            self._entries.append((prefix.base, prefix, autonomous_system.asn))
        self._dirty = True

    def _reindex(self):
        self._entries.sort(key=lambda entry: entry[0])
        self._bases = [entry[0] for entry in self._entries]
        self._dirty = False

    def get(self, asn):
        return self._systems.get(asn)

    def lookup(self, ip):
        """The :class:`AutonomousSystem` owning ``ip``, or ``None``."""
        from repro.netsim.address import ip_to_int
        if self._dirty:
            self._reindex()
        value = ip_to_int(ip) if isinstance(ip, str) else ip
        index = bisect.bisect_right(self._bases, value) - 1
        if index < 0:
            return None
        __, prefix, asn = self._entries[index]
        if prefix.contains_int(value):
            return self._systems[asn]
        return None

    def asn_of(self, ip):
        system = self.lookup(ip)
        return system.asn if system is not None else None

    def country_of(self, ip):
        system = self.lookup(ip)
        return system.country if system is not None else None

    def rir_of(self, ip):
        system = self.lookup(ip)
        return system.rir if system is not None else "UNKNOWN"

    def __len__(self):
        return len(self._systems)
