"""DNS server software catalog and CHAOS version-query behaviour (Table 3).

The CHAOS-class scan (§2.4) sends ``version.bind`` and ``version.server``
TXT queries.  The paper found 42.7% of responding resolvers replying with
error codes, 4.6% with NOERROR but no version, 18.8% with administrator-
hidden strings, and 33.9% leaking software/version — of which the Table 3
versions make up the top 10.  Each profile carries release/deprecation
dates and the CVE classes the paper lists.
"""

# How a resolver answers CHAOS version queries.
VERSION_RESPONSE_STYLES = (
    STYLE_VERSION, STYLE_ERROR, STYLE_NO_VERSION, STYLE_HIDDEN,
) = ("version", "error", "no_version", "hidden")


class SoftwareProfile:
    """One DNS server software version with its vulnerability notes."""

    def __init__(self, name, version, released, deprecated=None, cves=(),
                 version_string=None):
        self.name = name
        self.version = version
        self.released = released
        self.deprecated = deprecated
        self.cves = tuple(cves)
        self.version_string = version_string or "%s %s" % (name, version)

    @property
    def full_name(self):
        return "%s %s" % (self.name, self.version)

    def __repr__(self):
        return "SoftwareProfile(%r)" % self.full_name

    def __eq__(self, other):
        return (isinstance(other, SoftwareProfile)
                and other.full_name == self.full_name)

    def __hash__(self):
        return hash(self.full_name)


# Vulnerability classes named in Table 3.
VULN_IP_BYPASS = "IP Bypass"
VULN_DOS = "DoS"
VULN_MEM_CORRUPTION = "Mem. Corr./Leak."
VULN_MEM_OVERFLOW = "Mem. Overfl."
VULN_RCE = "RCE"

# Table 3: the top-10 versions among resolvers leaking version details,
# with their published shares of the version-leaking population.
SOFTWARE_CATALOG = (
    # (profile, share of version-leaking resolvers)
    (SoftwareProfile("BIND", "9.8.2", "2012-04", "2012-05",
                     (VULN_IP_BYPASS, VULN_DOS, VULN_MEM_CORRUPTION),
                     version_string="9.8.2rc1-RedHat-9.8.2-0.17.rc1.el6"),
     0.198),
    (SoftwareProfile("BIND", "9.3.6", "2008-11", None, (VULN_DOS,),
                     version_string="9.3.6-P1-RedHat-9.3.6-20.P1.el5"),
     0.089),
    (SoftwareProfile("BIND", "9.7.3", "2012-02", "2012-11",
                     (VULN_MEM_OVERFLOW, VULN_DOS),
                     version_string="9.7.3"), 0.057),
    (SoftwareProfile("BIND", "9.9.5", "2014-02", None, (VULN_DOS,),
                     version_string="9.9.5-3ubuntu0.1-Ubuntu"), 0.052),
    (SoftwareProfile("Unbound", "1.4.22", "2014-03", "2014-11",
                     (VULN_MEM_OVERFLOW, VULN_DOS),
                     version_string="unbound 1.4.22"), 0.048),
    (SoftwareProfile("Dnsmasq", "2.40", "2007-08", "2008-02",
                     (VULN_RCE, VULN_DOS),
                     version_string="dnsmasq-2.40"), 0.046),
    (SoftwareProfile("BIND", "9.8.4", "2012-10", "2013-05",
                     (VULN_IP_BYPASS, VULN_DOS),
                     version_string="9.8.4-rpz2+rl005.12-P1"), 0.039),
    (SoftwareProfile("PowerDNS", "3.5.3", "2013-09", "2014-06",
                     (VULN_MEM_OVERFLOW,),
                     version_string="PowerDNS Recursor 3.5.3"), 0.032),
    (SoftwareProfile("Dnsmasq", "2.52", "2010-01", "2010-06", (VULN_DOS,),
                     version_string="dnsmasq-2.52"), 0.029),
    (SoftwareProfile("MS DNS", "6.1.7601", "2011-06", "2011-08",
                     (VULN_DOS,),
                     version_string="Microsoft DNS 6.1.7601 (1DB15D39)"),
     0.025),
)

# A long tail of other version-leaking software fills the remainder:
# in the wild, hundreds of distinct versions share the ~38% outside the
# top ten, so no tail entry should rank anywhere near the Table-3 rows.
LONG_TAIL_SOFTWARE = tuple(
    [SoftwareProfile("BIND", version, "2008-01", None, (VULN_DOS,),
                     version_string=version)
     for version in ("9.4.2", "9.5.1", "9.6.1", "9.7.0", "9.8.1",
                     "9.9.2", "9.9.4", "9.10.0", "9.10.1", "9.3.4",
                     "9.2.4", "9.6.2")]
    + [SoftwareProfile("Unbound", version, "2013-01", None, (),
                       version_string="unbound %s" % version)
       for version in ("1.4.20", "1.4.21", "1.5.0", "1.5.1")]
    + [SoftwareProfile("Dnsmasq", version, "2012-01", None, (),
                       version_string="dnsmasq-%s" % version)
       for version in ("2.45", "2.55", "2.62", "2.71")]
    + [SoftwareProfile("PowerDNS", "3.6.2", "2014-10", None, (),
                       version_string="PowerDNS Recursor 3.6.2"),
       SoftwareProfile("PowerDNS", "3.3.1", "2013-01", None, (),
                       version_string="PowerDNS Recursor 3.3.1"),
       SoftwareProfile("MS DNS", "6.0.6002", "2009-04", None, (VULN_DOS,),
                       version_string="Microsoft DNS 6.0.6002 (17724655)"),
       SoftwareProfile("Nominum", "3.0.5", "2013-05", None, (),
                       version_string="Nominum Vantio 3.0.5")])

# Strings administrators configure to hide version information (the
# "arbitrary version strings" group, 18.8% of CHAOS responders).
HIDDEN_VERSION_STRINGS = (
    "none", "unknown", "Go away!", "sorry", "not available",
    "contact admin@localhost", "[secured]", "DNS", "n/a",
    "I am not telling you", "***", "no", "hidden", "private",
    "whydoyouask", "get lost",
)

# Population-level shares of CHAOS response styles (§2.4): two thirds of
# resolvers do not leak software details.
CHAOS_STYLE_SHARES = (
    (STYLE_ERROR, 0.427),
    (STYLE_NO_VERSION, 0.046),
    (STYLE_HIDDEN, 0.188),
    (STYLE_VERSION, 0.339),
)
