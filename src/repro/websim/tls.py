"""Simulated TLS certificates and a trust store.

The prefilter (§3.4) probes unfiltered IPs with two HTTPS handshakes per
(domain, IP) pair — one with SNI, one without — and accepts an IP as
legitimate when a valid, trusted certificate for the domain comes back
(or, for major CDNs, when the non-SNI default certificate carries the
provider's known common name).  This module models exactly the pieces
those checks need: subject CN, SAN list, issuer, validity, wildcards.
"""

from repro.dnswire.name import normalize_name


class Certificate:
    """An X.509-shaped certificate: CN, SANs, issuer, self-signed flag."""

    def __init__(self, common_name, san=(), issuer="SimTrust CA",
                 self_signed=False, not_after=None):
        self.common_name = common_name
        self.san = tuple(san) if san else (common_name,)
        self.issuer = issuer
        self.self_signed = self_signed
        self.not_after = not_after  # None => far future

    def names(self):
        return (self.common_name,) + self.san

    def matches(self, domain):
        """True when the certificate covers ``domain`` (incl. wildcards)."""
        domain = normalize_name(domain)
        for name in self.names():
            name = normalize_name(name)
            if name == domain:
                return True
            if name.startswith("*."):
                suffix = name[2:]
                remainder = domain[:-len(suffix)].rstrip(".") \
                    if domain.endswith("." + suffix) else None
                # A wildcard covers exactly one additional label.
                if remainder and "." not in remainder:
                    return True
        return False

    def __repr__(self):
        return "Certificate(CN=%r, self_signed=%s)" % (
            self.common_name, self.self_signed)


class CertificateAuthority:
    """Issues certificates and validates chains against a trust store."""

    def __init__(self, name="SimTrust CA"):
        self.name = name
        self.issued = []

    def issue(self, common_name, san=()):
        certificate = Certificate(common_name, san=san, issuer=self.name)
        self.issued.append(certificate)
        return certificate

    @staticmethod
    def self_signed(common_name, san=()):
        """A self-signed certificate, as phishing hosts present (§4.3)."""
        return Certificate(common_name, san=san, issuer=common_name,
                           self_signed=True)

    def validates(self, certificate, domain, now=None):
        """Full client-side check: trusted issuer, not expired, name match."""
        if certificate is None:
            return False
        if certificate.self_signed or certificate.issuer != self.name:
            return False
        if (certificate.not_after is not None and now is not None
                and now > certificate.not_after):
            return False
        return certificate.matches(domain)
