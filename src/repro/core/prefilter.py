"""DNS-based prefiltering of scan responses (paper §3.4).

Billions of responses come back from the domain scans; the overwhelming
majority are correct, and the pipeline must discard them without ever
discarding a bogus one (false negatives here are acceptable — they get
caught at the content stage — false positives are not).  A (domain, IP)
pair is accepted as legitimate when any of these hold:

* **NX rule** — for non-existent domains: NXDOMAIN, or NOERROR with an
  empty answer section, is the correct response.
* **AS rule** — the IP lies in one of the ASes of the addresses our own
  trusted resolvers return for the domain.
* **rDNS rule** — the IP's PTR name resembles the requested domain *and*
  the PTR name's forward A record resolves back to the same IP (only the
  domain owner can set up that A record).
* **Certificate rule** — an HTTPS probe of the IP returns a valid,
  trusted certificate for the domain (SNI handshake), or — for the known
  large CDN providers — a valid non-SNI default certificate whose common
  name identifies the provider.
"""

from repro.dnswire.constants import (
    RCODE_NOERROR,
    RCODE_NXDOMAIN,
)
from repro.dnswire.name import normalize_name


class ResponseTuple:
    """One (domain ◦ ip ◦ resolver) tuple flowing through the pipeline."""

    __slots__ = ("domain", "ip", "resolver_ip", "observation")

    def __init__(self, domain, ip, resolver_ip, observation=None):
        self.domain = domain
        self.ip = ip
        self.resolver_ip = resolver_ip
        self.observation = observation

    def key(self):
        return (self.domain, self.ip, self.resolver_ip)

    def __repr__(self):
        return "ResponseTuple(%s, %s, %s)" % (
            self.domain, self.ip, self.resolver_ip)


class PrefilterResult:
    """Buckets produced by the prefilter, per scanned domain."""

    def __init__(self):
        self.legitimate = []   # ResponseTuple: every address verified
        self.unknown = []      # ResponseTuple: at least one unverified IP
        self.empty = []        # (domain, resolver_ip): NOERROR, no answers
        self.nx_correct = []   # (domain, resolver_ip): correct NX handling
        self.errors = []       # (domain, resolver_ip, rcode)
        self.observations = 0

    def stats(self):
        """Share of each bucket among all observations."""
        total = self.observations or 1
        return {
            "observations": self.observations,
            "legitimate_share": (len(self.legitimate)
                                 + len(self.nx_correct)) / total,
            "empty_share": len(self.empty) / total,
            "unknown_share": len(self.unknown) / total,
            "error_share": len(self.errors) / total,
        }

    def unknown_resolvers(self):
        return {t.resolver_ip for t in self.unknown}

    def __repr__(self):
        return ("PrefilterResult(%d legit, %d unknown, %d empty, %d nx, "
                "%d errors)" % (len(self.legitimate), len(self.unknown),
                                len(self.empty), len(self.nx_correct),
                                len(self.errors)))


def registrable_suffix(name):
    """Crude registrable-domain extraction: the last two labels."""
    labels = normalize_name(name).split(".")
    return ".".join(labels[-2:]) if len(labels) >= 2 else name


class Prefilterer:
    """Applies the four filtering rules to domain-scan observations."""

    def __init__(self, network, resolution_service, as_registry, rdns,
                 ca=None, known_cdn_common_names=(), probe_source_ip=None,
                 enable_as_rule=True, enable_rdns_rule=True,
                 enable_cert_rule=True):
        self.network = network
        self.service = resolution_service
        self.as_registry = as_registry
        self.rdns = rdns
        self.ca = ca
        self.known_cdn_common_names = {normalize_name(name)
                                       for name in known_cdn_common_names}
        self.probe_source_ip = probe_source_ip
        self.enable_as_rule = enable_as_rule
        self.enable_rdns_rule = enable_rdns_rule
        self.enable_cert_rule = enable_cert_rule
        self._trusted_cache = {}
        self._verdict_cache = {}
        self.https_probes = 0

    # -- the four rules ------------------------------------------------------

    def _trusted_ases(self, domain):
        cached = self._trusted_cache.get(domain)
        if cached is None:
            result = self.service.resolve_trusted(self.network, domain)
            ases = set()
            for address in result.addresses:
                asn = self.as_registry.asn_of(address)
                if asn is not None:
                    ases.add(asn)
            cached = (set(result.addresses), ases)
            self._trusted_cache[domain] = cached
        return cached

    def _as_rule(self, domain, ip):
        trusted_ips, trusted_ases = self._trusted_ases(domain)
        if ip in trusted_ips:
            return True
        asn = self.as_registry.asn_of(ip)
        return asn is not None and asn in trusted_ases

    def _rdns_rule(self, domain, ip):
        ptr_name = self.rdns.ptr(ip) if self.rdns is not None else None
        if not ptr_name:
            return False
        if registrable_suffix(ptr_name) != registrable_suffix(domain):
            return False
        # Forward confirmation: only the domain owner can publish the A
        # record matching the PTR name.
        return self.rdns.forward(ptr_name) == ip

    def _cert_rule(self, domain, ip):
        if self.ca is None:
            return False
        self.https_probes += 2
        now = self.network.clock.now
        sni_cert = self.network.tls_handshake(self.probe_source_ip, ip,
                                              sni=domain)
        if sni_cert is not None and self.ca.validates(sni_cert, domain,
                                                      now=now):
            return True
        default_cert = self.network.tls_handshake(self.probe_source_ip, ip,
                                                  sni=None)
        if default_cert is None or default_cert.self_signed:
            return False
        if default_cert.issuer != self.ca.name:
            return False
        common = normalize_name(default_cert.common_name).lstrip("*.")
        return common in self.known_cdn_common_names

    def address_is_legitimate(self, domain, ip):
        """Apply AS, rDNS, and certificate rules to one (domain, IP)."""
        key = (domain, ip)
        verdict = self._verdict_cache.get(key)
        if verdict is None:
            verdict = bool(
                (self.enable_as_rule and self._as_rule(domain, ip))
                or (self.enable_rdns_rule and self._rdns_rule(domain, ip))
                or (self.enable_cert_rule and self._cert_rule(domain, ip)))
            self._verdict_cache[key] = verdict
        return verdict

    # -- observation processing -----------------------------------------------

    def process(self, observations, domain_catalog):
        """Filter a list of :class:`DnsObservation`.

        ``domain_catalog`` maps domain name -> :class:`ScanDomain` (to know
        which names are deliberately non-existent).  Returns a
        :class:`PrefilterResult`.
        """
        result = PrefilterResult()
        for observation in observations:
            result.observations += 1
            domain = normalize_name(observation.domain)
            meta = domain_catalog.get(domain)
            exists = meta.exists if meta is not None else True
            if not exists:
                if observation.rcode == RCODE_NXDOMAIN or (
                        observation.rcode == RCODE_NOERROR
                        and not observation.addresses):
                    result.nx_correct.append(
                        (domain, observation.resolver_ip))
                elif observation.rcode != RCODE_NOERROR:
                    result.errors.append((domain, observation.resolver_ip,
                                          observation.rcode))
                else:
                    for address in observation.addresses:
                        result.unknown.append(ResponseTuple(
                            domain, address, observation.resolver_ip,
                            observation))
                continue
            if observation.rcode == RCODE_NOERROR \
                    and not observation.addresses:
                result.empty.append((domain, observation.resolver_ip))
                continue
            if observation.rcode != RCODE_NOERROR:
                result.errors.append((domain, observation.resolver_ip,
                                      observation.rcode))
                continue
            all_legit = all(self.address_is_legitimate(domain, address)
                            for address in observation.addresses)
            if all_legit:
                result.legitimate.append(ResponseTuple(
                    domain, observation.addresses[0],
                    observation.resolver_ip, observation))
            else:
                for address in observation.addresses:
                    result.unknown.append(ResponseTuple(
                        domain, address, observation.resolver_ip,
                        observation))
        return result
