"""Resolver answer-manipulation behaviors (§3.1 threat model, §4 findings).

A resolver owns an ordered list of behaviors; for each A query the first
behavior that wants the name produces the answer, and an honest recursive
resolution is the fallback.  Each behavior corresponds to a phenomenon the
paper observed: censorship landing pages, category blocking, NXDOMAIN
monetization, static/self/LAN answers, ad injection, transparent proxying,
phishing, malware-update redirection, mail interception, parking, stale
CDN data, NS-only answers, and empty answers.
"""

from repro.dnswire.constants import RCODE_NOERROR, RCODE_NXDOMAIN
from repro.dnswire.name import normalize_name
from repro.util import stable_hash


class BehaviorAnswer:
    """What a behavior wants returned: addresses and/or a status shape."""

    def __init__(self, addresses=(), rcode=RCODE_NOERROR, empty=False,
                 ns_only=False, ttl=300):
        self.addresses = list(addresses)
        self.rcode = rcode
        self.empty = empty
        self.ns_only = ns_only
        self.ttl = ttl

    def __repr__(self):
        return "BehaviorAnswer(%r, rcode=%d)" % (self.addresses, self.rcode)


class Behavior:
    """Base class; ``answer`` returns a :class:`BehaviorAnswer` or ``None``
    to defer to the next behavior in the resolver's list."""

    def answer(self, resolver, qname, network):
        raise NotImplementedError

    @staticmethod
    def _name_matches(qname, domains):
        """Suffix matching: a behavior for example.com also covers
        www.example.com."""
        name = normalize_name(qname)
        while name not in domains:
            dot = name.find(".")
            if dot < 0:
                return False
            name = name[dot + 1:]
        return True


class _DomainTargetedBehavior(Behavior):
    """Shared base for behaviors that act on a fixed set of domains."""

    def __init__(self, domains):
        self.domains = {normalize_name(d) for d in domains}

    def targets(self, qname):
        return self._name_matches(qname, self.domains)


class CensorshipBehavior(_DomainTargetedBehavior):
    """Redirects censored domains to a country's landing-page IPs."""

    def __init__(self, domains, landing_ips, country=None):
        super().__init__(domains)
        self.landing_ips = list(landing_ips)
        self.country = country

    def answer(self, resolver, qname, network):
        if not self.targets(qname):
            return None
        index = stable_hash((resolver.ip, normalize_name(qname))) % len(
            self.landing_ips)
        return BehaviorAnswer([self.landing_ips[index]])


class BlockingBehavior(_DomainTargetedBehavior):
    """Redirects blocked domains (malware, adult, …) to a blocking page —
    parental-control, ISP, or security-provider landing pages.

    With ``empty_answer=True`` the resolver suppresses the domain with a
    NOERROR-empty response instead (the protective resolvers behind the
    Malware set's elevated empty share, §4.1).
    """

    def __init__(self, domains, blocking_ip, empty_answer=False):
        super().__init__(domains)
        self.blocking_ip = blocking_ip
        self.empty_answer = empty_answer

    def answer(self, resolver, qname, network):
        if not self.targets(qname):
            return None
        if self.empty_answer:
            return BehaviorAnswer(empty=True)
        return BehaviorAnswer([self.blocking_ip])


class NxRedirectBehavior(Behavior):
    """DNS error monetization: answers NXDOMAIN lookups with a search/ad
    page IP instead of the error (Weaver et al.'s focus, §4.2 Search)."""

    def __init__(self, search_ip):
        self.search_ip = search_ip

    def answer(self, resolver, qname, network):
        honest = resolver.resolve_honest(qname, network)
        if honest.rcode == RCODE_NXDOMAIN or (
                honest.rcode == RCODE_NOERROR and not honest.addresses):
            return BehaviorAnswer([self.search_ip])
        return BehaviorAnswer(honest.addresses, rcode=honest.rcode,
                              ttl=honest.ttl)


class StaticIpBehavior(Behavior):
    """Returns one static IP regardless of the queried name (4.4% of
    suspicious resolvers, §4.1)."""

    def __init__(self, address):
        self.address = address

    def answer(self, resolver, qname, network):
        return BehaviorAnswer([self.address])


class SelfIpBehavior(Behavior):
    """Returns the resolver's own IP — the 8,194 resolvers of §4.1 whose
    answers lead to their own router/camera login pages."""

    def answer(self, resolver, qname, network):
        return BehaviorAnswer([resolver.ip])


class SameNetworkBehavior(Behavior):
    """Returns a (usually dead) address in the resolver's own network —
    the §4.2 unfetchable tuples where "up to 32.2% replied with IP
    addresses located in the same AS or /24 network as the resolver"
    (captive portals serving content to on-net clients only)."""

    def __init__(self, offset=199):
        self.offset = offset

    def answer(self, resolver, qname, network):
        from repro.netsim.address import int_to_ip, ip_to_int
        base = ip_to_int(resolver.ip) & 0xFFFFFF00
        return BehaviorAnswer([int_to_ip(base | (self.offset & 0xFF))])


class LanIpBehavior(Behavior):
    """Returns a LAN address (captive portals serving the login page only
    inside specific IP ranges — §4.2's unreachable 11.1%)."""

    def __init__(self, lan_ip="192.168.1.1"):
        self.lan_ip = lan_ip

    def answer(self, resolver, qname, network):
        return BehaviorAnswer([self.lan_ip])


class AdInjectBehavior(_DomainTargetedBehavior):
    """Redirects ad-provider domains to injection/replacement hosts."""

    def __init__(self, ad_domains, inject_ips):
        super().__init__(ad_domains)
        self.inject_ips = list(inject_ips)

    def answer(self, resolver, qname, network):
        if not self.targets(qname):
            return None
        index = stable_hash(resolver.ip, normalize_name(qname)) % len(
            self.inject_ips)
        return BehaviorAnswer([self.inject_ips[index]])


class ProxyAllBehavior(Behavior):
    """Answers every existing domain with transparent-proxy IPs (§4.3)."""

    def __init__(self, proxy_ips):
        self.proxy_ips = list(proxy_ips)

    def answer(self, resolver, qname, network):
        honest = resolver.resolve_honest(qname, network)
        if honest.rcode != RCODE_NOERROR or not honest.addresses:
            # Keep NXDOMAIN behaviour intact; proxies only cover real sites.
            return BehaviorAnswer(honest.addresses, rcode=honest.rcode,
                                  ttl=honest.ttl)
        index = stable_hash((resolver.ip, normalize_name(qname))) % len(
            self.proxy_ips)
        return BehaviorAnswer([self.proxy_ips[index]])


class PhishingBehavior(_DomainTargetedBehavior):
    """Redirects particular domains (PayPal, banks) to credential-phishing
    hosts while answering everything else honestly."""

    def __init__(self, domains, phishing_ips):
        super().__init__(domains)
        self.phishing_ips = list(phishing_ips)

    def answer(self, resolver, qname, network):
        if not self.targets(qname):
            return None
        index = stable_hash(resolver.ip, normalize_name(qname)) % len(
            self.phishing_ips)
        return BehaviorAnswer([self.phishing_ips[index]])


class MalwareBehavior(_DomainTargetedBehavior):
    """Redirects software-update domains to fake update pages serving
    malware downloaders (§4.3, 228 resolvers / 30 IPs)."""

    def __init__(self, update_domains, malware_ips):
        super().__init__(update_domains)
        self.malware_ips = list(malware_ips)

    def answer(self, resolver, qname, network):
        if not self.targets(qname):
            return None
        index = stable_hash(resolver.ip, normalize_name(qname)) % len(
            self.malware_ips)
        return BehaviorAnswer([self.malware_ips[index]])


class MailRedirectBehavior(_DomainTargetedBehavior):
    """Redirects mail hostnames (IMAP/POP3/SMTP) to listening hosts."""

    def __init__(self, mail_hostnames, mail_ips):
        super().__init__(mail_hostnames)
        self.mail_ips = list(mail_ips)

    def answer(self, resolver, qname, network):
        if not self.targets(qname):
            return None
        index = stable_hash(resolver.ip, normalize_name(qname)) % len(
            self.mail_ips)
        return BehaviorAnswer([self.mail_ips[index]])


class ParkingBehavior(_DomainTargetedBehavior):
    """Sends (typically re-registered/expired) domains to parking IPs."""

    def __init__(self, domains, parking_ips):
        super().__init__(domains)
        self.parking_ips = list(parking_ips)

    def answer(self, resolver, qname, network):
        if not self.targets(qname):
            return None
        index = stable_hash(resolver.ip, normalize_name(qname)) % len(
            self.parking_ips)
        return BehaviorAnswer([self.parking_ips[index]])


class StaleCdnBehavior(_DomainTargetedBehavior):
    """Returns outdated CDN edge addresses that no longer serve content
    (§4.2: "certain resolvers might have delivered outdated IP address
    information for domain names associated with CDN providers")."""

    def __init__(self, domain_to_stale_ips):
        super().__init__(domain_to_stale_ips)
        self.domain_to_stale_ips = {normalize_name(d): list(ips)
                                    for d, ips in domain_to_stale_ips.items()}

    def answer(self, resolver, qname, network):
        name = normalize_name(qname)
        labels = name.split(".")
        for i in range(len(labels)):
            suffix = ".".join(labels[i:])
            if suffix in self.domain_to_stale_ips:
                return BehaviorAnswer(self.domain_to_stale_ips[suffix])
        return None


class EmptyAnswerBehavior(Behavior):
    """NOERROR with an empty answer section for every name (7.3% of
    snooped resolvers; also seen in the domain scans)."""

    def answer(self, resolver, qname, network):
        return BehaviorAnswer(empty=True)


class NsOnlyBehavior(Behavior):
    """Returns only NS records — effectively denying recursive lookups
    (2.0% of suspicious resolvers, §4.1)."""

    def answer(self, resolver, qname, network):
        return BehaviorAnswer(ns_only=True)
