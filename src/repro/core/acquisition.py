"""Data acquisition for unknown tuples (paper §3.5).

For every (domain ◦ ip ◦ resolver) tuple that survived prefiltering, the
acquirer mimics a Firefox 28 client: it requests the page from the
returned IP with the original domain in the Host header, follows
redirects and frames at most twice, and — crucially — resolves any new
(sub-)domain a redirect points to *at the resolver that produced the
original tuple*, since that resolver controls the victim's view of DNS.
For mail hostnames it collects IMAP/POP3/SMTP greeting banners instead.
"""

import re

from repro.dnswire.client import ask
from repro.dnswire.constants import RCODE_NOERROR
from repro.dnswire.name import normalize_name
from repro.netsim.address import is_private
from repro.websim.http import HttpRequest
from repro.websim.mail import MAIL_PORTS

_IFRAME_RE = re.compile(r"""<iframe\b[^>]*\bsrc\s*=\s*["']([^"']+)["']""",
                        re.IGNORECASE)
_URL_RE = re.compile(r"^(https?)://([^/]+)(/.*)?$", re.IGNORECASE)

# UDP source port: it keys packet fates (DESIGN.md "Stub DNS client").
SOURCE_PORT = 31600


class HttpCapture:
    """The web content obtained for one tuple (or the reason none was)."""

    def __init__(self, domain, ip, resolver_ip, status=None, body=None,
                 scheme="http", redirects=(), failure=None,
                 final_host=None):
        self.domain = domain
        self.ip = ip
        self.resolver_ip = resolver_ip
        self.status = status
        self.body = body
        self.scheme = scheme
        self.redirects = list(redirects)
        self.failure = failure      # None | "lan" | "unreachable"
        self.final_host = final_host or domain

    @property
    def fetched(self):
        return self.body is not None

    def key(self):
        return (self.domain, self.ip, self.resolver_ip)

    def __repr__(self):
        return "HttpCapture(%s @ %s via %s, status=%r)" % (
            self.domain, self.ip, self.resolver_ip, self.status)


class MailCapture:
    """Mail banners obtained for one tuple of the MX domain set."""

    def __init__(self, domain, ip, resolver_ip, banners=None):
        self.domain = domain
        self.ip = ip
        self.resolver_ip = resolver_ip
        self.banners = dict(banners or {})

    @property
    def fetched(self):
        return bool(self.banners)

    def __repr__(self):
        return "MailCapture(%s @ %s, %s)" % (
            self.domain, self.ip, sorted(self.banners))


class DataAcquirer:
    """Fetches HTTP(S) content and mail banners for response tuples."""

    def __init__(self, network, source_ip, max_redirects=2,
                 fetch_timeout=None, error_budget=None):
        self.network = network
        self.source_ip = source_ip
        self.max_redirects = max_redirects
        # Timeout bound on every TCP fetch (HTTP and banner connects):
        # a fault-injected stall past this fails the fetch instead of
        # hanging the whole acquisition stage.
        self.fetch_timeout = fetch_timeout
        # Maximum unreachable fetches tolerated per acquire() batch;
        # beyond it remaining tuples are skipped (``failure="budget"``)
        # and ``budget_exhausted`` flags the degradation.
        self.error_budget = error_budget
        self.failed_fetches = 0
        self.budget_exhausted = False
        self._txid = 0
        self.http_fetches = 0

    # -- DNS at the original resolver -----------------------------------------

    def _resolve_at(self, resolver_ip, name):
        """Resolve ``name`` at the resolver under study (redirect chasing)."""
        self._txid = (self._txid + 1) & 0xFFFF
        answers = ask(self.network, self.source_ip, SOURCE_PORT,
                      resolver_ip, name, self._txid)
        if answers and answers[0][0].rcode == RCODE_NOERROR:
            return answers[0][0].a_addresses()
        return []

    # -- HTTP -----------------------------------------------------------------

    def _single_fetch(self, ip, host, path, scheme):
        self.http_fetches += 1
        request = HttpRequest(host=host, path=path or "/", scheme=scheme)
        return self.network.http_request(self.source_ip, ip, request,
                                         timeout=self.fetch_timeout)

    @staticmethod
    def _parse_url(url, current_host, current_scheme):
        match = _URL_RE.match(url.strip())
        if match:
            return (match.group(1).lower(), match.group(2).lower(),
                    match.group(3) or "/")
        # Relative URL: same host and scheme.
        path = url if url.startswith("/") else "/" + url
        return current_scheme, current_host, path

    def fetch_http(self, response_tuple, https_first=False):
        """Acquire web content for one tuple, following ≤2 redirects."""
        domain = normalize_name(response_tuple.domain)
        ip = response_tuple.ip
        resolver_ip = response_tuple.resolver_ip
        if is_private(ip):
            return HttpCapture(domain, ip, resolver_ip, failure="lan")
        schemes = ("https", "http") if https_first else ("http", "https")
        response = None
        scheme_used = schemes[0]
        for scheme in schemes:
            response = self._single_fetch(ip, domain, "/", scheme)
            scheme_used = scheme
            if response is not None:
                break
        if response is None:
            return HttpCapture(domain, ip, resolver_ip,
                               failure="unreachable")
        redirects = []
        host = domain
        current_ip = ip
        for __ in range(self.max_redirects):
            next_url = None
            if response.is_redirect:
                next_url = response.location
            elif response.body:
                iframe = _IFRAME_RE.search(response.body)
                if iframe:
                    next_url = iframe.group(1)
            if next_url is None:
                break
            scheme_used, next_host, next_path = self._parse_url(
                next_url, host, scheme_used)
            redirects.append(next_url)
            if normalize_name(next_host) != host:
                # New (sub-)domain: resolve it at the original resolver.
                host = normalize_name(next_host)
                addresses = self._resolve_at(resolver_ip, host)
                if not addresses:
                    break
                current_ip = addresses[0]
                if is_private(current_ip):
                    return HttpCapture(domain, ip, resolver_ip,
                                       redirects=redirects, failure="lan")
            next_response = self._single_fetch(current_ip, host, next_path,
                                               scheme_used)
            if next_response is None:
                break
            response = next_response
        return HttpCapture(domain, ip, resolver_ip, status=response.status,
                           body=response.body, scheme=scheme_used,
                           redirects=redirects, final_host=host)

    # -- mail -----------------------------------------------------------------

    def fetch_mail(self, response_tuple):
        """Collect IMAP/POP3/SMTP banners for one MX-set tuple."""
        banners = {}
        for service, port in MAIL_PORTS.items():
            banner = self.network.tcp_banner(self.source_ip,
                                             response_tuple.ip, port,
                                             timeout=self.fetch_timeout)
            if banner:
                banners[service] = banner
        return MailCapture(response_tuple.domain, response_tuple.ip,
                           response_tuple.resolver_ip, banners)

    # -- batch ----------------------------------------------------------------

    def acquire(self, tuples, domain_catalog=None):
        """Fetch content for many tuples.

        Returns ``(http_captures, mail_captures)``; tuples of MX-set
        hostnames get mail treatment (plus HTTP, matching the paper's
        "for particular domain names also banner information").
        """
        http_captures = []
        mail_captures = []
        fetch_cache = {}
        self.failed_fetches = 0
        self.budget_exhausted = False
        for response_tuple in tuples:
            if self.budget_exhausted:
                # Error budget spent: stop touching the network, mark
                # the remaining tuples as skipped so the report's
                # degraded provenance stays explicit.
                http_captures.append(HttpCapture(
                    normalize_name(response_tuple.domain),
                    response_tuple.ip, response_tuple.resolver_ip,
                    failure="budget"))
                continue
            meta = (domain_catalog or {}).get(
                normalize_name(response_tuple.domain))
            is_mail = meta is not None and meta.kind == "mail"
            if is_mail:
                # MX tuples get both treatments: mail banners (§3.5) and —
                # "further" — the same HTTP acquisition as everything else.
                mail_captures.append(self.fetch_mail(response_tuple))
            cache_key = (response_tuple.domain, response_tuple.ip)
            cached = fetch_cache.get(cache_key)
            if cached is not None:
                http_captures.append(HttpCapture(
                    cached.domain, cached.ip, response_tuple.resolver_ip,
                    status=cached.status, body=cached.body,
                    scheme=cached.scheme, redirects=cached.redirects,
                    failure=cached.failure, final_host=cached.final_host))
                continue
            https = meta is not None and meta.https
            capture = self.fetch_http(response_tuple, https_first=https)
            # Content depends only on (domain, ip) unless redirects pulled
            # the resolver back in; cache the common case.
            if not capture.redirects:
                fetch_cache[cache_key] = capture
            http_captures.append(capture)
            if capture.failure == "unreachable":
                self.failed_fetches += 1
                if self.error_budget is not None and \
                        self.failed_fetches > self.error_budget:
                    self.budget_exhausted = True
        return http_captures, mail_captures
