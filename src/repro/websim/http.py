"""Minimal HTTP request/response types used across the simulation.

The acquisition client impersonates the browser the paper used (Firefox
28.0); servers dispatch on the Host header, which is how a bogus IP can be
asked for content "as if it belonged to the original website" (§3.5).
"""

FIREFOX_28_USER_AGENT = ("Mozilla/5.0 (Windows NT 6.1; rv:28.0) "
                         "Gecko/20100101 Firefox/28.0")


class HttpRequest:
    """An HTTP(S) request: method, host, path, scheme, and headers."""

    def __init__(self, host, path="/", method="GET", scheme="http",
                 headers=None, client_ip=None):
        self.host = host
        self.path = path
        self.method = method
        self.scheme = scheme
        self.headers = dict(headers or {})
        self.headers.setdefault("User-Agent", FIREFOX_28_USER_AGENT)
        self.headers.setdefault("Host", host)
        self.client_ip = client_ip

    @property
    def url(self):
        return "%s://%s%s" % (self.scheme, self.host, self.path)

    def __repr__(self):
        return "HttpRequest(%s %s)" % (self.method, self.url)


class HttpResponse:
    """An HTTP(S) response: status, headers, body (HTML text)."""

    def __init__(self, status=200, body="", headers=None, reason=None):
        self.status = status
        self.body = body
        self.headers = dict(headers or {})
        self.headers.setdefault("Content-Type", "text/html; charset=utf-8")
        self.reason = reason or _default_reason(status)

    @property
    def is_redirect(self):
        return self.status in (301, 302, 303, 307, 308) and \
            "Location" in self.headers

    @property
    def location(self):
        return self.headers.get("Location")

    @classmethod
    def redirect(cls, location, status=302):
        return cls(status=status, headers={"Location": location},
                   body="<html><body>Moved: <a href=\"%s\">here</a>"
                        "</body></html>" % location)

    def __repr__(self):
        return "HttpResponse(%d, %d bytes)" % (self.status, len(self.body))


def _default_reason(status):
    return {
        200: "OK", 301: "Moved Permanently", 302: "Found",
        400: "Bad Request", 403: "Forbidden", 404: "Not Found",
        500: "Internal Server Error", 502: "Bad Gateway",
        503: "Service Unavailable",
    }.get(status, "Unknown")
