"""Reverse DNS: PTR registry and naming conventions.

Two analyses depend on rDNS.  The churn analysis (§2.5) matches PTR names
against tokens indicating dynamic address assignment (``dynamic``,
``dialup``, ``broadband``, …).  The prefilter (§3.4, criterion ii) accepts
an IP as legitimate for a domain when its PTR name resembles the domain
*and* the PTR name's forward A record resolves back to the same IP —
forward-confirmed reverse DNS, which a squatter cannot fake because only
the domain owner controls the forward zone.
"""


DYNAMIC_TOKENS = (
    "dynamic", "dyn", "dialup", "dial", "broadband", "dsl", "adsl",
    "pool", "ppp", "cable", "dhcp",
)


def has_dynamic_token(rdns_name):
    """True when a PTR name advertises dynamic address assignment."""
    if not rdns_name:
        return False
    lowered = rdns_name.lower()
    return any(token in lowered.split(".") or "-%s" % token in lowered
               or "%s-" % token in lowered or token in lowered
               for token in DYNAMIC_TOKENS)


def dynamic_pool_name(ip, isp_domain):
    """A dynamic-pool PTR name, e.g. ``host-1-2-3-4.dynamic.isp.example``."""
    return "host-%s.dynamic.%s" % (ip.replace(".", "-"), isp_domain)


def static_name(ip, isp_domain):
    """A static-assignment PTR name, e.g. ``static-1-2-3-4.isp.example``."""
    return "static-%s.%s" % (ip.replace(".", "-"), isp_domain)


class RdnsRegistry:
    """Maps IP -> PTR name and PTR name -> forward A address.

    The forward table is populated only for names whose owner actually
    controls the forward zone; this is what makes forward-confirmation a
    meaningful check.
    """

    def __init__(self):
        self._ptr = {}
        self._forward = {}

    def set_ptr(self, ip, name, forward_confirmed=True):
        """Register a PTR record; optionally also its confirming A record."""
        self._ptr[ip] = name
        if forward_confirmed:
            self._forward[name.lower()] = ip

    def remove(self, ip):
        name = self._ptr.pop(ip, None)
        if name is not None:
            self._forward.pop(name.lower(), None)

    def ptr(self, ip):
        """The PTR name for ``ip``, or ``None``."""
        return self._ptr.get(ip)

    def forward(self, name):
        """The A address registered for a PTR name, or ``None``."""
        return self._forward.get(name.lower())

    def forward_confirmed(self, ip):
        """True when ip -> PTR -> A leads back to ``ip``."""
        name = self._ptr.get(ip)
        return name is not None and self._forward.get(name.lower()) == ip

    def __len__(self):
        return len(self._ptr)

    def __contains__(self, ip):
        return ip in self._ptr
