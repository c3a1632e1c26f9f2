"""Scan blacklist: opt-out networks and addresses (paper §2.2).

Networks could opt out of the measurements via the scanner's rDNS/web
contact; the study blacklisted 208 network ranges and 50 individual IPs
(20.8M addresses).  Blacklisted addresses are never probed, and are also
ignored in all scan results so weekly scans stay comparable.
"""

from repro.netsim.address import Ipv4Network, ip_to_int


class Blacklist:
    """A set of excluded networks and individual addresses."""

    def __init__(self, networks=(), addresses=()):
        self.networks = [net if isinstance(net, Ipv4Network)
                         else Ipv4Network(net) for net in networks]
        self.addresses = {ip_to_int(a) if isinstance(a, str) else a
                          for a in addresses}

    def add_network(self, network):
        if not isinstance(network, Ipv4Network):
            network = Ipv4Network(network)
        self.networks.append(network)

    def add_address(self, address):
        self.addresses.add(ip_to_int(address)
                           if isinstance(address, str) else address)

    def __contains__(self, address):
        value = ip_to_int(address) if isinstance(address, str) else address
        if value in self.addresses:
            return True
        return any(net.contains_int(value) for net in self.networks)

    def __repr__(self):
        return "Blacklist(%d networks, %d addresses)" % (
            len(self.networks), len(self.addresses))
