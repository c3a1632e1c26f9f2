#!/usr/bin/env python
"""Does DNSSEC protect you from the Great Firewall?  (§5, executable.)

The paper's discussion argues that injected responses win the race
against legitimate ones, so DNSSEC only helps a client that (a) waits
for a correctly signed answer and (b) already knows the domain signs.
This example stages the race and prints what each client strategy
receives.

Run:  python examples/dnssec_vs_gfw.py
"""

from repro.authdns import HierarchyBuilder
from repro.authdns.dnssec import (
    DnssecValidator,
    STRATEGY_FIRST,
    STRATEGY_WAIT_SIGNED,
    ValidatingClient,
)
from repro.inetmodel import HostBlock, PrefixAllocator
from repro.netsim import GreatFirewall, Ipv4Network, Network, SimClock
from repro.resolvers import ResolutionService, ResolverNode

ZONE_KEY = "examples-zone-key"


def main():
    network = Network(SimClock(), seed=17)
    allocator = PrefixAllocator()
    infra = allocator.allocate(16)
    builder = HierarchyBuilder(network, HostBlock(infra))

    signed = builder.register_domain("signed.example",
                                     {"signed.example": ["198.18.0.5"]})
    signed.sign_with(ZONE_KEY)
    builder.register_domain("unsigned.example",
                            {"unsigned.example": ["198.18.0.6"]})

    network.add_middlebox(GreatFirewall(
        [Ipv4Network("110.0.0.0/16")],
        ["signed.example", "unsigned.example"], seed=5))

    service = ResolutionService(builder.hierarchy.root_ips,
                                infra.address_at(50000))
    resolver = ResolverNode("110.0.0.10", resolution_service=service,
                            gfw_immune=True)
    network.register(resolver)

    validator = DnssecValidator({"signed.example": ZONE_KEY})
    print("Resolver behind the firewall: %s" % resolver.ip)
    print("True addresses: signed.example=198.18.0.5, "
          "unsigned.example=198.18.0.6\n")
    for strategy in (STRATEGY_FIRST, STRATEGY_WAIT_SIGNED):
        client = ValidatingClient(network, infra.address_at(50001),
                                  validator=validator,
                                  strategy=strategy)
        print("strategy = %s" % strategy)
        for domain in ("signed.example", "unsigned.example"):
            addresses, authenticated = client.query(resolver.ip, domain)
            truth = {"signed.example": "198.18.0.5",
                     "unsigned.example": "198.18.0.6"}[domain]
            verdict = ("OK (authentic)" if addresses == [truth]
                       else "POISONED -> %s" % (addresses or "no answer"))
            print("  %-18s %-28s signed-valid=%s"
                  % (domain, verdict, authenticated))
        print()
    print("Conclusion: only wait-for-signed protects, and only for the")
    print("domain the client KNOWS deploys DNSSEC — the paper's point")
    print("about why <1% global DNSSEC coverage left clients exposed.")


if __name__ == "__main__":
    main()
