"""Models of Internet metadata: AS/RIR registries, GeoIP, rDNS, IP churn.

These substitute for the external data sources the paper used (MaxMind
GeoIP, BGP/AS data, live rDNS): a deterministic registry maps every
allocated prefix to an autonomous system, country, and Regional Internet
Registry, and an rDNS registry provides PTR names — including the dynamic
broadband naming patterns (``dynamic``, ``dialup``, …) the churn analysis
matches against (§2.5).
"""

from repro.inetmodel.allocation import (
    AddressPlan,
    AddressPlanError,
    HostBlock,
    PrefixAllocator,
)
from repro.inetmodel.asdb import (
    AsRegistry,
    AutonomousSystem,
    COUNTRY_TO_RIR,
    rir_for_country,
)
from repro.inetmodel.churn import ChurnModel, LeasedHost
from repro.inetmodel.geoip import GeoIpDatabase
from repro.inetmodel.rdns import (
    DYNAMIC_TOKENS,
    RdnsRegistry,
    dynamic_pool_name,
    has_dynamic_token,
    static_name,
)

__all__ = [
    "AddressPlan",
    "AddressPlanError",
    "AsRegistry",
    "AutonomousSystem",
    "COUNTRY_TO_RIR",
    "ChurnModel",
    "DYNAMIC_TOKENS",
    "GeoIpDatabase",
    "HostBlock",
    "LeasedHost",
    "PrefixAllocator",
    "RdnsRegistry",
    "dynamic_pool_name",
    "has_dynamic_token",
    "rir_for_country",
    "static_name",
]
