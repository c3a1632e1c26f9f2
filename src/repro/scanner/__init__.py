"""Internet-wide scanning machinery (paper §2.2, §3.3).

Implements the measurement side: LFSR-permuted IPv4 scans with the target
address encoded in the query name, weekly scan campaigns with blacklisting
and verification scans, CHAOS software fingerprinting, TCP banner grabbing
with a regex fingerprint database, DNS cache snooping, and the domain
scans whose responses feed the classification pipeline (resolver identity
encoded in txid bits + UDP source port + 0x20 case pattern).  Every probe
but the IPv4 sweep sends through the one stub client,
:func:`repro.dnswire.client.ask`, and is a decoder over what it accepts.
"""

from repro.scanner.lfsr import LFSR, MAXIMAL_TAPS
from repro.scanner.blacklist import Blacklist
from repro.scanner.encoding import (
    ResolverIdCodec,
    decode_target_ip,
    encode_target_qname,
)
from repro.scanner.ipv4scan import (
    Ipv4Scanner,
    ScanResult,
    ScanTargetSpace,
    merge_scan_results,
)
from repro.scanner.options import ScanOptions
from repro.scanner.pacing import PacingConfig, PacingPlan, normalize_pacing
from repro.scanner.delta import DeltaConfig, normalize_delta
from repro.scanner.engine import ScanEngine, ShardSupervisor
from repro.scanner.domainengine import DomainScanEngine
from repro.scanner.campaign import CampaignError, ScanCampaign, WeeklySnapshot
from repro.scanner.chaos import ChaosScanner, ChaosObservation
from repro.scanner.banner import BannerGrabber, HostBanners
from repro.scanner.fingerprints import FINGERPRINT_RULES, FingerprintMatcher
from repro.scanner.snooping import CacheSnoopingProber, SnoopingTrace
from repro.scanner.domainscan import DnsObservation, DomainScanner

__all__ = [
    "Blacklist",
    "BannerGrabber",
    "CacheSnoopingProber",
    "CampaignError",
    "ChaosObservation",
    "ChaosScanner",
    "DeltaConfig",
    "DnsObservation",
    "DomainScanEngine",
    "DomainScanner",
    "FINGERPRINT_RULES",
    "FingerprintMatcher",
    "HostBanners",
    "Ipv4Scanner",
    "LFSR",
    "MAXIMAL_TAPS",
    "PacingConfig",
    "PacingPlan",
    "ResolverIdCodec",
    "ScanCampaign",
    "ScanEngine",
    "ScanOptions",
    "ScanResult",
    "ScanTargetSpace",
    "ShardSupervisor",
    "SnoopingTrace",
    "WeeklySnapshot",
    "decode_target_ip",
    "encode_target_qname",
    "merge_scan_results",
    "normalize_delta",
    "normalize_pacing",
]
