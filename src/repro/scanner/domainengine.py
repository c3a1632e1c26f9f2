"""Sharded domain scanning: step 2 of Figure 3 across worker processes.

Splits the resolver list into N contiguous index shards and drives each
through the shared fork/COW supervision machinery
(:class:`repro.scanner.engine.ShardSupervisor`), the same pattern the
IPv4 scan engine uses for step 1.  Each worker runs
``DomainScanner.scan`` over its index slice of the *same* resolver
list, so the resolver id encoded into every query (txid + source port +
0x20 case pattern) is the global list index — a shard worker emits
byte-identical queries to the ones the sequential scan would emit for
those resolvers.

Determinism contract (verified by ``tests/scanner/test_domainengine.py``):
the concatenated observation list is **bit-identical** to a sequential
:meth:`DomainScanner.scan` of the same inputs for any shard count.
This holds for the same reasons as the IPv4 engine: query bytes are a
pure function of (resolver index, domain), packet fates are keyed per
flow + occurrence rather than drawn from a shared RNG, and one
resolver's queries — which share a flow 4-tuple — always run in domain
order inside a single worker because shards are contiguous resolver
ranges.  Shard observation lists are concatenated in range-start order,
which is exactly sequential order.

As with the IPv4 engine, worker-side traffic/fault counter deltas and
the scanner's ``queries_sent`` are reconciled into the parent, while
worker-local resolver-cache warm-ups are deliberately dropped (replays
from the identical pre-fork state produce identical answers).
"""

from repro.checkpoint import NULL_SCOPE
from repro.obs.trace import span
from repro.scanner.engine import ShardedEngine
from repro.scanner.ipv4scan import shard_ranges


class DomainScanEngine(ShardedEngine):
    """Runs the per-resolver domain scan, optionally sharded.

    Results are resident: workers ship their observation list whole
    (``--stream-results`` only reaches the IPv4 engine) — the
    study reads every observation afterwards, and the prefilter result
    retains them anyway.
    """

    def __init__(self, scanner, options=None, perf=None,
                 heartbeat_timeout=None):
        super().__init__(scanner, options, perf, heartbeat_timeout)
        # Provenance of the last sharded scan (one entry per work item).
        self.provenance = []

    def shard_ranges(self, total):
        """Split ``[0, total)`` resolver indexes into contiguous ranges."""
        return shard_ranges(total, self.options.shards)

    def scan(self, resolver_ips, domains, checkpoint=None):
        """Query every domain at every resolver; returns the flat
        observation list, identical to ``DomainScanner.scan``.

        ``checkpoint``, when given, is a :class:`repro.checkpoint`
        scope: completed resolver-range shards are committed as they
        merge and restored on resume instead of re-queried.
        """
        resolver_ips = list(resolver_ips)
        domains = list(domains)
        ranges = self.shard_ranges(len(resolver_ips))
        self.provenance = []
        with self._measured("domain_scan_wall", "domain_scans_run"), \
                span(self.network, "domain_scan_engine",
                     resolvers=len(resolver_ips), domains=len(domains),
                     shards=len(ranges)):
            if len(ranges) <= 1 or not self.can_fork:
                observations = self.scanner.scan(resolver_ips, domains)
            else:
                observations = self._scan_forked(
                    resolver_ips, domains, ranges,
                    checkpoint or NULL_SCOPE)
        return observations

    def _scan_forked(self, resolver_ips, domains, ranges, checkpoint):
        scanner = self.scanner

        def scan(**kwargs):
            # Returns (observations, queries delta) so the parent can
            # reconcile ``scanner.queries_sent`` for worker shards,
            # whose increments die with the forked process.
            before = scanner.queries_sent
            observations = scanner.scan(resolver_ips, domains, **kwargs)
            return observations, scanner.queries_sent - before

        parts = []      # (range start, observations) per work item

        def deliver(item, result, mode):
            observations, queries = result
            if mode != "in-process":
                # In-process rescues already advanced the live counter;
                # worker shards (and restored shards, whose run never
                # happened in this process) reconcile here.
                scanner.queries_sent += queries
            parts.append((item[0], observations))

        self.provenance = self._run_sharded(scan, ranges, checkpoint,
                                            None, deliver)
        # Work items (shards, split halves, rescues) are disjoint
        # contiguous ranges: range-start order is sequential order.
        parts.sort(key=lambda part: part[0])
        return [observation for __, observations in parts
                for observation in observations]
