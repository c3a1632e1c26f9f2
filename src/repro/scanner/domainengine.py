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

Determinism contract (verified by ``tests/scanner/test_domainengine.py``
and re-checked by ``benchmarks/perf/bench_pipeline.py``): the
concatenated observation list is **bit-identical** to a sequential
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


def _absorb_observation_chunks(tail, chunks):
    """Reassemble a streamed ``(observations, queries)`` shard result.

    Chunks were flushed before the tail, in scan order, so prepending
    them (in emission order) to the tail list reproduces the sequential
    observation order exactly.
    """
    observations, queries = tail
    merged = []
    for chunk in chunks:
        merged.extend(chunk)
    merged.extend(observations)
    return merged, queries


class _OrderedDelivery:
    """Re-sequences out-of-order shard completions for a consumer.

    Shards complete in arbitrary order (and a recovered shard may
    complete as several split work items), but the pipeline must see
    observations in exact sequential resolver order.  Completed items
    are buffered per origin shard; once an origin's items cover its
    whole range, and every earlier origin has been delivered, its
    observations flush to ``consume`` in range order.  At most the
    out-of-order window is ever buffered — a fully in-order run buffers
    nothing beyond the completing shard.
    """

    def __init__(self, ranges, consume, scanner):
        self.ranges = [tuple(r) for r in ranges]
        self.consume = consume
        self.scanner = scanner
        self.parts = {}           # origin -> [(start, observations)]
        self.covered = {}         # origin -> indexes covered so far
        self.complete = set()
        self.cursor = 0
        self.delivered = 0

    def add_item(self, item, result, mode):
        start, stop, origin, __attempt = item
        observations, queries = result
        if mode != "in-process":
            # In-process rescues already advanced the live counter;
            # worker shards (and restored shards, whose run never
            # happened in this process) reconcile here.
            self.scanner.queries_sent += queries
        self.parts.setdefault(origin, []).append((start, observations))
        covered = self.covered.get(origin, 0) + (stop - start)
        self.covered[origin] = covered
        origin_start, origin_stop = self.ranges[origin]
        if covered == origin_stop - origin_start:
            self.complete.add(origin)
        self._flush()

    def _flush(self):
        while self.cursor < len(self.ranges) and \
                self.cursor in self.complete:
            parts = self.parts.pop(self.cursor)
            parts.sort(key=lambda entry: entry[0])
            for __, observations in parts:
                if observations:
                    self.delivered += len(observations)
                    self.consume(observations)
            self.cursor += 1


class DomainScanEngine(ShardedEngine):
    """Runs the per-resolver domain scan, optionally sharded.

    Streams worker results the way the IPv4 engine does (see
    :class:`~repro.scanner.engine.ShardedEngine`).  Independently,
    :meth:`scan` accepts a ``consume`` callback that delivers
    observations incrementally (in exact sequential order) instead of
    returning them as one list — the classification pipeline's
    streaming entry point.
    """

    def __init__(self, scanner, options=None, perf=None,
                 heartbeat_timeout=None):
        super().__init__(scanner, options, perf, heartbeat_timeout)
        # Provenance of the last sharded scan (one entry per work item).
        self.provenance = []

    def shard_ranges(self, total):
        """Split ``[0, total)`` resolver indexes into contiguous ranges."""
        return shard_ranges(total, self.options.shards)

    def scan(self, resolver_ips, domains, checkpoint=None, consume=None):
        """Query every domain at every resolver; returns the flat
        observation list, identical to ``DomainScanner.scan``.

        ``checkpoint``, when given, is a :class:`repro.checkpoint`
        scope: completed resolver-range shards are committed as they
        merge and restored on resume instead of re-queried.

        ``consume``, when given, is called with successive observation
        batches — delivered in exact sequential (resolver-index) order
        as shards complete — and :meth:`scan` returns the *count* of
        observations delivered instead of a list, so the engine never
        accumulates the full observation set.
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
                if consume is not None:
                    if observations:
                        consume(observations)
                    observations = len(observations)
            else:
                observations = self._scan_forked(
                    resolver_ips, domains, ranges,
                    checkpoint or NULL_SCOPE, consume)
        return observations

    def _scan_forked(self, resolver_ips, domains, ranges, checkpoint,
                     consume):
        scanner = self.scanner

        def scan(**kwargs):
            # Returns (observations, queries delta) so the parent can
            # reconcile ``scanner.queries_sent`` for worker shards,
            # whose increments die with the forked process.
            before = scanner.queries_sent
            observations = scanner.scan(resolver_ips, domains, **kwargs)
            return observations, scanner.queries_sent - before

        collected = []
        delivery = _OrderedDelivery(ranges, consume or collected.extend,
                                    scanner)
        self.provenance = self._run_sharded(
            scan, ranges, checkpoint, _absorb_observation_chunks,
            delivery.add_item)
        return delivery.delivered if consume is not None else collected
