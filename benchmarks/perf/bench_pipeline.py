"""Classification-pipeline benchmark: sharded domain scan + NN-chain.

Three measurements, written to ``BENCH_pipeline.json``:

1. **Shard equivalence** — the sharded domain scan's concatenated
   observation list must be bit-identical to the sequential
   ``DomainScanner.scan`` for shard counts 1, 2, 4 and 7.  This is the
   bench-side recheck of the engine's keystone invariant (the pinned
   test in ``tests/scanner/test_domainengine.py`` covers it too).
2. **Clustering** — the NN-chain agglomeration against the pair-scan
   oracle (``tests/oracles.pair_scan_cluster``), twice: once *cold* on synthetic page profiles with the
   real :class:`PageDistance` (both algorithms evaluate every pair
   exactly once through the memo, so cold times track distance cost),
   and once in the *warm* regime with memo-hit-cost distances, which
   isolates the algorithmic O(n^3) -> O(n^2) win that dominates weekly
   re-runs over cached content.  Both variants must produce identical
   clusters and merge distances.
3. **Composite** — sequential scan + pair-scan clustering versus
   best-shards scan + NN-chain clustering (warm regime); the end-to-end
   speedup gates at 2.0x.  The timed shard count is capped at the
   machine's CPU count: forking past the core count only adds overhead,
   which the ``sharded_requested`` row records for the curious.

A real pipeline run with a :class:`PerfRegistry` rides along so the new
instrumentation (``pipeline_domain_scan_qps``, distance/feature cache
hit rates, ``pipeline_distance_evals_avoided``) lands in the report.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_pipeline
    PYTHONPATH=src python -m benchmarks.perf.bench_pipeline --quick
"""

import argparse
import json
import os
import random
import sys
import time

from repro.core.clustering import hierarchical_cluster
from repro.core.distance import FeatureCache, MemoizedDistance, PageDistance
from repro.datasets import DOMAIN_SETS
from repro.perf import PerfRegistry
from repro.scanner import DomainScanEngine, DomainScanner, ScanOptions
from repro.scenario import ScenarioConfig, build_scenario
from tests.oracles import pair_scan_cluster

SHARD_COUNTS = (1, 2, 4, 7)
PIPELINE_SET = "Dating"
ALGORITHMS = (("pair-scan", pair_scan_cluster),
              ("nn-chain", hierarchical_cluster))


def _build(scale, seed):
    return build_scenario(ScenarioConfig(scale=scale, seed=seed))


def fingerprint(observations):
    """Every field of every observation, order-preserving."""
    return [(o.domain, o.resolver_ip, o.rcode, tuple(o.addresses),
             o.source_ip, o.ns_record_count,
             tuple((r, tuple(a)) for r, a in o.all_responses),
             o.injected_suspect)
            for o in observations]


def scan_fixture(scenario, resolver_count):
    resolvers = sorted(scenario.online_resolver_ips())[:resolver_count]
    domains = [d.name for d in DOMAIN_SETS["Banking"]] \
        + [d.name for d in DOMAIN_SETS["NX"]]
    return resolvers, domains


def check_equivalence(scale, seed, resolver_count):
    """Fingerprint the scan at every shard count; all must agree."""
    scenario = _build(scale, seed)
    resolvers, domains = scan_fixture(scenario, resolver_count)
    baseline = None
    for shards in SHARD_COUNTS:
        engine = DomainScanEngine(
            DomainScanner(scenario.network, scenario.pipeline_source_ip),
            options=ScanOptions(shards=shards))
        # Flow-keyed packet fates are per clock epoch; the campaign
        # advances the clock between scans, so the bench must too.
        scenario.network.clock.advance(1)
        observed = fingerprint(engine.scan(resolvers, domains))
        if baseline is None:
            baseline = observed
        elif observed != baseline:
            return {"identical": False, "first_mismatch_shards": shards,
                    "observations": len(baseline)}
    return {"identical": True, "shard_counts": list(SHARD_COUNTS),
            "observations": len(baseline), "resolvers": len(resolvers),
            "domains": len(domains)}


def measure_scan(scale, seed, shards, repeats, resolver_count):
    """Best-of-``repeats`` wall time of the domain scan, fresh scenario
    per repetition."""
    samples = []
    for __ in range(repeats):
        scenario = _build(scale, seed)
        resolvers, domains = scan_fixture(scenario, resolver_count)
        engine = DomainScanEngine(
            DomainScanner(scenario.network, scenario.pipeline_source_ip),
            options=ScanOptions(shards=shards))
        scenario.network.clock.advance(1)
        start = time.perf_counter()
        observations = engine.scan(resolvers, domains)
        samples.append((time.perf_counter() - start, len(observations)))
    elapsed, count = min(samples, key=lambda item: item[0])
    queries = resolver_count * len(domains)
    return {
        "shards": shards,
        "observations": count,
        "queries": queries,
        "seconds": round(elapsed, 4),
        "queries_per_sec": round(queries / elapsed, 1),
    }


def synthetic_bodies(count, seed):
    """Pages in a handful of families with per-page noise, so clustering
    has real structure to find."""
    rng = random.Random(seed)
    words = ["alpha", "beta", "gamma", "delta", "block", "proxy",
             "login", "bank", "search", "ads", "portal", "error"]
    bodies = []
    for i in range(count):
        family = i % 12
        filler = " ".join(rng.choice(words)
                          for __ in range(rng.randint(5, 30)))
        bodies.append(
            "<html><head><title>Family %d portal</title></head>"
            "<body><h1>site %d</h1><p>%s</p>"
            "<a href='/landing%d'>go</a></body></html>"
            % (family, family, filler, family))
    return bodies


def _cluster_key(clusters):
    return [frozenset(c.indices) for c in clusters]


def measure_clustering_cold(count, seed, threshold=0.30):
    """Both algorithms on real page profiles through the shared caches;
    every pair is evaluated once, so times track distance cost."""
    features = FeatureCache()
    profiles = [features.profile_of(body)
                for body in synthetic_bodies(count, seed)]
    rows = {}
    outputs = {}
    for algorithm, cluster in ALGORITHMS:
        distance = MemoizedDistance(PageDistance())
        start = time.perf_counter()
        clusters, dendrogram = cluster(profiles, distance, threshold)
        elapsed = time.perf_counter() - start
        rows[algorithm] = {
            "seconds": round(elapsed, 4),
            "clusters": len(clusters),
            "distance_evals": distance.evaluations,
        }
        outputs[algorithm] = (_cluster_key(clusters),
                              dendrogram.merge_distances())
    return rows, outputs


def measure_clustering_warm(count, seed, threshold=5.0):
    """Memo-hit-cost distances: isolates the O(n^3) -> O(n^2) win."""
    rng = random.Random(seed)
    values = [round(rng.uniform(0, 1000), 3) for __ in range(count)]

    def warm_distance(a, b):
        return abs(a - b)

    rows = {}
    outputs = {}
    for algorithm, cluster in ALGORITHMS:
        start = time.perf_counter()
        clusters, dendrogram = cluster(values, warm_distance, threshold)
        elapsed = time.perf_counter() - start
        rows[algorithm] = {
            "seconds": round(elapsed, 4),
            "clusters": len(clusters),
        }
        outputs[algorithm] = (_cluster_key(clusters),
                              dendrogram.merge_distances())
    return rows, outputs


def _approx_equal(left, right, tolerance=1e-9):
    return len(left) == len(right) and all(
        abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))
        for a, b in zip(left, right))


def measure_pipeline_perf(scale, seed, shards):
    """One real pipeline run; returns the new instrumentation."""
    scenario = _build(scale, seed)
    perf = PerfRegistry()
    resolvers = sorted(
        scenario.new_campaign(verify=False).run_week().result.noerror)
    pipeline = scenario.new_pipeline(perf=perf,
                                     options=ScanOptions(shards=shards))
    report = pipeline.run(resolvers, list(DOMAIN_SETS[PIPELINE_SET]))
    return {
        "domain_set": PIPELINE_SET,
        "resolvers": len(resolvers),
        "observations": len(report.observations),
        "clusters": len(report.clusters),
        "degraded": report.degraded,
        "pipeline_domain_scan_qps": round(
            perf.gauge_value("pipeline_domain_scan_qps"), 1),
        "pipeline_distance_evals_avoided": perf.counter(
            "pipeline_distance_evals_avoided"),
        "pipeline_distance_cache_hit_rate": round(
            perf.gauge_value("pipeline_distance_cache_hit_rate"), 4),
        "pipeline_feature_cache_hit_rate": round(
            perf.gauge_value("pipeline_feature_cache_hit_rate"), 4),
        "distance_evals": perf.counter("distance_evals"),
        "feature_extractions": perf.counter("feature_extractions"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="classification-pipeline benchmark")
    parser.add_argument("--scale", type=int, default=20000,
                        help="1:N scale of the simulated Internet")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--shards", type=int, default=4,
                        help="requested worker count for the sharded "
                             "scan timing (capped at the CPU count)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller fixtures (CI smoke run)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions per timed variant")
    parser.add_argument("--out", default="BENCH_pipeline.json")
    args = parser.parse_args(argv)
    scale = 60000 if args.quick else args.scale
    repeats = 2 if args.quick else max(1, args.repeats)
    scan_resolvers = 120 if args.quick else 300
    check_resolvers = 40 if args.quick else 60
    cold_pages = 90 if args.quick else 150
    warm_items = 600 if args.quick else 900
    cpu = os.cpu_count() or 1
    effective_shards = max(1, min(args.shards, cpu))

    print("pipeline bench at scale 1:%d (seed %d, best of %d, %d cpus)..."
          % (scale, args.seed, repeats, cpu), file=sys.stderr)

    equivalence = check_equivalence(scale, args.seed, check_resolvers)
    print("  equivalence: shards %s -> %s" % (
        list(SHARD_COUNTS),
        "identical" if equivalence["identical"] else "MISMATCH"),
        file=sys.stderr)

    sequential = measure_scan(scale, args.seed, shards=1,
                              repeats=repeats,
                              resolver_count=scan_resolvers)
    print("  scan seq:        %8.0f q/s" % sequential["queries_per_sec"],
          file=sys.stderr)
    best_scan = sequential
    sharded = None
    if effective_shards > 1:
        sharded = measure_scan(scale, args.seed, shards=effective_shards,
                               repeats=repeats,
                               resolver_count=scan_resolvers)
        print("  scan sharded(%d): %8.0f q/s"
              % (effective_shards, sharded["queries_per_sec"]),
              file=sys.stderr)
        if sharded["seconds"] < best_scan["seconds"]:
            best_scan = sharded
    sharded_requested = None
    if args.shards > effective_shards:
        # Over-forking past the core count: informational only.
        sharded_requested = measure_scan(scale, args.seed,
                                         shards=args.shards, repeats=1,
                                         resolver_count=scan_resolvers)
        print("  scan sharded(%d): %8.0f q/s (over core count)"
              % (args.shards, sharded_requested["queries_per_sec"]),
              file=sys.stderr)

    cold_rows, cold_outputs = measure_clustering_cold(cold_pages,
                                                      args.seed)
    warm_rows, warm_outputs = measure_clustering_warm(warm_items,
                                                      args.seed)
    clusters_identical = True
    for outputs in (cold_outputs, warm_outputs):
        scan_clusters, scan_merges = outputs["pair-scan"]
        chain_clusters, chain_merges = outputs["nn-chain"]
        if scan_clusters != chain_clusters \
                or not _approx_equal(scan_merges, chain_merges):
            clusters_identical = False
    warm_speedup = (warm_rows["pair-scan"]["seconds"]
                    / warm_rows["nn-chain"]["seconds"])
    print("  clustering cold (n=%d): pair-scan %.2fs, nn-chain %.2fs"
          % (cold_pages, cold_rows["pair-scan"]["seconds"],
             cold_rows["nn-chain"]["seconds"]), file=sys.stderr)
    print("  clustering warm (n=%d): pair-scan %.2fs, nn-chain %.2fs "
          "(%.1fx)" % (warm_items, warm_rows["pair-scan"]["seconds"],
                       warm_rows["nn-chain"]["seconds"], warm_speedup),
          file=sys.stderr)

    baseline_seconds = (sequential["seconds"]
                        + warm_rows["pair-scan"]["seconds"])
    optimised_seconds = (best_scan["seconds"]
                         + warm_rows["nn-chain"]["seconds"])
    composite_speedup = baseline_seconds / optimised_seconds

    pipeline_perf = measure_pipeline_perf(scale, args.seed,
                                          shards=effective_shards)
    print("  pipeline run: %.0f q/s, distance cache hit rate %.0f%%"
          % (pipeline_perf["pipeline_domain_scan_qps"],
             100 * pipeline_perf["pipeline_distance_cache_hit_rate"]),
          file=sys.stderr)

    report = {
        "benchmark": "classification_pipeline",
        "scale": scale,
        "seed": args.seed,
        "cpus": cpu,
        "shard_equivalence": equivalence,
        "scan": {
            "sequential": sequential,
            "sharded": sharded,
            "sharded_requested": sharded_requested,
        },
        "clustering": {
            "cold": cold_rows,
            "warm": warm_rows,
            "warm_speedup": round(warm_speedup, 2),
            "identical_clusters": clusters_identical,
        },
        "composite": {
            "baseline_seconds": round(baseline_seconds, 4),
            "optimised_seconds": round(optimised_seconds, 4),
            "speedup": round(composite_speedup, 2),
            "baseline": "sequential scan + pair-scan clustering",
            "optimised": "best-shards scan + nn-chain clustering",
        },
        "pipeline_perf": pipeline_perf,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("composite speedup: %.2fx; equivalence: %s; clusters: %s; "
          "wrote %s"
          % (composite_speedup,
             "OK" if equivalence["identical"] else "MISMATCH",
             "OK" if clusters_identical else "MISMATCH", args.out),
          file=sys.stderr)

    if not equivalence["identical"]:
        print("FAIL: sharded domain scan differs from sequential",
              file=sys.stderr)
        return 1
    if not clusters_identical:
        print("FAIL: nn-chain clusters differ from pair-scan",
              file=sys.stderr)
        return 1
    if composite_speedup < 2.0:
        print("FAIL: composite speedup below 2.0x (%.2fx)"
              % composite_speedup, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
