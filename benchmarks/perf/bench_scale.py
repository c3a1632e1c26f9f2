"""Million-resolver scale benchmark: memory-bounded streaming scan.

Exercises the whole substrate at paper scale: a lazily-materialized
resolver population (``lazy_population=True``) scanned by the
fork-sharded engine in streaming mode (``stream_results=True``), so no
worker ever holds O(population) state.  Two gates:

* **Identity** — at small scale, the streamed scan's pickled
  :class:`ScanResult` must be byte-identical to the resident
  (non-streaming) scan's, including under a pathological chunk size
  that forces hundreds of chunk frames.

* **Boundedness** — at the profile scale (1:27 ≈ 1M pool members /
  ~38M scan targets for the full profile; 1:134 ≈ 200k members for
  ``--quick`` CI runs), each worker's ru_maxrss *growth* across its
  shard must stay within an explicit model: the LFSR selector column
  (1 byte per register state), the in-flight column chunk, the
  materialized-node LRU, a per-touched-member copy-on-write/churn
  allowance, plus fixed slack.  Growth is gated rather
  than the absolute peak because a forked child inherits the parent's
  high-water mark — the pre-fork footprint (world, permutation walk,
  address columns) is shared copy-on-write and would drown the signal.
  Wall clock is gated too, loosely, as a harness-hang tripwire.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_scale          # 1:27, ~1M
    PYTHONPATH=src python -m benchmarks.perf.bench_scale --quick  # 1:134, CI
"""

import argparse
import json
import pickle
import sys
import time

from repro.perf import PerfRegistry, sample_ru_maxrss_kb
from repro.scanner.lfsr import LFSR
from repro.scenario import ScenarioConfig, build_scenario

# Paper population is ~26.8M open resolvers; scale 1:27 puts ~1M pool
# members in the simulated world, 1:134 ~200k (the CI smoke profile).
FULL_SCALE = 27
QUICK_SCALE = 134


def _build(scale, seed, node_cache):
    started = time.perf_counter()
    scenario = build_scenario(ScenarioConfig(
        scale=scale, seed=seed, lazy_population=True,
        node_cache=node_cache))
    return scenario, time.perf_counter() - started


def _run_scan(scenario, shards, stream, chunk_rows, node_cache):
    perf = PerfRegistry()
    campaign = scenario.new_campaign(
        verify=False, shards=shards, perf=perf,
        stream_results=stream, chunk_rows=chunk_rows)
    snapshot = campaign.run_week()
    gauges = perf.snapshot().get("gauges", {})
    return snapshot.result, perf, gauges


def _measure_identity(seed, shards, node_cache):
    """Streamed-vs-resident byte identity at small scale.

    chunk_rows=257 forces many small chunk frames over the worker
    pipes; the reassembled result must still pickle to the
    exact bytes of the resident run (``ScanResult.__getstate__``
    canonicalises row order, so chunk partitioning must be invisible).
    """
    stats = {"scale": 20000, "shards": shards, "chunk_rows": 257}
    scenario, __ = _build(20000, seed, node_cache)
    resident, __, __ = _run_scan(scenario, shards, stream=False,
                                 chunk_rows=65536, node_cache=node_cache)
    scenario, __ = _build(20000, seed, node_cache)
    streamed, __, __ = _run_scan(scenario, shards, stream=True,
                                 chunk_rows=257, node_cache=node_cache)
    resident_bytes = pickle.dumps(resident)
    streamed_bytes = pickle.dumps(streamed)
    stats["result_bytes"] = len(resident_bytes)
    stats["rows"] = resident.row_count()
    stats["identical"] = resident_bytes == streamed_bytes
    return stats


def _rss_budget_kb(period, chunk_rows, node_cache, members, shards,
                   slack_kb):
    """The worker RSS-growth model, in KiB.

    selector   — ``bytearray(period + 1)``, 1 byte per LFSR state,
                 built privately inside each worker per scan call;
    chunk      — one in-flight column chunk (~6 B/row) plus its pickle;
    node cache — the materialized-node LRU, ~4 KiB per entry counting
                 the node object graph and its network registration;
    touch      — ~1.5 KiB per pool member the worker probes: fork
                 shares the world copy-on-write, but refcount writes
                 during host lookup dirty pages at page granularity,
                 and each member's one-shot materialization churns the
                 allocator's high-water mark.  Page-granular and
                 measured, not exact — but an order of magnitude below
                 the ~3-4 KiB/member a worker would pay for actually
                 materializing (or eagerly holding) its whole slice,
                 which is the regression this gate exists to catch;
    slack      — interpreter noise: arenas, pipe buffers, temporaries.
    """
    selector_kb = (period + 1) // 1024
    chunk_kb = chunk_rows * 32 // 1024
    cache_kb = node_cache * 4
    touch_kb = members * 3 // (2 * shards)
    return selector_kb + chunk_kb + cache_kb + touch_kb + slack_kb


def _measure_scale(scale, seed, shards, chunk_rows, node_cache, slack_kb):
    scenario, build_seconds = _build(scale, seed, node_cache)
    members = len(scenario.population.resolvers)
    targets = len(scenario.target_space())
    order = LFSR.order_for(targets)
    period = (1 << order) - 1
    result, perf, gauges = _run_scan(scenario, shards, stream=True,
                                     chunk_rows=chunk_rows,
                                     node_cache=node_cache)
    wall = perf.seconds("scan_wall")
    growth = gauges.get("worker_rss_growth_kb", 0)
    budget = _rss_budget_kb(period, chunk_rows, node_cache, members,
                            shards, slack_kb)
    return {
        "scale": scale,
        "shards": shards,
        "chunk_rows": chunk_rows,
        "node_cache": node_cache,
        "pool_members": members,
        "scan_targets": targets,
        "lfsr_order": order,
        "build_seconds": round(build_seconds, 2),
        "scan_seconds": round(wall, 2),
        "probes_sent": result.probes_sent,
        "probes_per_sec": round(result.probes_sent / wall, 1),
        "responsive_rows": result.row_count(),
        "parent_peak_rss_kb": sample_ru_maxrss_kb(),
        "worker_peak_rss_kb": gauges.get("worker_peak_rss_kb", 0),
        "worker_rss_growth_kb": growth,
        "rss_growth_budget_kb": budget,
        "rss_growth_within_budget": growth <= budget,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="million-resolver streaming-scan scale benchmark")
    parser.add_argument("--scale", type=int, default=None,
                        help="override the profile's 1:N scale")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--chunk-rows", type=int, default=65536)
    parser.add_argument("--node-cache", type=int, default=8192)
    parser.add_argument("--quick", action="store_true",
                        help="~200k-member world (CI smoke profile)")
    parser.add_argument("--slack-kb", type=int, default=65536,
                        help="fixed slack in the worker RSS-growth "
                             "budget (KiB)")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="scan wall-clock ceiling (profile default)")
    parser.add_argument("--out", default="BENCH_scale.json")
    args = parser.parse_args(argv)
    scale = args.scale or (QUICK_SCALE if args.quick else FULL_SCALE)
    max_seconds = args.max_seconds or (600.0 if args.quick else 3600.0)

    print("identity check at scale 1:20000...", file=sys.stderr)
    identity = _measure_identity(args.seed, args.shards, args.node_cache)
    print("  streamed == resident: %s (%d rows, %d result bytes)"
          % (identity["identical"], identity["rows"],
             identity["result_bytes"]), file=sys.stderr)

    print("scale run at 1:%d (seed %d, %d shards)..."
          % (scale, args.seed, args.shards), file=sys.stderr)
    stats = _measure_scale(scale, args.seed, args.shards, args.chunk_rows,
                           args.node_cache, args.slack_kb)
    print("  %d pool members, %d scan targets (order-%d LFSR)"
          % (stats["pool_members"], stats["scan_targets"],
             stats["lfsr_order"]), file=sys.stderr)
    print("  build %.1fs, scan %.1fs (%.0f probes/sec)"
          % (stats["build_seconds"], stats["scan_seconds"],
             stats["probes_per_sec"]), file=sys.stderr)
    print("  worker RSS growth %d KiB (budget %d KiB), "
          "worker peak %d KiB, parent peak %d KiB"
          % (stats["worker_rss_growth_kb"], stats["rss_growth_budget_kb"],
             stats["worker_peak_rss_kb"], stats["parent_peak_rss_kb"]),
          file=sys.stderr)

    report = {
        "benchmark": "streaming_scan_scale",
        "profile": "quick" if args.quick else "full",
        "seed": args.seed,
        "max_seconds": max_seconds,
        "identity": identity,
        "scale_run": stats,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.out, file=sys.stderr)

    failed = False
    if not identity["identical"]:
        print("FAIL: streamed result differs from resident result",
              file=sys.stderr)
        failed = True
    if not stats["rss_growth_within_budget"]:
        print("FAIL: worker RSS growth %d KiB exceeds the %d KiB model"
              % (stats["worker_rss_growth_kb"],
                 stats["rss_growth_budget_kb"]), file=sys.stderr)
        failed = True
    if stats["scan_seconds"] > max_seconds:
        print("FAIL: scan took %.1fs (ceiling %.1fs)"
              % (stats["scan_seconds"], max_seconds), file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
