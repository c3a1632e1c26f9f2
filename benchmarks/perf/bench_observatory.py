"""Observatory benchmark: point-query throughput.

Runs a checkpointed campaign, ingests its journal into a fresh
:class:`~repro.observatory.store.ResolverStore`, and gates on
single-process point lookups: at least ``LOOKUP_QPS_GATE`` per second
with p99 under ``P99_GATE_MS``.  The store's answer identity, re-ingest
no-op and crash-resume equality are tier-1 tests
(``tests/observatory/test_query.py``, ``test_ingest.py``).

Writes ``BENCH_observatory.json`` (including ingest lag and store
size); exits 1 when a gate fails.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_observatory
    PYTHONPATH=src python -m benchmarks.perf.bench_observatory --quick
"""

import argparse
import json
import sys
import time

from repro.checkpoint import CheckpointedRun
from repro.observatory import (
    Observatory,
    ResolverStore,
    ingest_checkpoint,
    scenario_geo,
)
from repro.perf import PerfRegistry
from repro.scenario import ScenarioConfig, build_scenario

WEEKS = 4
LOOKUP_QPS_GATE = 50_000
P99_GATE_MS = 1.0


def check(ok, message):
    if not ok:
        print("FAIL: %s" % message, file=sys.stderr)
        return 1
    print("ok: %s" % message, file=sys.stderr)
    return 0


def run_campaign(scale, seed, directory):
    """One checkpointed campaign over a freshly built world."""
    scenario = build_scenario(ScenarioConfig(scale=scale, seed=seed,
                                             loss_rate=0.0))
    campaign = scenario.new_campaign(verify=False)
    checkpoint = CheckpointedRun(directory,
                                 meta={"command": "campaign",
                                       "scale": scale, "seed": seed,
                                       "weeks": WEEKS})
    try:
        campaign.run(WEEKS, checkpoint=checkpoint)
    finally:
        checkpoint.close()
    return scenario


def measure_lookups(observatory, ips, rounds):
    """Single-process point-lookup throughput over a cycling IP list."""
    lookup = observatory.lookup
    for ip in ips[:1000]:                       # warm caches
        lookup(ip)
    observatory.perf.histograms.pop("observatory_lookup_seconds", None)
    count = len(ips)
    start = time.perf_counter()
    for index in range(rounds):
        lookup(ips[index % count])
    elapsed = time.perf_counter() - start
    histogram = observatory.perf.histogram("observatory_lookup_seconds")
    return {
        "lookups": rounds,
        "seconds": round(elapsed, 4),
        "qps": round(rounds / elapsed, 1),
        "p50_us": round(histogram.percentile(50) * 1e6, 2),
        "p99_us": round(histogram.percentile(99) * 1e6, 2),
        "max_us": round((histogram.max or 0.0) * 1e6, 2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true",
                        help="smaller world + fewer lookups (CI smoke)")
    parser.add_argument("--lookups", type=int, default=None,
                        help="point lookups to time (default 200000, "
                             "quick 60000)")
    parser.add_argument("--out", default="BENCH_observatory.json")
    args = parser.parse_args(argv)
    scale = 60000 if args.quick else args.scale
    rounds = args.lookups or (60_000 if args.quick else 200_000)

    import tempfile
    failures = 0
    with tempfile.TemporaryDirectory(prefix="bench-observatory-") as tmp:
        print("campaign @ scale 1:%d seed %d, %d weeks..."
              % (scale, args.seed, WEEKS), file=sys.stderr)
        ckpt = "%s/ckpt" % tmp
        scenario = run_campaign(scale, args.seed, ckpt)

        print("ingest...", file=sys.stderr)
        perf = PerfRegistry()
        store = ResolverStore("%s/store" % tmp)
        report = ingest_checkpoint(store, ckpt,
                                   geo=scenario_geo(scenario), perf=perf)
        failures += check(
            report.units_folded >= WEEKS and len(store) > 0,
            "ingested %d units -> %d resolvers, %d weeks, %.2fs"
            % (report.units_folded, len(store), len(store.weeks()),
               report.seconds))

        observatory = Observatory(store, perf=perf)

        # -- point-lookup throughput -----------------------------------
        ips = store.rows_where()
        print("timing %d point lookups over %d resolvers..."
              % (rounds, len(ips)), file=sys.stderr)
        lookups = measure_lookups(observatory, ips, rounds)
        failures += check(
            lookups["qps"] >= LOOKUP_QPS_GATE,
            "%.0f lookups/s (gate %d)" % (lookups["qps"],
                                          LOOKUP_QPS_GATE))
        failures += check(
            lookups["p99_us"] < P99_GATE_MS * 1000,
            "p99 %.1fus (gate %.0fus)" % (lookups["p99_us"],
                                          P99_GATE_MS * 1000))

        report_json = {
            "scale": scale,
            "seed": args.seed,
            "weeks": WEEKS,
            "resolvers": len(store),
            "ingest_seconds": round(report.seconds, 3),
            "ingest_lag_records_at_start": report.lag_records,
            "ingest_lag_records_after": max(
                0, report.lag_records - report.units_seen),
            "store_generation": store.generation,
            "store_disk_bytes": store.disk_bytes(),
            "lookup": lookups,
            "lookup_qps_gate": LOOKUP_QPS_GATE,
            "p99_gate_ms": P99_GATE_MS,
            "passed": failures == 0,
        }
    with open(args.out, "w") as handle:
        json.dump(report_json, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.out, file=sys.stderr)

    if failures:
        print("%d observatory gate(s) failed" % failures,
              file=sys.stderr)
        return 1
    print("observatory passed: %.0f lookups/s, p99 %.0fus, "
          "store %d bytes"
          % (lookups["qps"], lookups["p99_us"],
             report_json["store_disk_bytes"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
