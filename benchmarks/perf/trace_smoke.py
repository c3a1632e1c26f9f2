"""Trace smoke run: a tiny traced campaign under injected faults.

The CI gate for the observability plane (:mod:`repro.obs`).  It runs a
small sharded weekly scan with tracing and the flight recorder enabled
under the ``mild`` fault profile plus a forced worker kill, exports the
trace to JSONL, and asserts:

1. the exported file validates against the trace schema (meta line
   first, complete span records, resolvable parentage, no duplicate
   span ids);
2. spans cover the scan stack — a root ``scan`` span with worker
   ``shard`` spans parented under it, across at least two shards;
3. faults actually fired, and **every** lost probe in the flight ring
   carries a drop cause (100% loss attribution), with the injected
   fault rule visible among the causes;
4. the `repro trace` CLI renders the report and validates the file;
5. a command that is not a bare scan (``classify``: sweep + pipeline)
   exports a trace the same CLI validates — tracing is the command
   session's, not a per-command feature.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.trace_smoke
    PYTHONPATH=src python -m benchmarks.perf.trace_smoke --out t.jsonl
"""

import argparse
import os
import sys
import tempfile

from repro.cli import main as cli_main
from repro.obs import read_trace, validate_trace

SCALE = 60000
SEED = 7
SHARDS = 3
SPEC = "mild,kill=0"


def check(condition, message):
    if not condition:
        print("FAIL: %s" % message, file=sys.stderr)
        return 1
    print("ok: %s" % message, file=sys.stderr)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="trace smoke gate")
    parser.add_argument("--out", default=None,
                        help="trace JSONL path (default: a temp dir, so "
                             "CI can pass a stable path to upload)")
    args = parser.parse_args(argv)
    failures = 0
    trace_path = args.out or os.path.join(
        tempfile.mkdtemp(prefix="trace_smoke_"), "trace.jsonl")
    print("traced chaos scan (scale 1:%d, seed %d, %d shards, %r)..."
          % (SCALE, SEED, SHARDS, SPEC), file=sys.stderr)
    status = cli_main(["scan", "--scale", str(SCALE), "--seed", str(SEED),
                       "--shards", str(SHARDS), "--faults", SPEC,
                       "--retries", "1", "--trace-out", trace_path])
    failures += check(status == 0, "traced scan exits 0 (%r)" % status)
    failures += check(os.path.exists(trace_path),
                      "trace written to %s" % trace_path)

    records = read_trace(trace_path)
    stats = validate_trace(records)
    failures += check(stats["spans"] >= 3,
                      "schema valid: %d spans, %d flight events"
                      % (stats["spans"], stats["flight_events"]))

    spans = [r for r in records if r.get("type") == "span"]
    roots = [s for s in spans if s["stage"] == "scan"]
    shard_spans = [s for s in spans if s["stage"] == "shard"]
    failures += check(len(roots) == 1, "single scan root span")
    failures += check(len(shard_spans) >= 2,
                      "shard spans from >=2 shards (%d)" % len(shard_spans))
    if roots:
        failures += check(
            all(s["parent_id"] == roots[0]["span_id"] for s in shard_spans),
            "every shard span parents under the scan span")
    attempts = sorted(s["attrs"].get("attempt", 0) for s in shard_spans)
    failures += check(attempts and attempts[-1] >= 1,
                      "killed worker's retry visible (attempts %s)"
                      % attempts)

    meta = records[0]
    causes = meta.get("drop_causes", {})
    fault_causes = {c: n for c, n in causes.items()
                    if c.startswith("fault:")}
    failures += check(sum(fault_causes.values()) > 0,
                      "injected faults attributed in flight ring: %s"
                      % sorted(fault_causes.items()))
    failures += check(stats["losses"] > 0
                      and stats["losses"] == stats["losses_attributed"],
                      "100%% loss attribution (%d/%d)"
                      % (stats["losses_attributed"], stats["losses"]))

    failures += check(
        cli_main(["trace", trace_path, "--validate-only"]) == 0,
        "`repro trace --validate-only` accepts the export")
    failures += check(cli_main(["trace", trace_path]) == 0,
                      "`repro trace` renders the report")

    classify_path = os.path.join(os.path.dirname(trace_path),
                                 "classify_" + os.path.basename(trace_path))
    failures += check(
        cli_main(["classify", "--set", "Dating", "--scale", str(SCALE),
                  "--seed", str(SEED), "--trace-out", classify_path]) == 0,
        "traced classify exits 0")
    failures += check(
        cli_main(["trace", classify_path, "--validate-only"]) == 0,
        "`repro trace --validate-only` accepts the classify export")
    stages = {r["stage"] for r in read_trace(classify_path)
              if r.get("type") == "span"}
    failures += check({"scan", "clustering"} <= stages,
                      "classify trace spans sweep and pipeline stages (%s)"
                      % sorted(stages))

    if failures:
        print("trace smoke: %d failure(s)" % failures, file=sys.stderr)
        return 1
    print("trace smoke: all checks passed (%s)" % trace_path,
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
