"""The ``BENCHMARK.json`` command: one workload, one JSON line.

    python3 benchmarks/e2e/driver.py --workload W --seed N \
        --seconds S --trace 0|1

Runs the workload in a fresh child and prints, as the last line of
stdout, ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1`` (an untraced child runs first, so
``bench.trace_overhead_share`` has its base).  Needs no ``PYTHONPATH``:
the repository root and ``src/`` are found from this file's location.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

# The program under test must be there: a checkout holding only the
# benchmark has nothing to measure, and this import is what says so.
import repro  # noqa: E402,F401

from benchmarks.e2e import harness, spec  # noqa: E402


def contract_metrics(result, traced, contract):
    """Map a workload result onto the names ``BENCHMARK.json`` lists."""
    if traced:
        return {entry["name"]: {"value": result["layers"][entry["name"]],
                                "unit": entry["unit"]}
                for entry in contract["per_layer"]}
    workload = result["workload"]
    return {entry["name"]: {
        "value": result["metrics"][
            spec.CONTRACT_SOURCES[entry["name"]][workload]],
        "unit": entry["unit"]}
        for entry in contract["end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)

    result = harness.run_child(args.workload, args.seed, args.seconds)
    if args.trace:
        result = harness.run_traced_child(
            args.workload, args.seed, args.seconds,
            untraced_wall=result["metrics"]["wall_s"])
    for failure in result["failures"]:
        print("FAILED %s" % failure, file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": contract_metrics(result, bool(args.trace), contract),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
