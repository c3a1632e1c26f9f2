"""Command line: ``run``, ``compare``, ``aa`` (and the child entry)."""

import argparse
import json
import os
import sys
import time

from benchmarks.e2e import compare as compare_mod
from benchmarks.e2e import harness, spec

DEFAULT_SEED = 7


def _default_seconds():
    """``run_seconds`` of the committed contract file."""
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)["run_seconds"]


def _say(message):
    print(message, file=sys.stderr, flush=True)


# -- printing -----------------------------------------------------------

def print_end_to_end(result):
    name = result["workload"]
    print("%s (seed %d%s)" % (name, result["header"]["seed"],
                              ", noisy host" if result["header"]["noisy"]
                              else ""))
    metrics = result["metrics"]
    for metric in spec.end_to_end_for(name):
        print("  %-20s %14.6g %s" % (metric.name, metrics[metric.name],
                                     metric.unit))
    extras = result["extras"]
    http = extras.get("http")
    if http:
        tail = ("no percentile above p50 has 10 samples beyond it"
                if http["tail_percentile"] is None else
                "p%s %.4g ms" % (http["tail_percentile"], http["tail_ms"]))
        print("  %-20s %14s  %s, %d requests"
              % ("http latency tail", "", tail, http["samples"]))
    print("  %-20s %14s" % ("result_digest", result["result_digest"]))
    for failure in result["failures"]:
        print("  FAILED %s" % failure)


def print_layers(result):
    name = result["workload"]
    budget = result["budget"]
    print("%s: per-layer budget (self time; wall_s %.3f, %.1f%% "
          "attributed)" % (name, budget["wall_s"],
                           100 * budget["attributed_share"]))
    for row in budget["rows"]:
        print("  %-28s %9.3f s %6.1f%%  (%d spans)" % (
            row["layer"], row["self_s"], 100 * row["share"],
            row["spans"]))
    print("  %-28s %9.3f s" % ("(unattributed)",
                               budget["unattributed_s"]))
    print("%s: per-layer metrics" % name)
    detail = result.get("layer_detail", {})
    for layer in spec.PER_LAYER:
        value = result["layers"][layer.name]
        if not value:
            continue
        note = ""
        if layer.name in detail and "busy_s" in detail[layer.name]:
            note = "  (%d in %.3f s busy)" % (
                detail[layer.name]["count"],
                detail[layer.name]["busy_s"])
        print("  %-34s %14.6g %-6s%s" % (layer.name, value, layer.unit,
                                         note))


# -- run sets -----------------------------------------------------------

def new_set(seed):
    return {"header": harness.header(seed), "runs": [], "traced": []}


def run_set(workloads, seed, seconds, runs, traced, tiny):
    """Run every workload ``runs`` times untraced (fresh child each),
    then once traced if asked; returns the result set."""
    result_set = new_set(seed)
    for name in workloads:
        for index in range(runs):
            _say("%s: run %d/%d..." % (name, index + 1, runs))
            result = harness.run_child(name, seed, seconds, tiny=tiny)
            result_set["runs"].append(result)
            print_end_to_end(result)
    if traced:
        for name in workloads:
            _say("%s: traced run..." % name)
            result = harness.run_traced_child(
                name, seed, seconds, tiny=tiny,
                untraced_wall=harness.median(
                    [run["metrics"]["wall_s"]
                     for run in result_set["runs"]
                     if run["workload"] == name]))
            result_set["traced"].append(result)
            print_layers(result)
    return result_set


def failed_runs(result_set):
    return [run for run in result_set["runs"] + result_set["traced"]
            if run["failed"]]


def write_set(result_set, path):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(result_set, handle, indent=1, sort_keys=True)
        handle.write("\n")
    _say("wrote %s" % path)


def _add_run_arguments(parser):
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal measuring time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--workload", action="append",
                        choices=spec.WORKLOAD_NAMES,
                        help="run only this workload (repeatable)")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny worlds (harness smoke, not a "
                             "measurement)")


def command_run(args):
    seconds = args.seconds or _default_seconds()
    workloads = args.workload or list(spec.WORKLOAD_NAMES)
    result_set = run_set(workloads, args.seed, seconds, args.runs,
                         args.traced, args.tiny)
    write_set(result_set, args.out or os.path.join(
        harness.OUT_DIR, "run-%d.json" % int(time.time())))
    failed = failed_runs(result_set)
    for run in failed:
        _say("FAILED %s: %d of %d operations" % (
            run["workload"], run["failed"], run["attempted"]))
    return 1 if failed else 0


def command_compare(args):
    rows, regressions, mismatches = compare_mod.compare_sets(
        compare_mod.load(args.a), compare_mod.load(args.b))
    print(compare_mod.format_rows(rows))
    problems = regressions + mismatches
    for problem in problems:
        _say("FAIL %s" % problem)
    return 1 if problems else 0


def command_aa(args):
    """Two sets of the same code, runs interleaved A B A B ..."""
    seconds = args.seconds or _default_seconds()
    workloads = args.workload or list(spec.WORKLOAD_NAMES)
    sets = [new_set(args.seed), new_set(args.seed)]
    for name in workloads:
        for index in range(args.runs):
            for side in ((0, 1) if index % 2 == 0 else (1, 0)):
                _say("%s: set %s run %d/%d..." % (
                    name, "AB"[side], index + 1, args.runs))
                sets[side]["runs"].append(harness.run_child(
                    name, args.seed, seconds, tiny=args.tiny))
    rows, __, mismatches = compare_mod.compare_sets(*sets)
    print(compare_mod.format_rows(rows))
    # Same code on both sides: a gain beyond the bound is as wrong as a
    # loss, so agreement is judged in both directions.
    problems = mismatches + compare_mod.disagreements(rows)
    problems += ["%s: failed_share %.6g" % (run["workload"],
                                            run["metrics"]["failed_share"])
                 for side in sets for run in side["runs"]
                 if run["failed"]]
    for side, label in zip(sets, "ab"):
        write_set(side, os.path.join(harness.OUT_DIR,
                                     "aa-%s.json" % label))
    for problem in problems:
        _say("FAIL %s" % problem)
    return 1 if problems else 0


def command_child(args):
    from benchmarks.e2e.workloads import run_workload
    result = run_workload(args.workload, args.seed, args.seconds,
                          traced=args.traced, tiny=args.tiny)
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="end-to-end benchmark with a per-layer budget")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run the workloads; print every end-to-end metric")
    _add_run_arguments(run)
    run.add_argument("--runs", type=int, default=1,
                     help="untraced runs per workload")
    run.add_argument("--traced", action="store_true",
                     help="also run each workload traced and print the "
                          "per-layer table")
    run.add_argument("--out", help="result-set file (default: out/)")
    run.set_defaults(handler=command_run)

    comparison = commands.add_parser(
        "compare", help="compare two result sets, apply the bounds")
    comparison.add_argument("a")
    comparison.add_argument("b")
    comparison.set_defaults(handler=command_compare)

    aa = commands.add_parser(
        "aa", help="two sets of the same code must agree")
    _add_run_arguments(aa)
    aa.add_argument("--runs", type=int, default=3,
                    help="runs per workload per set")
    aa.set_defaults(handler=command_aa)

    child = commands.add_parser("_child")
    child.add_argument("--workload", required=True,
                       choices=spec.WORKLOAD_NAMES)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--traced", action="store_true")
    child.add_argument("--tiny", action="store_true")
    child.set_defaults(handler=command_child)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
