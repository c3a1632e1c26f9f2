"""Hold the end-to-end benchmark's ``result_digest``s to a record.

``python -m benchmarks.digests RECORD RESULTS.json ...`` reads result
sets written by ``python -m benchmarks.e2e run --out`` and compares the
digest of every run with ``RECORD`` (``{"digests": {workload: {seed:
digest}}}``).  It fails, naming the workload and seed, when a digest
differs, a run has no recorded digest, or a recorded pair was not run.
A change that moves a digest on purpose updates the record and says
why.
"""

import json
import sys


def mismatches(record, result_sets):
    """One line per digest that does not equal the record."""
    expected = {(workload, int(seed)): digest
                for workload, seeds in record["digests"].items()
                for seed, digest in seeds.items()}
    problems, seen = [], set()
    for result_set in result_sets:
        for run in result_set["runs"]:
            key = (run["workload"], run["header"]["seed"])
            seen.add(key)
            if key not in expected:
                problems.append("%s seed %d: no recorded digest (ran %s)"
                                % (key + (run["result_digest"],)))
            elif run["result_digest"] != expected[key]:
                problems.append("%s seed %d: result_digest %s != recorded %s"
                                % (key + (run["result_digest"],
                                          expected[key])))
    for key in sorted(set(expected) - seen):
        problems.append("%s seed %d: recorded but not run" % key)
    return problems


def main(argv):
    if len(argv) < 2:
        print("usage: python -m benchmarks.digests RECORD RESULTS.json...",
              file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        record = json.load(handle)
    result_sets = []
    for path in argv[1:]:
        with open(path) as handle:
            result_sets.append(json.load(handle))
    problems = mismatches(record, result_sets)
    for problem in problems:
        print("digest mismatch: " + problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
