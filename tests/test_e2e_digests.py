"""The end-to-end digest gate (``python -m benchmarks.digests``) names
the workload and seed of every digest it does not find on record, and
the record covers the tiny runs the CI ``bench-e2e-smoke`` job makes."""

import json
from pathlib import Path

from benchmarks.digests import mismatches

RECORD = Path(__file__).resolve().parent / "fixtures" / \
    "e2e-tiny-digests.json"


def run(workload, seed, digest):
    return {"workload": workload, "header": {"seed": seed},
            "result_digest": digest}


def test_each_mismatch_names_its_workload_and_seed():
    record = {"digests": {"study": {"7": "a", "11": "b"},
                          "sweep": {"7": "c"}}}
    assert mismatches(record, [
        {"runs": [run("study", 7, "a"), run("sweep", 7, "c")]},
        {"runs": [run("study", 11, "b")]}]) == []
    assert mismatches(record, [
        {"runs": [run("study", 7, "x"), run("observe", 7, "d")]}]) == [
        "study seed 7: result_digest x != recorded a",
        "observe seed 7: no recorded digest (ran d)",
        "study seed 11: recorded but not run",
        "sweep seed 7: recorded but not run"]


def test_the_record_holds_every_tiny_run_ci_makes():
    digests = json.loads(RECORD.read_text())["digests"]
    assert {workload: sorted(seeds) for workload, seeds
            in digests.items()} == {"sweep": ["11", "7"],
                                    "sweep-hostile": ["11", "7"],
                                    "study": ["11", "7"], "observe": ["7"]}
