"""Harness self-test: every workload at a tiny world, every promise kept.

Outside tier-1 ``testpaths``; run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e

Each workload runs twice (untraced, traced) at scale 1:60000 with two
weeks — a smoke of the harness, not a measurement.
"""

import json
import math
import os
import re

import pytest

from benchmarks.e2e import compare, driver, harness, spec
from benchmarks.e2e.recorder import read_spans

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED = 5


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def runs():
    """``{workload: (untraced result, traced result)}``, run once."""
    return {name: (harness.run_child(name, SEED, 2, tiny=True),
                   harness.run_child(name, SEED, 2, traced=True,
                                     tiny=True))
            for name in spec.WORKLOAD_NAMES}


def test_contract_file_matches_the_catalogue(contract):
    assert set(contract) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [entry["name"] for entry in contract["workloads"]] == \
        list(spec.WORKLOAD_NAMES)
    end_to_end = contract["end_to_end"]
    per_layer = contract["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [entry["name"] for entry in end_to_end + per_layer]
    assert len(set(names)) == len(names)
    for name in names + list(spec.WORKLOAD_NAMES):
        assert NAME.match(name), name
    assert "setup_s" in [entry["name"] for entry in end_to_end]
    assert all(0 < entry["bound"] <= 0.25 for entry in end_to_end)
    # Every generic contract name has a source on every workload, and
    # the same bound ``compare`` applies to that source ...
    rel = {metric.name: metric.rel for metric in spec.END_TO_END}
    for entry in end_to_end:
        sources = spec.CONTRACT_SOURCES[entry["name"]]
        assert set(sources) == set(spec.WORKLOAD_NAMES)
        assert {rel.get(source, entry["bound"])
                for source in sources.values()} == {entry["bound"]}
    # ... and the per-layer list is the catalogue's, unit for unit.
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in per_layer] == \
        [(layer.name, layer.unit, layer.better)
         for layer in spec.PER_LAYER]
    assert len(spec.END_TO_END) <= 16


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_end_to_end_metrics_are_emitted(runs, contract, name):
    untraced, __ = runs[name]
    for metric in spec.end_to_end_for(name):
        assert isinstance(untraced["metrics"][metric.name],
                          (int, float)), metric.name
    emitted = driver.contract_metrics(untraced, False, contract)
    assert set(emitted) == {entry["name"]
                            for entry in contract["end_to_end"]}
    for entry in contract["end_to_end"]:
        assert emitted[entry["name"]]["unit"] == entry["unit"]
        value = emitted[entry["name"]]["value"]
        assert math.isfinite(value) and value > 0, entry["name"]


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_per_layer_metrics_are_emitted(runs, contract, name):
    __, traced = runs[name]
    emitted = driver.contract_metrics(traced, True, contract)
    assert set(emitted) == {entry["name"]
                            for entry in contract["per_layer"]}
    for entry in contract["per_layer"]:
        assert emitted[entry["name"]]["unit"] == entry["unit"]
        assert math.isfinite(emitted[entry["name"]]["value"])


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_checks_pass_and_digest_repeats(runs, name):
    untraced, traced = runs[name]
    for result in (untraced, traced):
        assert result["attempted"] >= 1
        assert result["failed"] == 0, result["failures"]
        assert result["metrics"]["failed_share"] == 0
    # Tracing must not change what the program computes.
    assert untraced["result_digest"] == traced["result_digest"]


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_self_times_cover_the_wall(runs, name):
    __, traced = runs[name]
    budget = traced["budget"]
    assert budget["attributed_share"] >= 0.95, budget
    assert budget["wall_s"] == pytest.approx(
        traced["metrics"]["wall_s"], rel=0.02)


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_span_file_parses_and_nests(runs, name):
    __, traced = runs[name]
    header, spans = read_spans(os.path.join(harness.ROOT,
                                            traced["trace_file"]))
    for field in ("commit", "python", "nproc", "cpu_model",
                  "load_1m_at_start", "noisy", "seed", "params"):
        assert field in header, field
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans) > 0
    assert {span["run"] for span in spans} == {header["run"]}
    for span in spans:
        assert span["end"] >= span["start"], span
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"], (span, parent)
            assert span["end"] <= parent["end"], (span, parent)


# -- compare: verdicts on synthetic sets --------------------------------

def _result_set(wall_values, digest="d", failed_share=0.0):
    return {"runs": [{"workload": spec.SWEEP, "header": {"seed": 7},
                      "result_digest": digest,
                      "metrics": {"wall_s": value,
                                  "failed_share": failed_share}}
                     for value in wall_values]}


def _verdict(rows, metric):
    return [row["verdict"] for row in rows if row["metric"] == metric][0]


def test_compare_flags_a_regression_beyond_the_bound():
    rows, regressions, mismatches = compare.compare_sets(
        _result_set([10.0, 10.1, 10.2]), _result_set([13.0, 13.1, 13.2]))
    assert _verdict(rows, "wall_s") == compare.REGRESSION
    assert regressions and not mismatches


def test_compare_says_unresolved_when_spread_exceeds_the_bound():
    rows, regressions, __ = compare.compare_sets(
        _result_set([8.0, 10.0, 12.0]), _result_set([8.2, 10.2, 12.2]))
    assert _verdict(rows, "wall_s") == compare.UNRESOLVED
    assert not regressions


def test_compare_fails_on_failed_share_rise_and_digest_mismatch():
    rows, regressions, mismatches = compare.compare_sets(
        _result_set([10.0]), _result_set([10.0], digest="other",
                                         failed_share=0.001))
    assert _verdict(rows, "failed_share") == compare.REGRESSION
    assert _verdict(rows, "wall_s") == compare.UNCHANGED
    assert regressions and mismatches
