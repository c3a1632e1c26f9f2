"""Compare two result sets: one row per workload x end-to-end metric.

A result set is what ``python -m benchmarks.e2e run --out FILE`` writes:
a header plus one entry per (workload, run).  Rows carry both medians,
both quartile pairs, the ratio *and its base*, and a verdict:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — not a regression, but the run-to-run spread of either
  side exceeds the bound, so "no change" cannot be told from noise
  (unless every B run beats every A run, which reads ``improved``);
* ``improved`` / ``unchanged`` otherwise.

``failed_share`` regresses on any rise; ``result_digest`` must match
wherever both sets ran the same workload with the same seed.
"""

import json

from benchmarks.e2e import spec
from benchmarks.e2e.harness import quartiles

REGRESSION = "regression"
UNRESOLVED = "unresolved"
IMPROVED = "improved"
UNCHANGED = "unchanged"


def load(path):
    with open(path) as handle:
        return json.load(handle)


def _values(result_set, workload, metric):
    return [run["metrics"][metric] for run in result_set["runs"]
            if run["workload"] == workload and metric in run["metrics"]]


def allowed_change(metric, base):
    return max(metric.rel * abs(base), metric.floor)


def compare_metric(metric, a_values, b_values):
    """One comparison row (a plain dict)."""
    a_q1, a_med, a_q3 = quartiles(a_values)
    b_q1, b_med, b_q3 = quartiles(b_values)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b_med - a_med)
    allowed = allowed_change(metric, a_med)
    noise = max(a_q3 - a_q1, b_q3 - b_q1)
    if worse_by > allowed:
        verdict = REGRESSION
    elif all(sign * (b - a) < 0 for a in a_values for b in b_values):
        verdict = IMPROVED
    elif noise > allowed:
        verdict = UNRESOLVED
    else:
        verdict = IMPROVED if -worse_by > allowed else UNCHANGED
    return {
        "metric": metric.name, "unit": metric.unit,
        "better": metric.better,
        "a_median": a_med, "a_q1": a_q1, "a_q3": a_q3,
        "a_runs": len(a_values),
        "b_median": b_med, "b_q1": b_q1, "b_q3": b_q3,
        "b_runs": len(b_values),
        "ratio": b_med / a_med if a_med else None, "ratio_base": a_med,
        "allowed_change": allowed, "worse_by": worse_by,
        "verdict": verdict,
    }


def compare_sets(a_set, b_set):
    """``(rows, regressions, mismatches)``: every row, the regressions
    among them, and the ``result_digest`` mismatches — the last two are
    what must fail the exit."""
    rows = []
    regressions = []
    mismatches = []
    for name in spec.WORKLOAD_NAMES:
        for metric in spec.end_to_end_for(name):
            a_values = _values(a_set, name, metric.name)
            b_values = _values(b_set, name, metric.name)
            if not a_values or not b_values:
                continue
            row = compare_metric(metric, a_values, b_values)
            row["workload"] = name
            rows.append(row)
            if row["verdict"] == REGRESSION:
                regressions.append(
                    "%s %s: %s of %.6g -> %.6g %s (allowed %.3g)"
                    % (name, metric.name, REGRESSION, row["a_median"],
                       row["b_median"], metric.unit,
                       row["allowed_change"]))
    digests = {}
    for run in a_set["runs"]:
        digests[(run["workload"], run["header"]["seed"])] = \
            run["result_digest"]
    for run in b_set["runs"]:
        key = (run["workload"], run["header"]["seed"])
        if key in digests and digests[key] != run["result_digest"]:
            mismatches.append("%s seed %d: result_digest %s != %s"
                              % (key[0], key[1], digests[key],
                                 run["result_digest"]))
    return rows, regressions, mismatches


def format_rows(rows):
    lines = ["%-14s %-18s %-6s %12s %25s %12s %25s %8s %12s  %s" % (
        "workload", "metric", "unit", "A median", "A q1..q3",
        "B median", "B q1..q3", "B/A", "base (A)", "verdict")]
    for row in rows:
        lines.append(
            "%-14s %-18s %-6s %12.6g %25s %12.6g %25s %8s %12.6g  %s" % (
                row["workload"], row["metric"], row["unit"],
                row["a_median"],
                "%.6g..%.6g" % (row["a_q1"], row["a_q3"]),
                row["b_median"],
                "%.6g..%.6g" % (row["b_q1"], row["b_q3"]),
                "-" if row["ratio"] is None else "%.3f" % row["ratio"],
                row["ratio_base"], row["verdict"]))
    return "\n".join(lines)


def disagreements(rows):
    """For ``aa``: rows where same-code sets differ beyond the bound
    in either direction."""
    return ["%s %s: %.6g vs %.6g %s differ by more than %.3g"
            % (row["workload"], row["metric"], row["a_median"],
               row["b_median"], row["unit"], row["allowed_change"])
            for row in rows
            if abs(row["worse_by"]) > row["allowed_change"]]
