"""The four workloads and the frame every one of them runs in.

A workload module exposes ``run(ctx)``: it builds its world from
``ctx.seed``, times its region, checks its outputs through
``ctx.checks``, fills ``ctx.layers`` when ``ctx.traced``, and returns
``{"metrics", "extras", "digest", "root"}``.  :func:`run_workload`
wraps that in the common result (header, failed share, peak RSS, the
per-layer budget) and writes the span file.
"""

import hashlib
import os
import resource
import sys
import time

from benchmarks.e2e import harness, spec
from benchmarks.e2e.harness import median
from benchmarks.e2e.recorder import (NullRecorder, Recorder, SpanningPerf,
                                     budget_table)


class Checks:
    """Correctness tally: operations attempted, operations failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []       # first few messages, for the report

    def tally(self, attempted, failed, what):
        """``failed`` of ``attempted`` like operations went wrong."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            if len(self.failures) < 20:
                self.failures.append("%s: %d of %d failed"
                                     % (what, failed, attempted))

    def check(self, ok, what):
        self.tally(1, 0 if ok else 1, what)


class Context:
    """What a workload is handed: its inputs and its instruments."""

    def __init__(self, name, seed, seconds, traced, tiny):
        entry = spec.workload(name)
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.params = dict(entry.params)
        if tiny:
            self.params.update(entry.tiny)
        self.checks = Checks()
        self.run_id = "%s-%d-%d" % (name, seed, os.getpid())
        self.rec = Recorder(self.run_id) if traced else NullRecorder()
        # Tracing off means the program gets no registry at all.
        self.perf = SpanningPerf(self.rec) if traced else None
        # Per-layer metrics (traced runs): name -> value, and for rates
        # the count and busy seconds behind them.
        self.layers = {}
        self.layer_detail = {}
        # The only place the run may write; also the process's temp dir.
        self.scratch = harness.scratch_dir(name)

    def layer_rate(self, name, count, busy_seconds):
        """Record a per-layer rate with its count and busy seconds."""
        self.layers[name] = rate(count, busy_seconds)
        self.layer_detail[name] = {"count": count, "busy_s": busy_seconds}


def digest_of(parts):
    """Canonical digest of an iterable of bytes/str parts."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part if isinstance(part, bytes)
                   else str(part).encode("utf-8"))
        sha.update(b"\x00")
    return sha.hexdigest()[:32]


def timed(function, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - start, result


def rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def peak_rss_mib():
    """Peak resident set of this process or any worker it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak = max(own, reaped)
    if sys.platform == "darwin":
        peak /= 1024.0
    return peak / 1024.0


def build_world(ctx, config):
    """Build the scenario under a ``scenario.build`` span; returns
    ``(scenario, build seconds, pool member count)``."""
    from repro.scenario import build_scenario
    with ctx.rec.span("scenario.build"):
        seconds, scenario = timed(build_scenario, config)
    return scenario, seconds, len(scenario.population.hosts)


def world_layers(ctx, build_seconds, members):
    """The per-layer metrics every workload can report of its world."""
    steps = ctx.rec.durations("churn.step")
    ctx.layers["scenario.build_s"] = build_seconds
    ctx.layer_rate("population.members_per_s", members, build_seconds)
    ctx.layers["churn.step_s"] = median(steps) if steps else 0.0


def _module(name):
    if name in spec.SWEEPS:
        from benchmarks.e2e.workloads import sweep
        return sweep
    if name == spec.STUDY:
        from benchmarks.e2e.workloads import study
        return study
    from benchmarks.e2e.workloads import observe
    return observe


def run_workload(name, seed, seconds, traced=False, tiny=False):
    """Run one workload in this process; returns the common result."""
    ctx = Context(name, seed, seconds, traced, tiny)
    head = harness.header(seed, name, ctx.params)
    try:
        outcome = _module(name).run(ctx)
    finally:
        harness.remove_scratch(ctx.scratch)
    checks = ctx.checks
    metrics = dict(outcome["metrics"])
    metrics["peak_rss_mib"] = peak_rss_mib()
    metrics["failed_share"] = (checks.failed / checks.attempted
                               if checks.attempted else 1.0)
    result = {
        "header": head,
        "workload": name,
        "traced": traced,
        "metrics": metrics,
        "extras": outcome.get("extras", {}),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "result_digest": outcome["digest"],
    }
    if traced:
        layers = {layer.name: 0.0 for layer in spec.PER_LAYER}
        layers.update(ctx.layers)
        layers["perf.registry_overhead_share"] = rate(
            ctx.perf.busy_seconds, metrics["wall_s"])
        result["layers"] = layers
        result["layer_detail"] = ctx.layer_detail
        records = ctx.rec.records()
        result["budget"] = budget_table(records, outcome["root"])
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        trace_path = os.path.join(harness.OUT_DIR,
                                  "trace-%s.jsonl" % name)
        ctx.rec.write(trace_path, dict(head, root=outcome["root"],
                                       run=ctx.run_id))
        result["trace_file"] = os.path.relpath(trace_path, harness.ROOT)
    return result
