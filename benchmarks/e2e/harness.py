"""Shared plumbing: result header, statistics, child processes.

Every workload runs in a fresh child (``python -m benchmarks.e2e _child``)
so one workload's warm caches, heap and peak RSS never leak into the
next; the child prints its result as one JSON line on stdout.
"""

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
CHILD_TIMEOUT = 170          # seconds; the driver allows a run 180


# -- the common result header ------------------------------------------

def _commit():
    try:
        # Never look above the checkout for a repository.
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def header(seed, workload=None, params=None):
    """Who measured what, where: stamped on every output file."""
    nproc = os.cpu_count() or 1
    try:
        load_1m = os.getloadavg()[0]
    except OSError:
        load_1m = 0.0
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "load_1m_at_start": round(load_1m, 2),
        # A box already half busy cannot give this benchmark both cores.
        "noisy": load_1m > nproc / 2.0,
        "seed": seed,
        "workload": workload,
        "params": params,
    }


# -- statistics ---------------------------------------------------------

median = statistics.median


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(ordered, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def latency_summary(samples_ms):
    """Median plus the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples_ms)
    count = len(ordered)
    summary = {"samples": count, "p50_ms": percentile(ordered, 50),
               "tail_percentile": None, "tail_ms": None}
    for q in (99.9, 99, 95, 90):
        if count * (100 - q) / 100.0 >= 10:
            summary["tail_percentile"] = q
            summary["tail_ms"] = percentile(ordered, q)
            break
    return summary


# -- scratch space ------------------------------------------------------

def scratch_dir(label):
    """A private directory under ``out/`` (the run may write nowhere
    else); also made the process's temp dir, so the scan engine's spill
    store lands inside it too.  The caller removes it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix="tmp-%s-" % label, dir=OUT_DIR)
    tempfile.tempdir = path
    return path


def remove_scratch(path):
    tempfile.tempdir = None
    shutil.rmtree(path, ignore_errors=True)


# -- child processes ----------------------------------------------------

class WorkloadFailed(RuntimeError):
    """The child exited non-zero or printed no result."""


def run_child(workload, seed, seconds, traced=False, tiny=False):
    """Run one workload in a fresh interpreter; returns its result."""
    command = [sys.executable, "-m", "benchmarks.e2e", "_child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if traced:
        command.append("--traced")
    if tiny:
        command.append("--tiny")
    env = dict(os.environ)
    paths = [ROOT, os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Set and dict iteration order is an input too: the pipeline's work
    # (not its report) varies by a few percent with the string hash
    # seed, so it is derived from the workload seed like everything else.
    env["PYTHONHASHSEED"] = str(seed % (1 << 32))
    done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkloadFailed("%s (seed %d) exited %d"
                             % (workload, seed, done.returncode))
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise WorkloadFailed("%s (seed %d) printed no result"
                             % (workload, seed))


def run_traced_child(workload, seed, seconds, untraced_wall, tiny=False):
    """The traced run, with its overhead against an untraced wall."""
    result = run_child(workload, seed, seconds, traced=True, tiny=tiny)
    result["layers"]["bench.trace_overhead_share"] = (
        result["metrics"]["wall_s"] / untraced_wall - 1.0)
    return result
