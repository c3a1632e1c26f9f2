"""Benchmark-side spans: recorded around public calls, kept in memory.

The traced run times calls *into* the program from outside it — no
instrumentation is added under ``src/``.  Three sources feed one
:class:`Recorder`:

* ``with recorder.span(name)`` around a call the benchmark makes;
* :meth:`Recorder.wrap`, which shadows one public method on one object
  (``scenario.churn.step``, ``checkpoint.commit``) with a spanned
  version, so calls the program makes to it from inside are seen too;
* :class:`SpanningPerf`, a ``PerfRegistry`` handed in through the
  existing public ``perf=`` parameter whose ``stage()`` context manager
  (the pipeline's ``pipeline_*`` timers) also opens a span, and whose
  ``record_seconds("scan_wall", ...)`` entry closes one after the fact.

A layer's self time is its spans' duration minus the part their direct
children cover.  Spans are written out as JSONL when the run ends.
"""

import json
import time
from contextlib import contextmanager, nullcontext

from repro.perf import PerfRegistry

_NULL = nullcontext()


class NullRecorder:
    """Tracing off: every hook is a no-op, nothing is wrapped."""

    enabled = False

    def span(self, name):
        return _NULL

    def begin(self, name):
        pass

    def end(self):
        pass

    def wrap(self, owner, attribute, name):
        pass


class Recorder:
    """An in-memory span log for one workload run."""

    enabled = True

    def __init__(self, run_id):
        self.run_id = run_id
        # [id, name, start, end, parent] per span, id == list position.
        self.spans = []
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([len(self.spans), name, time.perf_counter(),
                           None, parent])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][3] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def add(self, name, start, end):
        """Record an already-finished interval under the open span
        (a timer entry reported after the fact), clipped to it."""
        parent = self._open[-1] if self._open else None
        if parent is not None:
            start = max(start, self.spans[parent][2])
        self.spans.append([len(self.spans), name, min(start, end), end,
                           parent])

    def wrap(self, owner, attribute, name):
        """Shadow ``owner.attribute`` (a bound public method) with a
        version that runs inside a span called ``name``."""
        inner = getattr(owner, attribute)

        def spanned(*args, **kwargs):
            self.begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.end()

        setattr(owner, attribute, spanned)

    # -- reading -----------------------------------------------------------

    def durations(self, name, under=None):
        """Durations of the finished spans called ``name`` (only those
        directly below a span called ``under``, when given)."""
        return [span[3] - span[2] for span in self.spans
                if span[1] == name and span[3] is not None
                and (under is None or (
                    span[4] is not None
                    and self.spans[span[4]][1] == under))]

    def total(self, name):
        return sum(self.durations(name))

    def records(self):
        return [{"run": self.run_id, "id": span[0], "name": span[1],
                 "start": span[2], "end": span[3], "parent": span[4]}
                for span in self.spans]

    def write(self, path, header):
        with open(path, "w") as handle:
            handle.write(json.dumps({"header": header},
                                    sort_keys=True) + "\n")
            for record in self.records():
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_spans(path):
    """``(header, [span record, ...])`` from a trace file."""
    header = None
    records = []
    with open(path) as handle:
        for line in handle:
            entry = json.loads(line)
            if "header" in entry:
                header = entry["header"]
            else:
                records.append(entry)
    return header, records


def self_times(records, root):
    """Per-layer budget under the span(s) named ``root``.

    Returns ``(wall, rows, unattributed)``: the root spans' total
    duration, ``{name: [self seconds, span count]}`` for every span
    below them, and the roots' own self time — the part of the wall no
    named layer accounts for.
    """
    children = {}
    for record in records:
        children.setdefault(record["parent"], []).append(record)
    roots = [record for record in records if record["name"] == root]
    if not roots:
        raise ValueError("no %r span recorded" % root)
    rows = {}

    def visit(record, is_root):
        duration = record["end"] - record["start"]
        covered = 0.0
        for child in children.get(record["id"], ()):
            covered += child["end"] - child["start"]
            visit(child, False)
        own = max(0.0, duration - covered)
        if not is_root:
            row = rows.setdefault(record["name"], [0.0, 0])
            row[0] += own
            row[1] += 1
        return own

    unattributed = sum(visit(record, True) for record in roots)
    wall = sum(record["end"] - record["start"] for record in roots)
    return wall, rows, unattributed


def budget_table(records, root):
    """The budget as sorted rows of plain dicts, plus its coverage."""
    wall, rows, unattributed = self_times(records, root)
    table = [{"layer": name, "self_s": seconds, "spans": count,
              "share": seconds / wall if wall else 0.0}
             for name, (seconds, count) in rows.items()]
    table.sort(key=lambda row: -row["self_s"])
    attributed = sum(row["self_s"] for row in table)
    return {"wall_s": wall, "rows": table,
            "unattributed_s": unattributed,
            "attributed_share": attributed / wall if wall else 0.0}


# Timers the program reports through ``record_seconds`` *after* the work
# finished; the entry becomes a closed span ending now.  Only timers of
# work that ran on the calling thread qualify (per-shard walls overlap).
_TIMER_SPANS = {"scan_wall": "ipv4scan.scan"}
# ``stage()`` timers become spans under the layer's own name.
_STAGE_SPANS = {
    "pipeline_domain_scan": "domainscan.scan",
    "pipeline_prefilter": "prefilter.process",
    "pipeline_ground_truth": "acquisition.ground_truth",
    "pipeline_acquisition": "acquisition.acquire",
    "pipeline_clustering": "clustering.cluster",
    "pipeline_labeling": "labeling.label",
}


def _accounted(method):
    """``method`` with its own seconds added to ``busy_seconds``."""
    def accounted(self, *args, **kwargs):
        started = time.perf_counter()
        method(self, *args, **kwargs)
        self.busy_seconds += time.perf_counter() - started
    return accounted


class SpanningPerf(PerfRegistry):
    """A ``PerfRegistry`` that mirrors its timers into a recorder and
    keeps account of the time spent inside the registry itself."""

    def __init__(self, recorder):
        super().__init__()
        self.recorder = recorder
        self.busy_seconds = 0.0

    @contextmanager
    def stage(self, name):
        self.recorder.begin(_STAGE_SPANS.get(name, name))
        try:
            with super().stage(name):
                yield self
        finally:
            self.recorder.end()

    def record_seconds(self, name, seconds):
        started = time.perf_counter()
        super().record_seconds(name, seconds)
        span_name = _TIMER_SPANS.get(name)
        if span_name is not None:
            self.recorder.add(span_name, started - seconds, started)
        self.busy_seconds += time.perf_counter() - started

    count = _accounted(PerfRegistry.count)
    observe = _accounted(PerfRegistry.observe)
    observe_many = _accounted(PerfRegistry.observe_many)
