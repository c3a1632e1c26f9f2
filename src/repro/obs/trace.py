"""Span tracing for the scan/classify stack.

A :class:`Tracer` hands out lightweight spans — plain dicts with a
``trace_id``/``span_id``/``parent_id`` triple, a stage name, free-form
attributes, and both wall-clock and simulated-clock durations — through
a context-manager API::

    with tracer.span("scan", shards=4):
        with tracer.span("shard", start=0, stop=512):
            ...

Spans nest via an explicit stack, so parentage needs no thread-locals
and survives ``os.fork``: a shard worker inherits the parent's tracer
copy-on-write with the enclosing span still on the stack, calls
:meth:`Tracer.rebase` to start a fresh (uniquely prefixed) span
namespace, and ships its finished spans back over the result pipe where
the supervisor merges them in deterministic shard order.

Span ids are sequential within a tracer (``s1``, ``s2``, ...; worker
tracers prefix theirs ``w<origin>.<attempt>:``), never random — the
whole trace is reproducible for a fixed seed, modulo wall-clock
durations.  The trace id itself is stamped at export time, so a
checkpoint resume that :meth:`adopt`\\ s the interrupted run's trace
context retroactively places every span of the resumed process into the
original trace.

Disabled tracing is represented by *no tracer at all* (``network.tracer
is None``); instrumentation points open their spans through
:func:`span`, which hands back a no-op context then, so a traced and an
untraced run execute the same statement.
"""

import time
from contextlib import contextmanager, nullcontext


def _new_trace_id(seed=None):
    """A 16-hex-digit trace id (seed-derived when one is given)."""
    if seed is not None:
        return "%016x" % ((seed * 0x9E3779B97F4A7C15) & ((1 << 64) - 1))
    import os
    return os.urandom(8).hex()


def span(network, stage, **attrs):
    """A span on ``network``'s tracer; a no-op context without one."""
    tracer = network.tracer
    if tracer is None:
        return nullcontext()
    return tracer.span(stage, **attrs)


class Tracer:
    """Creates, nests, and collects spans for one run."""

    def __init__(self, clock=None, trace_id=None, seed=None, prefix="s"):
        self.clock = clock
        self.trace_id = trace_id or _new_trace_id(seed)
        self.prefix = prefix
        self.seq = 0
        self.stack = []               # active span ids, innermost last
        self.spans = []               # finished span dicts
        self._origin = time.perf_counter()

    # -- span API ---------------------------------------------------------

    @contextmanager
    def span(self, stage, **attrs):
        """Open one span; yields the (mutable) span dict."""
        self.seq += 1
        span = {
            "span_id": "%s%d" % (self.prefix, self.seq),
            "parent_id": self.stack[-1] if self.stack else None,
            "stage": stage,
            "attrs": attrs,
            "wall_start": time.perf_counter() - self._origin,
            "wall_seconds": None,
            "sim_start": self.clock.now if self.clock is not None else None,
            "sim_seconds": None,
            "status": "ok",
        }
        self.stack.append(span["span_id"])
        try:
            yield span
        except BaseException:
            span["status"] = "error"
            raise
        finally:
            self.stack.pop()
            span["wall_seconds"] = (time.perf_counter() - self._origin
                                    - span["wall_start"])
            if self.clock is not None and span["sim_start"] is not None:
                span["sim_seconds"] = self.clock.now - span["sim_start"]
            self.spans.append(span)

    def emit(self, stage, parent_id=None, **attrs):
        """Record one instantaneous (zero-duration) span."""
        with self.span(stage, **attrs) as span:
            if parent_id is not None:
                span["parent_id"] = parent_id
        return self.spans[-1]

    @property
    def active_span_id(self):
        return self.stack[-1] if self.stack else None

    # -- fork-worker transport --------------------------------------------

    def rebase(self, prefix):
        """Re-namespace this tracer for a forked worker: fresh span list
        and a unique id prefix, keeping the inherited active stack so
        new spans still parent under the span open at fork time."""
        self.prefix = prefix
        self.seq = 0
        self.spans = []

    def absorb(self, spans, parent_id=None):
        """Merge spans shipped back from a worker (or restored from a
        checkpoint).  Root spans (parent absent from the batch) are
        re-parented under ``parent_id`` (default: the current active
        span), stitching the worker's subtree into this trace."""
        if not spans:
            return
        if parent_id is None:
            parent_id = self.active_span_id
        local_ids = {span["span_id"] for span in spans}
        for span in spans:
            if span["parent_id"] is not None \
                    and span["parent_id"] not in local_ids:
                span = dict(span)
                span["parent_id"] = parent_id
            self.spans.append(span)

    # -- checkpoint resume ------------------------------------------------

    def context(self):
        """The durable trace context captured at a commit boundary."""
        return {"trace_id": self.trace_id, "seq": self.seq}

    def adopt(self, context):
        """Continue an interrupted run's trace: same trace id, span
        sequence resumed past the captured position."""
        if not context:
            return
        self.trace_id = context["trace_id"]
        if context.get("seq", 0) > self.seq:
            self.seq = context["seq"]

    def __repr__(self):
        return "Tracer(%s, %d spans, depth %d)" % (
            self.trace_id, len(self.spans), len(self.stack))
