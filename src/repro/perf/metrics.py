"""Throughput counters, stage timers, and latency histograms.

The scan engine, campaigns, and the classification pipeline all report
through a :class:`PerfRegistry`: plain monotonically increasing counters
(probes sent, parse calls avoided), named wall-clock timers (scan
duration, per-shard wall time, pipeline stage durations), last-value
gauges, and log-bucketed latency histograms.  Registries are cheap
dictionaries — hot loops accumulate into local variables and flush once
per scan, so instrumentation never shows up in a profile.

Shard registries merge back into the supervisor's registry.  Counters,
timers, and histograms merge exactly (commutative sums), but a bare
"last value wins" gauge would make the merged value depend on shard
*completion* order, which is nondeterministic.  Gauges therefore carry a
declared merge policy (:meth:`PerfRegistry.declare_gauge`): ``last``
keeps the value from the highest shard index, ``max`` the largest —
both order-independent, since :meth:`merge` is always told the shard's
index (``rank``).  An undeclared gauge merges as ``last``.
"""

import sys
import time
from contextlib import contextmanager

from repro.obs.hist import LogHistogram

GAUGE_POLICIES = ("last", "max")


def sample_ru_maxrss_kb():
    """Peak resident set size of this process in KiB (0 if unsupported).

    Backed by ``getrusage(RUSAGE_SELF).ru_maxrss`` — the kernel-tracked
    high-water mark, so a single sample at the end of a shard captures
    the worker's true peak without any polling thread.  Linux reports
    KiB; macOS reports bytes and is normalised here.
    """
    try:
        import resource
    except ImportError:          # non-POSIX: no rusage, gauge stays 0
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


class PerfRegistry:
    """Named counters, timers, gauges, and histograms, mergeable across
    shards and stages."""

    def __init__(self):
        self.counters = {}
        self.timers = {}          # name -> [total_seconds, entry_count]
        self.gauges = {}          # name -> current value
        self.histograms = {}      # name -> LogHistogram
        self.gauge_policies = {}  # name -> declared merge policy
        self._gauge_ranks = {}    # name -> shard index of current value
        # Derived rates printed by format_report: name -> [counter, timer].
        self.rates = {"probes_per_sec": ["probes_sent", "scan_wall"]}

    # -- counters ---------------------------------------------------------

    def count(self, name, amount=1):
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name):
        return self.counters.get(name, 0)

    # -- gauges -----------------------------------------------------------

    def declare_gauge(self, name, policy="last"):
        """Declare how the gauge ``name`` reduces across shard merges."""
        if policy not in GAUGE_POLICIES:
            raise ValueError("unknown gauge policy %r (want one of %s)"
                             % (policy, ", ".join(GAUGE_POLICIES)))
        self.gauge_policies[name] = policy

    def gauge(self, name, value):
        """Set the gauge ``name`` (rates, ratios, sizes) — unlike
        counters these overwrite rather than accumulate."""
        self.gauges[name] = value

    def gauge_value(self, name, default=0.0):
        return self.gauges.get(name, default)

    # -- timers -----------------------------------------------------------

    def record_seconds(self, name, seconds):
        """Record one timed entry of ``seconds`` under ``name``."""
        entry = self.timers.get(name)
        if entry is None:
            self.timers[name] = [seconds, 1]
        else:
            entry[0] += seconds
            entry[1] += 1

    @contextmanager
    def stage(self, name):
        """Context manager timing one pipeline/scan stage."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.record_seconds(name, time.perf_counter() - start)

    def seconds(self, name):
        entry = self.timers.get(name)
        return entry[0] if entry else 0.0

    # -- histograms -------------------------------------------------------

    def histogram(self, name):
        """The named :class:`LogHistogram`, created on first use."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = LogHistogram()
        return histogram

    def observe(self, name, value):
        """Record one latency sample (seconds) into histogram ``name``."""
        self.histogram(name).observe(value)

    def observe_many(self, name, values):
        """Flush a batch of latency samples into histogram ``name``."""
        if values:
            self.histogram(name).observe_many(values)

    # -- derived rates ----------------------------------------------------

    def declare_rate(self, name, counter_name, timer_name):
        """Declare a derived counter-per-timer-second rate for reports
        (e.g. pipeline QPS from a stage counter and its stage timer)."""
        self.rates[name] = [counter_name, timer_name]

    def rate(self, counter_name, timer_name):
        """Counter per second of timer, e.g. probes/sec (0.0 if untimed)."""
        elapsed = self.seconds(timer_name)
        if elapsed <= 0:
            return 0.0
        return self.counters.get(counter_name, 0) / elapsed

    # -- aggregation ------------------------------------------------------

    def merge(self, other, rank):
        """Fold another registry (e.g. a shard's) into this one.

        ``rank`` is the contributing shard's index: gauges reduce by it
        order-independently (merging shard registries in any completion
        order yields bit-identical state).
        """
        for name, amount in other.counters.items():
            self.count(name, amount)
        for name, (total, entries) in other.timers.items():
            entry = self.timers.get(name)
            if entry is None:
                self.timers[name] = [total, entries]
            else:
                entry[0] += total
                entry[1] += entries
        for name, histogram in other.histograms.items():
            self.histogram(name).merge(histogram)
        for name, policy in other.gauge_policies.items():
            self.gauge_policies.setdefault(name, policy)
        for name, value in other.gauges.items():
            self._merge_gauge(name, value, other, rank)
        return self

    def _merge_gauge(self, name, value, other, rank):
        if self.gauge_policies.get(name) == "max":
            if name not in self.gauges or value > self.gauges[name]:
                self.gauges[name] = value
            return
        incoming = other._gauge_ranks.get(name, rank)
        current = self._gauge_ranks.get(name)
        if name not in self.gauges or current is None \
                or incoming >= current:
            self.gauges[name] = value
            self._gauge_ranks[name] = incoming

    def snapshot(self):
        """A plain-dict view, suitable for ``json.dump``."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "gauge_policies": dict(self.gauge_policies),
            "gauge_ranks": dict(self._gauge_ranks),
            "timers": {name: {"seconds": total, "entries": entries}
                       for name, (total, entries) in self.timers.items()},
            "histograms": {name: histogram.snapshot()
                           for name, histogram
                           in sorted(self.histograms.items())},
            "rates": {name: list(pair)
                      for name, pair in self.rates.items()},
        }

    def restore(self, snapshot):
        """Replace this registry's contents from a :meth:`snapshot` dict.

        Used by checkpoint resume to rewind the registry to exactly the
        state recorded at a committed unit-of-work boundary.
        """
        self.counters = dict(snapshot["counters"])
        self.gauges = dict(snapshot["gauges"])
        self.gauge_policies = dict(snapshot["gauge_policies"])
        self._gauge_ranks = dict(snapshot["gauge_ranks"])
        self.timers = {name: [entry["seconds"], entry["entries"]]
                       for name, entry in snapshot["timers"].items()}
        self.histograms = {name: LogHistogram.restore(data)
                           for name, data
                           in snapshot["histograms"].items()}
        self.rates = {name: list(pair)
                      for name, pair in snapshot["rates"].items()}
        return self

    def format_report(self, title="perf"):
        """A human-readable multi-line summary."""
        lines = ["[%s]" % title]
        for name in sorted(self.counters):
            lines.append("  %-28s %d" % (name, self.counters[name]))
        for name in sorted(self.gauges):
            lines.append("  %-28s %.2f" % (name, self.gauges[name]))
        for name in sorted(self.timers):
            total, entries = self.timers[name]
            lines.append("  %-28s %.3fs (%d entries)"
                         % (name, total, entries))
        for name in sorted(self.histograms):
            lines.append("  %-28s %s"
                         % (name, self.histograms[name].format_summary()))
        for name in sorted(self.rates):
            counter_name, timer_name = self.rates[name]
            if self.counters.get(counter_name) \
                    and self.seconds(timer_name) > 0:
                lines.append("  %-28s %.0f"
                             % (name, self.rate(counter_name, timer_name)))
        return "\n".join(lines)

    def __repr__(self):
        return "PerfRegistry(%d counters, %d timers, %d histograms)" % (
            len(self.counters), len(self.timers), len(self.histograms))
