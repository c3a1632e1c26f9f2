"""The side-effect ledger: what one piece of work did to the world.

:mod:`repro.checkpoint.state` records world state *absolutely*, at a
commit boundary.  A :class:`Ledger` records it as a *delta* around one
piece of work done apart from the parent — a forked shard worker whose
writes die with its process, an in-process rescue, a scan whose fault
tallies are flushed to the perf report — and :func:`apply_delta` folds
such a delta into a parent (or, on resume, a rebuilt) world.  The delta
is also the shard unit's commit payload, minus its ``result`` and
``provenance``, so worker, rescue and restored shards share one shape:

``net_counters``    per-name increase of :data:`NET_COUNTERS`
``fault_counters``  per-name increase of ``network.fault_counters``
``perf``            a :class:`PerfRegistry` holding only this work's
                    numbers (``None`` when the host has no registry)
``wall_seconds``    wall-clock duration of the work
``spans``           trace spans finished during the work
``flight``          flight-recorder state (shard-local recorders only)
"""

import time

from repro.perf import PerfRegistry

# The network's cumulative traffic counters: reconciled from workers as
# deltas here, captured and restored absolutely by ``state``.
NET_COUNTERS = ("udp_queries_sent", "udp_queries_lost",
                "udp_responses_corrupted")


def net_counters(network):
    """The network's :data:`NET_COUNTERS`, by name."""
    return {name: getattr(network, name) for name in NET_COUNTERS}


class Ledger:
    """Marks the world when constructed; :meth:`delta` reads it back.

    ``host`` is the object (a scanner) whose ``perf`` registry the work
    writes to.  It is swapped for a fresh registry until :meth:`delta`,
    so the delta carries timers, histograms and gauges as well as
    counters — and, in a forked worker, never the pre-fork totals the
    inherited copy-on-write registry holds.
    """

    def __init__(self, network, host=None):
        self.network = network
        self.host = host
        self.host_perf = host.perf if host is not None else None
        if self.host_perf is not None:
            host.perf = PerfRegistry()
        self.net = net_counters(network)
        self.faults = dict(network.fault_counters)
        tracer = network.tracer
        self.spans = len(tracer.spans) if tracer is not None else 0
        self.started = time.perf_counter()

    def fault_delta(self):
        """Fault counters that moved since the mark, by how much."""
        before = self.faults
        return {name: value - before.get(name, 0)
                for name, value in self.network.fault_counters.items()
                if value != before.get(name, 0)}

    def delta(self, shard_local=False):
        """Everything the work did since the mark; reinstates the
        host's own registry.  ``shard_local`` says the flight recorder
        was reset at the mark (a forked worker), so its whole state
        belongs to this work and rides along."""
        wall = time.perf_counter() - self.started
        network = self.network
        perf = None
        if self.host_perf is not None:
            perf, self.host.perf = self.host.perf, self.host_perf
        tracer, recorder = network.tracer, network.recorder
        return {
            "wall_seconds": wall,
            "net_counters": {name: value - self.net[name] for name, value
                             in net_counters(network).items()},
            "fault_counters": self.fault_delta(),
            "perf": perf,
            "spans": (tracer.spans[self.spans:]
                      if tracer is not None else None),
            "flight": (recorder.export_state()
                       if shard_local and recorder is not None else None),
        }


def apply_delta(network, perf, delta, origin, in_process=False):
    """Fold one :meth:`Ledger.delta` into ``network`` and ``perf``.

    ``in_process`` work already moved the live network's counters and
    instruments; only its perf registry (swapped out while it ran) is
    still owed.  ``origin`` ranks the merged gauges, so shards landing
    in any order leave identical registry state.
    """
    if not in_process:
        for name, amount in delta["net_counters"].items():
            setattr(network, name, getattr(network, name) + amount)
        fault_counters = network.fault_counters
        for name, amount in delta["fault_counters"].items():
            fault_counters[name] = fault_counters.get(name, 0) + amount
        if network.tracer is not None and delta["spans"]:
            network.tracer.absorb(delta["spans"])
        if network.recorder is not None and delta["flight"]:
            network.recorder.absorb_state(delta["flight"])
    if perf is None:
        return
    perf.record_seconds("shard_wall", delta["wall_seconds"])
    perf.observe("shard_wall_seconds", delta["wall_seconds"])
    if delta["perf"] is not None:
        perf.merge(delta["perf"], rank=origin)
