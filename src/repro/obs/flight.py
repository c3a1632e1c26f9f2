"""The packet flight recorder: a bounded ring of wire-level events.

Every UDP probe the simulated network carries can be recorded as a
compact tuple — sent, answered, or lost — and every *lost* probe names
the exact cause that ate it: a middlebox path drop, the baseline loss
draw, or a specific fault rule from :mod:`repro.faults` (``fault:``
prefix, e.g. ``fault:burst_loss``, ``fault:rate_limited``).  That is
the attribution ZDNS-style per-query status output provides and flat
counters cannot: *which* rule, on *which* flow.

The buffer is a ``collections.deque`` ring bounded by ``capacity`` —
memory stays fixed no matter how long a campaign runs — while the
per-cause tallies in :attr:`cause_counts` and the event-kind tallies in
:attr:`event_counts` stay exact even after the ring has wrapped.

Events are tuples, not objects: ``(sim_time, event, src_ip, dst,
cause, latency)`` where ``dst`` may be an integer address (the
scanner's wire-level fast path never builds the dotted quad) and is
normalised at export time.  A disabled recorder is ``None`` on the
network; the hot path pays one attribute test and allocates nothing.
"""

from repro.netsim.address import int_to_ip

# Event kinds.
SENT = "sent"
ANSWERED = "answered"
LOST = "lost"                 # query never reached the destination
RESPONSE_LOST = "response_lost"   # answered, but the reply was dropped
CORRUPTED = "corrupted"       # delivered with a damaged payload
TRUNCATED = "truncated"       # delivered truncated below parseability
SUPPRESSED = "suppressed"     # never sent: pacing gave the window up
DELTA = "delta"               # delta-scan decision (carried/escalated)

EVENT_KINDS = (SENT, ANSWERED, LOST, RESPONSE_LOST, CORRUPTED,
               TRUNCATED, SUPPRESSED, DELTA)

# Drop causes are free-form strings; fault-rule attributions carry this
# prefix so "100% of injected losses are attributed" is checkable.
FAULT_CAUSE_PREFIX = "fault:"
# Defensive-middlebox attributions (rate limiters, blocklisters,
# tarpits — see repro.netsim.defense) carry this prefix.
DEFENSE_CAUSE_PREFIX = "defense:"
# Delta-scanning attributions (verdicts carried forward, audit drift,
# window/global full-sweep escalations — see repro.scanner.delta)
# carry this prefix, so "every unprobed verdict is attributed" is as
# checkable as loss attribution.
DELTA_CAUSE_PREFIX = "delta:"

DEFAULT_CAPACITY = 65536


class FlightRecorder:
    """Bounded ring buffer of wire-level probe events with exact tallies."""

    __slots__ = ("capacity", "events", "cause_counts", "event_counts",
                 "dropped_events")

    def __init__(self, capacity=DEFAULT_CAPACITY):
        from collections import deque
        self.capacity = capacity
        self.events = deque(maxlen=capacity)
        self.cause_counts = {}        # cause -> count (losses only)
        self.event_counts = {}        # event kind -> count
        self.dropped_events = 0       # ring overwrites (len pushed out)

    # -- recording (the network hot path calls this) ----------------------

    def record(self, now, event, src_ip, dst, cause=None, latency=None):
        events = self.events
        if len(events) == self.capacity:
            self.dropped_events += 1
        events.append((now, event, src_ip, dst, cause, latency))
        counts = self.event_counts
        counts[event] = counts.get(event, 0) + 1
        if cause is not None:
            causes = self.cause_counts
            causes[cause] = causes.get(cause, 0) + 1

    # -- fork-worker transport --------------------------------------------

    def reset(self):
        """Clear the buffer and tallies (a forked worker's first act, so
        only shard-local events ride back over the result pipe)."""
        self.events.clear()
        self.cause_counts = {}
        self.event_counts = {}
        self.dropped_events = 0

    def export_events(self):
        """The buffered events as a picklable list."""
        return list(self.events)

    def export_state(self):
        """Events *and* exact tallies, for the result-pipe payload (the
        tallies survive ring eviction; replaying events alone would not)."""
        return {"events": list(self.events),
                "event_counts": dict(self.event_counts),
                "cause_counts": dict(self.cause_counts),
                "dropped_events": self.dropped_events}

    def absorb(self, events):
        """Merge a worker's (or a restored shard's) event batch."""
        for event in events:
            self.record(*event)

    def absorb_state(self, state):
        """Merge an :meth:`export_state` payload: events ride into the
        ring, tallies add exactly (never recounted from the ring)."""
        events = self.events
        for event in state["events"]:
            if len(events) == self.capacity:
                self.dropped_events += 1
            events.append(tuple(event))
        for kind, count in state["event_counts"].items():
            self.event_counts[kind] = self.event_counts.get(kind, 0) + count
        for cause, count in state["cause_counts"].items():
            self.cause_counts[cause] = self.cause_counts.get(cause, 0) + count
        self.dropped_events += state["dropped_events"]

    # -- views ------------------------------------------------------------

    def drop_breakdown(self):
        """``{cause: count}`` over every recorded loss, exact."""
        return dict(self.cause_counts)

    @staticmethod
    def event_dict(event):
        """One buffered tuple as the exported JSONL dict."""
        now, kind, src_ip, dst, cause, latency = event
        if isinstance(dst, int):
            dst = int_to_ip(dst)
        return {"type": "flight", "t": now, "event": kind, "src": src_ip,
                "dst": dst, "cause": cause, "latency": latency}

    def __repr__(self):
        return "FlightRecorder(%d/%d events, %d causes)" % (
            len(self.events), self.capacity, len(self.cause_counts))
