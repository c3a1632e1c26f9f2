"""Simulated time.

All timestamps in the library are seconds on this clock; nothing reads the
wall clock, which keeps every run fully deterministic.  Campaign code
advances the clock by days or weeks between scans; the cache-snooping prober
advances it by minutes between probes so resolver-cache TTLs decay.
"""

SECOND = 1
MINUTE = 60
HOUR = 3600
DAY = 86400
WEEK = 7 * DAY


class SimClock:
    """A monotonically advancing simulated clock.

    ``now`` is a plain attribute, not a property: per-packet code (loss
    draws, middlebox activation checks) reads it millions of times per
    simulated week, and a property call there is measurable.  Mutate it
    only through the ``advance*`` methods.
    """

    def __init__(self, start=0.0):
        self.now = float(start)

    def advance(self, seconds):
        """Move time forward; negative advances are a programming error."""
        if seconds < 0:
            raise ValueError("cannot move the clock backwards (%r)" % seconds)
        self.now += seconds

    def __repr__(self):
        return "SimClock(now=%.1f)" % self.now
