"""The observatory's query plane: answers derived from the store alone.

Point lookups read straight off the store's columnar records (a dict
probe plus a dozen array reads — the millions-of-cheap-queries path).
Aggregates — the Table 1/2 fluctuation rankings, the Figure 2 survival
curve — are *not* re-implemented here: the store keeps each week as the
``ScanResult`` the campaign committed, and the real
:mod:`repro.analysis` functions run over those, wrapped in
``WeeklySnapshot`` exactly as the batch report wraps them.  Identity
with the batch ``fullstudy`` report is therefore structural, not
coincidental: same code, same inputs, byte-identical tables.

Every query is counted (``observatory_queries_served``) and timed into
a ``observatory_lookup_seconds`` / ``observatory_aggregate_seconds``
:class:`~repro.obs.hist.LogHistogram` when a perf registry is attached.
"""

import time
from collections import Counter

from repro.analysis.churn import churn_survival
from repro.analysis.geography import (
    country_fluctuation,
    rir_fluctuation,
)
from repro.netsim.address import Ipv4Network, ip_to_int
from repro.observatory.store import week_mode
from repro.scanner.campaign import WeeklySnapshot


class _StoreGeoView:
    """``GeoIpDatabase`` shape answered from the store's geo columns
    (``geo_of``: one row probe, no per-responder record dict)."""

    __slots__ = ("store",)

    def __init__(self, store):
        self.store = store

    def count_by_country(self, ips):
        geo_of = self.store.geo_of
        return Counter(geo_of(ip_to_int(ip))[0] for ip in ips)

    def count_by_rir(self, ips):
        geo_of = self.store.geo_of
        return Counter(geo_of(ip_to_int(ip))[1] for ip in ips)


class Observatory:
    """Query API over one :class:`~repro.observatory.store.ResolverStore`."""

    def __init__(self, store, perf=None, tracer=None):
        self.store = store
        self.perf = perf
        self.tracer = tracer
        self.geo = _StoreGeoView(store)

    # -- instrumentation ---------------------------------------------------

    def _served(self, histogram, started):
        if self.perf is not None:
            self.perf.count("observatory_queries_served")
            self.perf.observe(histogram,
                              time.perf_counter() - started)

    # -- point queries -----------------------------------------------------

    def lookup(self, ip):
        """One resolver's record (dict) or ``None`` — the hot path."""
        started = time.perf_counter()
        record = self.store.record(ip)
        self._served("observatory_lookup_seconds", started)
        return record

    def lookup_many(self, ips):
        record = self.store.record
        if self.perf is not None:
            started = time.perf_counter()
            records = [record(ip) for ip in ips]
            self.perf.count("observatory_queries_served", len(records))
            self.perf.observe("observatory_lookup_seconds",
                              time.perf_counter() - started)
            return records
        return [record(ip) for ip in ips]

    def resolvers_in(self, country=None, rir=None, asn=None,
                     verdict_label=None):
        """Secondary-index query: matching resolver IPs, ascending."""
        started = time.perf_counter()
        matches = self.store.rows_where(country=country, rir=rir,
                                        asn=asn,
                                        verdict_label=verdict_label)
        self._served("observatory_aggregate_seconds", started)
        return matches

    # -- weeks ---------------------------------------------------------------

    def snapshots(self):
        """Every stored week as a ``WeeklySnapshot``, ascending — the
        input :func:`repro.analysis.churn.churn_survival` takes."""
        return [WeeklySnapshot(week, self.store.week(week))
                for week in self.store.weeks()]

    def first_last(self):
        weeks = self.store.weeks()
        if not weeks:
            raise LookupError("observatory store holds no weeks yet")
        return self.store.week(weeks[0]), self.store.week(weeks[-1])

    # -- aggregates (Table 1 / Table 2 / Figure 2) -------------------------

    def country_rankings(self, top=10):
        """Table 1 rows + top-N share, from the store alone."""
        started = time.perf_counter()
        first, last = self.first_last()
        rows, top_share = country_fluctuation(first, last, self.geo,
                                              top=top)
        self._served("observatory_aggregate_seconds", started)
        return rows, top_share

    def rir_rankings(self):
        """Table 2 rows, from the store alone."""
        started = time.perf_counter()
        first, last = self.first_last()
        rows = rir_fluctuation(first, last, self.geo)
        self._served("observatory_aggregate_seconds", started)
        return rows

    def survival(self):
        """The Figure 2 cohort survival curve, from the store alone."""
        started = time.perf_counter()
        curve = churn_survival(self.snapshots())
        self._served("observatory_aggregate_seconds", started)
        return curve

    # -- churn timelines ---------------------------------------------------

    def timeline(self, prefix):
        """Week-by-week churn inside one CIDR prefix.

        Returns one dict per stored week: responder count within the
        prefix, arrivals (addresses not answering the previous stored
        week), departures, plus that week's scan mode and carried
        totals — the per-prefix drilldown behind the Figure 2 story.
        """
        started = time.perf_counter()
        network = (prefix if isinstance(prefix, Ipv4Network)
                   else Ipv4Network(prefix))
        rows = []
        previous = set()
        for week in self.store.weeks():
            result = self.store.week(week)
            inside = {value for value, __, __ in result.iter_rows()
                      if network.contains_int(value)}
            rows.append({
                "week": week,
                "responders": len(inside),
                "new": len(inside - previous),
                "gone": len(previous - inside),
                "mode": week_mode(result),
                "carried": result.carried_targets,
            })
            previous = inside
        self._served("observatory_aggregate_seconds", started)
        return rows

    # -- store facts -------------------------------------------------------

    def stats(self):
        """Store-level facts for /stats and the CLI summary line."""
        weeks = self.store.weeks()
        return {
            "resolvers": len(self.store),
            "weeks": len(weeks),
            "first_week": weeks[0] if weeks else None,
            "last_week": weeks[-1] if weeks else None,
            "generation": self.store.generation,
            "disk_bytes": self.store.disk_bytes(),
        }
