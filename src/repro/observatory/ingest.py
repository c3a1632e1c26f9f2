"""Incremental ingest: fold a checkpoint feed into the resolver store.

The feed is a campaign/fullstudy checkpoint directory (see
:class:`repro.checkpoint.CheckpointFeed`); the units worth folding are:

* **weekly snapshots** — commit keys ending ``("week", N)`` whose
  payload is a :class:`~repro.scanner.campaign.WeeklySnapshot`: its
  rows become per-resolver first/last-week, rcode, and flag updates
  (``delta:*`` carried rows keep their ``FLAG_CARRIED`` provenance
  bit), and its ``ScanResult`` is stored as that week, unchanged;
* **fingerprint study units** — ``("study", "fingerprint")``: CHAOS
  software outcomes and device classifications per resolver;
* **pipeline labeling stages** — ``("pipeline", <set>, "stage",
  "labeling")``: manipulation verdict labels per resolver.

Idempotence is the load-bearing invariant: every folded unit is
remembered as ``key -> payload digest`` in the store, so re-ingesting a
replayed journal span — same crash-resumed campaign, same directory
ingested twice, an observer polling a live run — folds nothing twice.
A unit whose payload *changed* (a re-committed key) replaces cleanly,
because week folding stores the new payload's result in place of the
old one rather than accumulating into it.
"""

import pickle
import time
import zlib

from repro.checkpoint.feed import CheckpointFeed, commits_of
from repro.checkpoint.formats import payload_kind, read_payload
from repro.netsim.address import int_to_ip, ip_to_int


class GeoSource:
    """Geography enrichment for ingest: ip -> (country, rir, asn).

    Wraps the scenario's GeoIP database and AS registry; the observatory
    caches the answer per resolver row, so each address is located once
    across the store's whole lifetime.
    """

    def __init__(self, geoip, as_registry):
        self.geoip = geoip
        self.as_registry = as_registry

    def locate(self, ip):
        return (self.geoip.country(ip), self.geoip.rir(ip),
                self.as_registry.asn_of(ip))


def scenario_geo(scenario):
    return GeoSource(scenario.geoip, scenario.as_registry)


class IngestReport:
    """What one ingest pass saw and did."""

    def __init__(self):
        self.units_seen = 0          # commit records encountered
        self.units_folded = 0        # units newly folded this pass
        self.units_skipped = 0       # already-ingested units (no-ops)
        self.weeks_folded = []
        self.fingerprints = 0
        self.verdicts = 0
        self.lag_records = 0         # journal records pending at start
        self.seconds = 0.0
        self.generation = None       # store generation after save

    def changed(self):
        return self.units_folded > 0

    def __repr__(self):
        return ("IngestReport(%d seen, %d folded, %d skipped, "
                "weeks=%r)" % (self.units_seen, self.units_folded,
                               self.units_skipped, self.weeks_folded))


def _payload_digest(payload):
    return "%08x" % zlib.crc32(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def ingest_checkpoint(store, directory, geo=None, perf=None,
                      tracer=None, save=True):
    """Fold every new unit of ``directory``'s journal into ``store``.

    One walk of the journal per pass gives both the lag and the new
    commits; records are a few hundred bytes (world state lives in its
    own snapshot), so a pass costs O(records) small decodes plus
    O(new units) snapshot loads.  Incremental and idempotent: the
    store's cursor for this feed skips journal records consumed by an
    earlier pass, and the per-unit digest ledger turns replayed spans
    (crash-resumed campaigns, a directory ingested twice) into
    recognized no-ops.  With ``save``
    (the default), a pass that folded anything commits a new store
    generation before returning.

    Returns an :class:`IngestReport`.
    """
    feed = CheckpointFeed(directory)
    report = IngestReport()
    started = time.perf_counter()
    feed_id = feed.identity()
    cursor = store.cursors.get(feed_id, 0)
    records = list(feed.records())
    report.lag_records = max(0, len(records) - cursor)

    def fold():
        last_seq = cursor - 1
        for seq, key, record in commits_of(records[cursor:]):
            last_seq = seq
            report.units_seen += 1
            _fold_unit(store, feed, key, record, geo, report)
        if last_seq >= cursor:
            store.cursors[feed_id] = last_seq + 1
        if store.meta.get("feed_meta") is None and feed.meta:
            store.meta["feed_meta"] = dict(feed.meta)
        if perf is not None:
            perf.count("observatory_units_folded", report.units_folded)
            perf.count("observatory_units_skipped",
                       report.units_skipped)
            perf.gauge("observatory_ingest_lag_records",
                       report.lag_records)
        if save and report.changed():
            report.generation = store.save()
        else:
            report.generation = store.generation

    if tracer is not None:
        with tracer.span("observatory_ingest", feed=feed_id,
                         cursor=cursor, lag=report.lag_records):
            fold()
    else:
        fold()
    report.seconds = time.perf_counter() - started
    if perf is not None:
        perf.record_seconds("observatory_ingest", report.seconds)
    return report


def _fold_of(key):
    """The fold for a unit the observatory keeps, or ``None``.  Each
    trusts the payload type :data:`~repro.checkpoint.formats.FORMATS`
    declares for its key kind (the feed's loader checked it)."""
    kind = payload_kind(key)
    if kind == "week":
        return _fold_week
    if kind == "study" and key[-1] == "fingerprint":
        return _fold_fingerprint
    if kind == "stage" and key[-1] == "labeling":
        return _fold_labeling
    return None


def _fold_unit(store, feed, key, record, geo, report):
    """Fold one commit record, if it is a unit the observatory keeps."""
    fold = _fold_of(key)
    if fold is None:
        return
    payload = feed.load_or_none(key)
    if payload is None:
        return    # snapshot missing/damaged: the owner will recommit it
    digest = _payload_digest(payload)
    ledger_key = "/".join(str(part) for part in key)
    if store.ingested.get(ledger_key) == digest:
        report.units_skipped += 1
        return
    # A payload its fold cannot read fails the pass, which saves nothing.
    read_payload(feed.snapshot_path(key), key,
                 lambda: fold(store, payload, geo, report))
    store.ingested[ledger_key] = digest
    report.units_folded += 1


def _fold_week(store, payload, geo, report):
    """Fold one WeeklySnapshot: its rows into the resolver records, in
    canonical (target, rcode, flags) order, then its result as the week."""
    week, result = payload.week, payload.result
    for value, rcode, row_flags in sorted(result.iter_rows()):
        store.observe(value, week, rcode, row_flags)
        if geo is not None and store.geo_of(value)[0] == "??":
            country, rir, asn = geo.locate(int_to_ip(value))
            store.locate(value, country, rir, asn)
    store.put_week(week, result)
    report.weeks_folded.append(week)


def _fold_fingerprint(store, payload, geo, report):
    """Fold the fingerprint study unit: software + device labels."""
    for observation in payload["software"]:
        store.set_software(ip_to_int(observation.resolver_ip),
                           observation.outcome, observation.version_string)
        report.fingerprints += 1
    for ip, (hardware, os_name, vendor) \
            in payload["classifications"].items():
        store.set_device(ip_to_int(ip), hardware, os_name, vendor)
        report.fingerprints += 1


def _fold_labeling(store, payload, geo, report):
    """Fold one domain set's manipulation verdicts per resolver (none
    for a stage that failed: its ``labeled`` is ``None``)."""
    for labeled in payload["labeled"] or ():
        store.add_verdict(ip_to_int(labeled.capture.resolver_ip),
                          labeled.label, labeled.sublabel)
        report.verdicts += 1
