"""The resolver knowledge store: columnar records, versioned on disk.

One :class:`ResolverStore` holds everything the observatory knows about
every resolver ever seen across a campaign's weekly scans, in the same
structure-of-arrays idiom as :class:`~repro.scanner.ipv4scan.ScanResult`:
per-resolver facts live in parallel arrays indexed by a dense row
number (``ip -> row`` through one dict).  Each week is the
:class:`~repro.scanner.ipv4scan.ScanResult` the campaign committed,
kept as it was recorded and spilled to its own payload, so memory stays
bounded by the week cache, not the campaign length.

On-disk layout (``store_dir``)::

    MANIFEST.json        format + generation + cursors + week digests
    gen-00000007/
        records.snap     per-resolver SoA columns (checksummed pickle)
        week-00003.snap  week 3's ScanResult, in the checkpoint's bytes

Persistence is *generational*: :meth:`save` writes a complete new
``gen-N`` directory (unchanged week payloads are hard-linked from the
previous generation, falling back to a copy), fsyncs it, then atomically
replaces ``MANIFEST.json`` — the same durable-replace discipline as
:mod:`repro.checkpoint.store` — and only then removes older
generations.  A reader that opens the store mid-swap sees either the
old complete generation or the new complete generation, never a mix.

Idempotence bookkeeping lives *in* the store: ``ingested`` maps each
folded unit key to the digest of the payload it folded, and ``cursors``
maps each feed identity to the journal sequence consumed so far.  Both
ride the records snapshot/manifest, so replayed journal spans are
recognized as no-ops across process restarts.
"""

import json
import os
import shutil
import zlib
from array import array

from repro.checkpoint.formats import FORMATS, check_type
from repro.checkpoint.store import (
    CheckpointError,
    atomic_write_text,
    encode_snapshot,
    fsync_directory,
    load_snapshot,
)
from repro.dnswire.constants import (
    RCODE_NOERROR,
    RCODE_REFUSED,
    RCODE_SERVFAIL,
)
from repro.netsim.address import int_to_ip, ip_to_int

_FORMAT = FORMATS["manifest"]["version"]
_NO_WEEK = -1

# The per-resolver SoA columns, one row per distinct resolver IP:
# (name, array typecode — None for a list of python ints, value of a
# new row — None for the resolver's own address).
_RECORD_COLUMNS = (
    ("ips", "I", None),
    ("first_week", "i", _NO_WEEK),
    ("last_week", "i", _NO_WEEK),
    ("weeks_mask", None, 0),         # python ints: unbounded weeks
    ("last_rcode", "B", 0),
    ("flags", "B", 0),               # OR of observed row flags
    ("country", "H", 0),             # code into the geo table
    ("asn", "I", 0),                 # 0 = unknown
    ("software", "H", 0),            # 0 = never fingerprinted
    ("device", "H", 0),              # 0 = never classified
    ("verdict", "H", 0),             # 0 = never judged
)

_RCODE_NAMES = {RCODE_NOERROR: "noerror", RCODE_REFUSED: "refused",
                RCODE_SERVFAIL: "servfail"}


class ObservatoryError(CheckpointError):
    """A store directory cannot be used as requested, or one of its
    files is not in the format this program reads (the store keeps its
    files with the checkpoint package's codec and atomic writes)."""


def week_mode(result):
    """``"delta"`` for a week the delta scanner assembled from carried
    verdicts, ``"full"`` for a swept one."""
    for entry in result.provenance:
        if entry.get("kind") == "delta" and entry.get("status") == "ok":
            return entry.get("mode", "delta")
    return "full"


def _week_digest(week, result):
    """Content digest of one stored week: a JSON summary, then the
    sorted unique responders, then the sorted unique NOERROR responders.

    It must stay equal, bit for bit, to the digest format 1 stored: the
    week digests feed :meth:`ResolverStore.digest`, which a store
    re-ingested from the same checkpoint directory must reproduce."""
    by_rcode = {}
    for value, rcode, __ in result.iter_rows():
        by_rcode.setdefault(rcode, set()).add(value)
    counts = {name: len(by_rcode.get(rcode, ()))
              for rcode, name in _RCODE_NAMES.items()}
    counts["other"] = len(set().union(
        *(values for rcode, values in by_rcode.items()
          if rcode not in _RCODE_NAMES)))
    summary = json.dumps(
        [week, result.probes_sent, result.carried_targets,
         result.suppressed_targets, week_mode(result),
         sorted(counts.items())], sort_keys=True)
    crc = zlib.crc32(summary.encode("utf-8"))
    for values in (set().union(*by_rcode.values()),
                   by_rcode.get(RCODE_NOERROR, ())):
        crc = zlib.crc32(array("I", sorted(values)).tobytes(), crc)
    return "%08x" % crc


class _StringTable:
    """Interned string -> small integer code, round-trippable."""

    def __init__(self, values=()):
        self.values = list(values)
        self._codes = {value: code
                       for code, value in enumerate(self.values)}

    def code(self, value):
        code = self._codes.get(value)
        if code is None:
            code = self._codes[value] = len(self.values)
            self.values.append(value)
        return code

    def value(self, code):
        return self.values[code]


class ResolverStore:
    """Columnar per-resolver records plus spillable weekly results."""

    def __init__(self, directory=None, week_cache=8):
        if week_cache < 1:
            raise ValueError("week_cache must be >= 1")
        self.directory = directory
        self.week_cache = week_cache
        self.generation = 0
        self._rows = {}                  # ip int -> row index
        for name, typecode, __ in _RECORD_COLUMNS:
            setattr(self, "_" + name,
                    [] if typecode is None else array(typecode))
        self._geo_table = _StringTable([("??", "???")])
        self._label_table = _StringTable([""])
        # Weeks: resident results + manifest-known week digests.
        self._weeks = {}                 # week -> ScanResult (resident)
        self._week_digests = {}          # week -> digest (all known weeks)
        self._week_lru = []              # residency order, oldest first
        self._dirty_weeks = set()
        # Idempotence bookkeeping (persisted with the records).
        self.ingested = {}               # key string -> payload digest
        self.cursors = {}                # feed identity -> seq consumed
        self.meta = {}                   # ingest-provided run facts

    # -- per-resolver records ----------------------------------------------

    def __len__(self):
        return len(self._ips)

    def _row_for(self, value):
        row = self._rows.get(value)
        if row is None:
            row = self._rows[value] = len(self._ips)
            for name, __, new in _RECORD_COLUMNS:
                getattr(self, "_" + name).append(
                    value if new is None else new)
        return row

    def observe(self, value, week, rcode, flags):
        """Fold one scan row (target int, week, rcode, flags)."""
        row = self._row_for(value)
        if self._first_week[row] == _NO_WEEK \
                or week < self._first_week[row]:
            self._first_week[row] = week
        if week >= self._last_week[row]:
            self._last_week[row] = week
            self._last_rcode[row] = rcode
        self._weeks_mask[row] |= 1 << week
        self._flags[row] |= flags
        return row

    def locate(self, value, country, rir, asn):
        """Attach geography to a resolver (first sighting wins — the
        prefix -> AS mapping is static in this world)."""
        row = self._row_for(value)
        if self._country[row] == 0:
            self._country[row] = self._geo_table.code((country, rir))
            self._asn[row] = asn or 0

    def set_software(self, value, outcome, version):
        row = self._row_for(value)
        self._software[row] = self._label_table.code(
            "%s|%s" % (outcome, version or ""))

    def set_device(self, value, hardware, os_name, vendor):
        row = self._row_for(value)
        self._device[row] = self._label_table.code(
            "%s|%s|%s" % (hardware or "", os_name or "", vendor or ""))

    def add_verdict(self, value, label, sublabel):
        """Fold one manipulation label; verdicts accumulate as a sorted
        ``;``-joined set so fold order never changes the stored code."""
        row = self._row_for(value)
        entry = "%s/%s" % (label, sublabel or "")
        existing = self._label_table.value(self._verdict[row])
        labels = set(existing.split(";")) if existing else set()
        labels.add(entry)
        self._verdict[row] = self._label_table.code(
            ";".join(sorted(labels)))

    def record(self, ip):
        """Point lookup: one resolver's full record, or ``None``."""
        value = ip_to_int(ip) if isinstance(ip, str) else ip
        row = self._rows.get(value)
        if row is None:
            return None
        country, rir = self._geo_table.value(self._country[row])
        mask = self._weeks_mask[row]
        software = self._label_table.value(self._software[row])
        device = self._label_table.value(self._device[row])
        verdict = self._label_table.value(self._verdict[row])
        record = {
            "ip": int_to_ip(value),
            "first_week": self._first_week[row],
            "last_week": self._last_week[row],
            "weeks_seen": [week for week in range(mask.bit_length())
                           if mask >> week & 1],
            "last_rcode": self._last_rcode[row],
            "flags": self._flags[row],
            "country": country,
            "rir": rir,
            "asn": self._asn[row] or None,
            "software": None,
            "device": None,
            "verdict": "CLEAN",
            "labels": [],
        }
        if software:
            outcome, __, version = software.partition("|")
            record["software"] = {"outcome": outcome,
                                  "version": version or None}
        if device:
            hardware, os_name, vendor = device.split("|")
            record["device"] = {"hardware": hardware or None,
                                "os": os_name or None,
                                "vendor": vendor or None}
        if verdict:
            record["verdict"] = "MANIPULATING"
            record["labels"] = verdict.split(";")
        return record

    def rows_where(self, country=None, rir=None, asn=None,
                   verdict_label=None):
        """Secondary-index scan: resolver IPs matching every given
        criterion, in ascending address order."""
        matches = []
        for value, row in self._rows.items():
            if country is not None or rir is not None:
                have_country, have_rir = self._geo_table.value(
                    self._country[row])
                if country is not None and have_country != country:
                    continue
                if rir is not None and have_rir != rir:
                    continue
            if asn is not None and self._asn[row] != asn:
                continue
            if verdict_label is not None:
                verdict = self._label_table.value(self._verdict[row])
                if not any(entry.split("/")[0] == verdict_label
                           for entry in verdict.split(";") if entry):
                    continue
            matches.append(value)
        matches.sort()
        return [int_to_ip(value) for value in matches]

    def geo_of(self, value):
        row = self._rows.get(value)
        if row is None:
            return ("??", "???", None)
        country, rir = self._geo_table.value(self._country[row])
        return (country, rir, self._asn[row] or None)

    # -- weekly results -----------------------------------------------------

    def weeks(self):
        """All known week numbers, ascending (resident or spilled)."""
        return sorted(self._week_digests)

    def put_week(self, week, result):
        """Store ``result``, the week's committed ``ScanResult``, as is."""
        self._weeks[week] = result
        self._dirty_weeks.add(week)
        self._week_digests[week] = _week_digest(week, result)
        self._touch_week(week)

    def week(self, week):
        """One week's ``ScanResult``, loading from the current
        generation on demand; resident weeks are bounded by
        ``week_cache`` (dirty weeks are never evicted — they exist
        nowhere else yet)."""
        result = self._weeks.get(week)
        if result is None:
            if week not in self._week_digests or self.directory is None:
                raise KeyError(week)
            result = self._weeks[week] = self._load_payload(
                self._week_filename(week), "week")
        self._touch_week(week)
        return result

    def _touch_week(self, week):
        if week in self._week_lru:
            self._week_lru.remove(week)
        self._week_lru.append(week)
        while len(self._week_lru) > self.week_cache:
            for victim in self._week_lru:
                if victim not in self._dirty_weeks:
                    self._week_lru.remove(victim)
                    del self._weeks[victim]
                    break
            else:
                break  # everything resident is dirty: keep it all

    # -- content digest ----------------------------------------------------

    def digest(self):
        """A stable digest over everything the store asserts.

        Two stores that ingested the same logical campaign — one from an
        uninterrupted run, one from a crash-and-resume — must digest
        identically; rows are folded in per-week sorted column order, so
        they do.
        """
        crc = zlib.crc32(json.dumps(
            sorted(self._week_digests.items()), sort_keys=True)
            .encode("utf-8"))
        for value in sorted(self._rows):
            row = self._rows[value]
            country, rir = self._geo_table.value(self._country[row])
            line = "%d|%d|%d|%d|%d|%d|%s|%s|%d|%s|%s|%s" % (
                value, self._first_week[row], self._last_week[row],
                self._weeks_mask[row], self._last_rcode[row],
                self._flags[row], country, rir, self._asn[row],
                self._label_table.value(self._software[row]),
                self._label_table.value(self._device[row]),
                self._label_table.value(self._verdict[row]))
            crc = zlib.crc32(line.encode("utf-8"), crc)
        return "%08x" % crc

    # -- persistence --------------------------------------------------------

    @staticmethod
    def _week_filename(week):
        return "week-%05d.snap" % week

    def _generation_dir(self, generation):
        return os.path.join(self.directory, "gen-%08d" % generation)

    def _manifest_path(self):
        return os.path.join(self.directory, "MANIFEST.json")

    def _load_payload(self, filename, name):
        """The payload of one file of the current generation, of the
        type ``FORMATS[name]`` declares."""
        path = os.path.join(self._generation_dir(self.generation),
                            filename)
        try:
            payload = load_snapshot(path)
        except FileNotFoundError:
            raise ObservatoryError("%s: missing" % path)
        return check_type(path, payload, FORMATS[name]["payload"][0])

    def _records_payload(self):
        payload = {"format": _FORMAT}
        for name, typecode, __ in _RECORD_COLUMNS:
            column = getattr(self, "_" + name)
            payload[name] = (list(column) if typecode is None
                             else column.tobytes())
        payload.update(geo_table=list(self._geo_table.values),
                       label_table=list(self._label_table.values),
                       ingested=dict(self.ingested),
                       cursors=dict(self.cursors),
                       meta=dict(self.meta))
        return payload

    def _restore(self, manifest):
        """Load the records and week digests ``manifest`` (as
        :meth:`read_manifest` returned it) names; a file of the wrong
        shape is an :class:`ObservatoryError` naming it."""
        path = self._manifest_path()
        try:
            self.generation = manifest["generation"]
            self._week_digests = {int(week): digest for week, digest
                                  in manifest["weeks"].items()}
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ObservatoryError("%s: malformed (%r)" % (path, error))
        if type(self.generation) is not int \
                or not os.path.isdir(self._generation_dir(self.generation)):
            raise ObservatoryError("%s: names generation %s, which is not "
                                   "in the store"
                                   % (path, json.dumps(self.generation)))
        path = os.path.join(self._generation_dir(self.generation),
                            "records.snap")
        payload = self._load_payload("records.snap", "records")
        try:
            for name, typecode, __ in _RECORD_COLUMNS:
                setattr(self, "_" + name,
                        list(payload[name]) if typecode is None
                        else array(typecode, payload[name]))
            self._geo_table = _StringTable(
                tuple(entry) for entry in payload["geo_table"])
            self._label_table = _StringTable(payload["label_table"])
            self.ingested = dict(payload["ingested"])
            self.cursors = dict(payload["cursors"])
            self.meta = dict(payload["meta"])
        except (KeyError, TypeError, ValueError) as error:
            raise ObservatoryError("%s: malformed (%r)" % (path, error))
        self._rows = {value: row for row, value in enumerate(self._ips)}

    def save(self):
        """Persist the store as a new generation; atomic swap.

        Unchanged week payloads are hard-linked from the previous
        generation (same digest, same bytes), so a weekly incremental
        ingest writes one new week file plus the records snapshot, not
        the whole history.
        """
        if self.directory is None:
            raise ObservatoryError("store has no directory to save into")
        os.makedirs(self.directory, exist_ok=True)
        old_generation = self.generation
        new_generation = old_generation + 1
        new_dir = self._generation_dir(new_generation)
        old_dir = self._generation_dir(old_generation)
        if os.path.exists(new_dir):
            shutil.rmtree(new_dir)
        os.makedirs(new_dir)
        self._write_snapshot(os.path.join(new_dir, "records.snap"),
                             self._records_payload())
        for week in self.weeks():
            filename = self._week_filename(week)
            target = os.path.join(new_dir, filename)
            source = os.path.join(old_dir, filename)
            if week not in self._dirty_weeks and os.path.exists(source):
                try:
                    os.link(source, target)
                except OSError:
                    shutil.copyfile(source, target)
            else:
                self._write_snapshot(target, self.week(week))
        fsync_directory(new_dir)
        manifest = {
            "format": _FORMAT,
            "generation": new_generation,
            "resolvers": len(self),
            "weeks": {str(week): digest for week, digest
                      in sorted(self._week_digests.items())},
            "cursors": dict(self.cursors),
            "digest": self.digest(),
        }
        atomic_write_text(self._manifest_path(),
                          json.dumps(manifest, sort_keys=True,
                                     indent=1) + "\n")
        self.generation = new_generation
        self._dirty_weeks.clear()
        self._prune_generations(keep=new_generation)
        # Now that every week exists on disk, enforce the residency cap.
        while len(self._week_lru) > self.week_cache:
            victim = self._week_lru.pop(0)
            del self._weeks[victim]
        return new_generation

    def _write_snapshot(self, path, payload):
        data = encode_snapshot(payload)
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def _prune_generations(self, keep):
        for name in os.listdir(self.directory):
            if not name.startswith("gen-"):
                continue
            try:
                generation = int(name.split("-", 1)[1])
            except ValueError:
                continue
            if generation != keep:
                shutil.rmtree(os.path.join(self.directory, name),
                              ignore_errors=True)

    @classmethod
    def open(cls, directory, week_cache=8):
        """Open an existing store directory at its current generation."""
        store = cls.open_or_create(directory, week_cache=week_cache)
        if store.generation == 0:
            raise ObservatoryError(
                "no observatory store in %s (missing MANIFEST.json); "
                "run 'repro observe ingest' first" % directory)
        return store

    @classmethod
    def open_or_create(cls, directory, week_cache=8):
        store = cls(directory, week_cache=week_cache)
        manifest = store.read_manifest()
        if manifest is not None:
            store._restore(manifest)
        return store

    def read_manifest(self):
        """The one reader of ``MANIFEST.json``: ``None`` without one,
        else a JSON object of this program's format — anything else is
        an :class:`ObservatoryError` naming the file.  Only the current
        format is read: a store is derived data, so an older one is
        rebuilt from its checkpoint directory, not converted."""
        if self.directory is None:
            return None
        path = self._manifest_path()
        try:
            with open(path, "rb") as handle:
                manifest = json.loads(handle.read())
        except FileNotFoundError:
            return None
        except ValueError:
            raise ObservatoryError("%s: unreadable (not JSON)" % path)
        if not isinstance(manifest, dict):
            raise ObservatoryError("%s: holds a JSON %s, not an object"
                                   % (path, type(manifest).__name__))
        if manifest.get("format") != _FORMAT:
            raise ObservatoryError(
                "%s: format %s is not one this program reads (it reads "
                "%d); re-ingest the untouched checkpoint directory into "
                "a fresh --store-dir"
                % (path, json.dumps(manifest.get("format")), _FORMAT))
        return manifest

    def disk_bytes(self):
        """Total bytes of the current generation on disk (0 unsaved)."""
        if self.directory is None or self.generation == 0:
            return 0
        total = 0
        gen_dir = self._generation_dir(self.generation)
        try:
            for name in os.listdir(gen_dir):
                total += os.path.getsize(os.path.join(gen_dir, name))
        except FileNotFoundError:
            return 0
        return total

    def __repr__(self):
        return "ResolverStore(%d resolvers, %d weeks, gen %d)" % (
            len(self), len(self.weeks()), self.generation)
