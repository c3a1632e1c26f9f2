"""The on-disk formats, declared once, each read by one reader.

:data:`FORMATS` names every file this program writes and later reads
back: the version it writes today, the versions it still reads (each
proved by a committed fixture under ``tests/fixtures/formats/``), its
writer, its one reader, and — for snapshots — the payload type of each
commit-key kind and the classes that payload may pickle.  Writers and
readers are dotted names, so the declaration imports nothing; the
tier-1 tests resolve every name, walk every fixture pickle against the
class lists, and resume and ingest every fixture.

A version this program does not know is refused in one line naming the
file.  ``meta.json`` carries the checkpoint directory's version
(``format``, absent in directories written before it existed, which
read as version 1): it is checked before the journal is replayed, so a
directory written by a newer program is refused, not truncated as
"lost framing".

A change to any format bumps its version, adds a fixture written by
the changed program, and keeps the old fixture.
"""

import json
import os
import pickle

from repro.checkpoint.store import (
    FormatError,
    key_filename,
    load_snapshot,
)

_STATE_CLASSES = (
    "repro.resolvers.resolver.HonestResult",
    "repro.dnswire.records.ResourceRecord",
    "repro.dnswire.records.AData",
    "repro.dnswire.records.NsData",
    "repro.dnswire.records.CnameData",
    "repro.dnswire.records.PtrData",
    "repro.dnswire.records.TxtData",
    "repro.dnswire.records.MxData",
    "repro.dnswire.records.SoaData",
    "repro.dnswire.records.OpaqueData",
)

_PERF_CLASSES = (
    "repro.perf.metrics.PerfRegistry",
    "repro.obs.hist.LogHistogram",
)

FORMATS = {
    "journal": {
        "file": "<checkpoint>/journal.wal",
        # Frame: magic + length(4) + crc32(4) + pickled record.
        "magic": b"\xc4W",
        "version": 2,
        "reads": {
            1: "a commit record carries its world state inline",
            2: "a commit record names its state snapshot",
        },
        "writer": "repro.checkpoint.run.CheckpointedRun.commit",
        "reader": "repro.checkpoint.formats.decode_record",
        "fixtures": {1: ("84d676a/campaign", "84d676a/fullstudy"),
                     2: ("509f09e/campaign", "509f09e/fullstudy")},
        # A version-1 record's inline state pickles what a state
        # snapshot may.
        "classes": _STATE_CLASSES,
    },
    "snapshot": {
        "file": "<checkpoint>/snapshots/<key>.<crc32>.snap",
        # Magic + crc32(4) + pickled payload.
        "magic": b"SN01",
        "version": 1,
        "reads": {1: "the only snapshot codec"},
        "writer": "repro.checkpoint.store.SnapshotStore.save",
        "reader": "repro.checkpoint.formats.load_payload",
        "fixtures": {1: ("84d676a/campaign", "84d676a/fullstudy",
                         "509f09e/campaign", "509f09e/fullstudy")},
        # Commit-key kind -> (payload type, classes it may pickle).  A
        # key's kind is read off its tail (:func:`payload_kind`).
        "payloads": {
            "week": ("repro.scanner.campaign.WeeklySnapshot",
                     ("repro.scanner.campaign.WeeklySnapshot",
                      "repro.scanner.ipv4scan.ScanResult")),
            "shard": ("builtins.dict",
                      ("repro.scanner.ipv4scan.ScanResult",
                       "repro.scanner.domainscan.DnsObservation")
                      + _PERF_CLASSES),
            "study": ("builtins.dict",
                      ("repro.scanner.chaos.ChaosObservation",
                       "repro.scanner.snooping.SnoopingTrace")),
            "stage": ("builtins.dict",
                      ("repro.scanner.domainscan.DnsObservation",
                       "repro.core.prefilter.PrefilterResult",
                       "repro.core.prefilter.ResponseTuple",
                       "repro.core.acquisition.HttpCapture",
                       "repro.core.acquisition.MailCapture",
                       "repro.core.clustering.Cluster",
                       "repro.core.clustering.Dendrogram",
                       "repro.core.diffcluster.DiffProfile",
                       "repro.core.labeling.LabeledCapture",
                       "collections.Counter")),
            "state": ("builtins.dict", _STATE_CLASSES + _PERF_CLASSES),
        },
    },
    "meta": {
        "file": "<checkpoint>/meta.json",
        "version": 1,
        "reads": {1: "`format` 1, or no `format` field at all"},
        "writer": "repro.checkpoint.run.CheckpointedRun",
        "reader": "repro.checkpoint.formats.read_meta",
        "fixtures": {1: ("84d676a/campaign", "84d676a/fullstudy",
                         "509f09e/campaign", "509f09e/fullstudy")},
    },
    "provenance": {
        "file": "<checkpoint>/provenance.json",
        "version": 1,
        "reads": {},
        "writer": "repro.checkpoint.run.CheckpointedRun.write_provenance",
        # A record for people: no code reads it back.
        "reader": None,
        "fixtures": {},
    },
    "manifest": {
        "file": "<store>/MANIFEST.json",
        "version": 2,
        "reads": {2: "weeks are the committed ScanResults"},
        "writer": "repro.observatory.store.ResolverStore.save",
        "reader": "repro.observatory.store.ResolverStore.read_manifest",
        "fixtures": {2: ("509f09e/store",)},
    },
    "records": {
        "file": "<store>/gen-<N>/records.snap",
        "version": 2,
        "reads": {2: "per-resolver columns, as in MANIFEST format 2"},
        "writer": "repro.observatory.store.ResolverStore.save",
        "reader": "repro.observatory.store.ResolverStore._restore",
        "fixtures": {2: ("509f09e/store",)},
        "payload": ("builtins.dict", ()),
    },
    "week": {
        "file": "<store>/gen-<N>/week-<W>.snap",
        "version": 2,
        "reads": {2: "the week's committed ScanResult"},
        "writer": "repro.observatory.store.ResolverStore.save",
        "reader": "repro.observatory.store.ResolverStore.week",
        "fixtures": {2: ("509f09e/store",)},
        "payload": ("repro.scanner.ipv4scan.ScanResult",
                    ("repro.scanner.ipv4scan.ScanResult",)),
    },
    "trace": {
        "file": "--trace-out FILE (JSONL)",
        # The meta line's ``schema_version``.
        "version": 1,
        "reads": {1: "meta line, then span/flight/hist lines"},
        "writer": "repro.obs.export.export_trace",
        "reader": "repro.obs.export.read_trace",
        "fixtures": {1: ("509f09e/trace.jsonl",)},
    },
}


def check_type(path, payload, expected):
    """Refuse a payload that is not of the declared type, naming it."""
    kind = type(payload)
    name = "%s.%s" % (kind.__module__, kind.__qualname__)
    if name != expected:
        raise FormatError("%s: holds a %s, not a %s"
                          % (path, name, expected))
    return payload


# -- the checkpoint directory's readers --------------------------------------

def read_meta(directory):
    """The one reader of ``meta.json``: the run's identity, its
    ``format`` field checked and removed, or ``None`` when the
    directory has none.  Anything but a JSON object of a known format
    is a :class:`FormatError` naming the file."""
    path = os.path.join(directory, "meta.json")
    try:
        with open(path, "rb") as handle:
            meta = json.loads(handle.read())
    except FileNotFoundError:
        return None
    except ValueError:
        raise FormatError("%s: unreadable (not JSON)" % path)
    if not isinstance(meta, dict):
        raise FormatError("%s: holds a JSON %s, not an object"
                          % (path, type(meta).__name__))
    # ``pop`` with a default: a meta.json written before the field
    # (every fixture) is version 1.
    version = meta.pop("format", 1)
    if type(version) is not int or version not in FORMATS["meta"]["reads"]:
        raise FormatError("%s: format %s is not one this program reads"
                          % (path, json.dumps(version)))
    return meta


def meta_to_write(meta):
    """``meta`` as :class:`CheckpointedRun` writes it: with its format."""
    return dict(meta, format=FORMATS["meta"]["version"])


def decode_record(data):
    """The one reader of a journal record's bytes: ``{"kind": "crash",
    "point"}`` or ``{"kind": "commit", "key", "snapshot",
    "state_snapshot", "state"}``, whichever version wrote it.  Raises
    on anything else; the journal walk counts that as damage."""
    record = pickle.loads(data)
    if record["kind"] == "crash":
        if not isinstance(record["point"], str):
            raise FormatError("crash point is not a string")
        return {"kind": "crash", "point": record["point"]}
    if record["kind"] != "commit":
        raise FormatError("unknown record kind %r" % (record["kind"],))
    read = {"kind": "commit", "key": tuple(record["key"]),
            "snapshot": record["snapshot"]}
    # ``in``: a version-1 record (the 84d676a fixtures) has no
    # ``state_snapshot``; it carries its state inline.
    if "state_snapshot" in record:
        read.update(state_snapshot=record["state_snapshot"], state=None)
    else:
        read.update(state_snapshot=None, state=record["state"])
    return read


def payload_kind(key):
    """A commit key's kind, read off its tail: ``state`` (``key +
    ("state",)``), ``shard`` (``..., "shard", origin, start, stop``), or
    ``week`` / ``study`` / ``stage`` (``..., kind, name``); ``None`` for
    a key of no declared kind."""
    if key and key[-1] == "state":
        return "state"
    if len(key) >= 4 and key[-4] == "shard":
        return "shard"
    if len(key) >= 2 and key[-2] in ("week", "study", "stage"):
        return key[-2]
    return None


def read_payload(path, key, read):
    """``read()``, which reads the payload committed under ``key`` from
    ``path``: a payload of the declared type without what ``read``
    reads (written by another program) is a :class:`FormatError` naming
    the file.  The one check for owner (a resumed unit) and observer
    (an ingest fold) alike."""
    try:
        return read()
    except (KeyError, AttributeError, TypeError, ValueError) as error:
        raise FormatError("%s: not a %s payload this program reads (%r)"
                          % (path, payload_kind(key), error))


def load_payload(directory, key):
    """The one reader of a checkpoint snapshot, for owner and observer
    alike: the payload committed under ``key``, checked against the
    type :data:`FORMATS` declares for its kind.

    Raises ``FileNotFoundError``, :class:`SnapshotCorruption` (damaged
    bytes) or :class:`FormatError` (intact bytes of the wrong type),
    each naming the file.
    """
    path = os.path.join(directory, key_filename(key))
    payload = load_snapshot(path)
    kind = payload_kind(key)
    if kind is not None:
        check_type(path, payload,
                   FORMATS["snapshot"]["payloads"][kind][0])
    return payload
