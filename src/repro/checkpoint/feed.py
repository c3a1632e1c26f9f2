"""Read-only checkpoint feed: tail a run's journal without owning it.

The observatory ingests completed units of work out of a campaign's
checkpoint directory while the campaign may still be running (or may
crash and resume).  The write side — :class:`repro.checkpoint.Journal`
— replays destructively: torn tails are truncated away and damaged
spans moved to the quarantine sidecar, which is correct for the process
that *owns* the directory and catastrophic for an observer peeking at a
live one.  :class:`CheckpointFeed` therefore takes the same frame walk
(:func:`~repro.checkpoint.journal.walk_frames`) read-only: intact
records are decoded in append order, damage is
*skipped* (counted, never moved or truncated), and every intact record
carries a sequence number so an incremental consumer can persist a
cursor and resume the tail later.

The feed reads each file through the same reader the owning run uses
(:mod:`repro.checkpoint.formats`): ``meta.json`` through ``read_meta``
(an unreadable or missing one is an error here, never an empty
identity that another directory could share), records through
``decode_record``,
and the commit payloads through ``load_payload`` — without ever
writing to the directory.
"""

import json
import os
import zlib

from repro.checkpoint.formats import decode_record, load_payload, read_meta
from repro.checkpoint.journal import walk_frames
from repro.checkpoint.store import (
    FormatError,
    SnapshotCorruption,
    key_filename,
)


def scan_journal(path, start=0):
    """Yield ``(seq, record)`` for every intact journal record.

    ``seq`` counts intact records from the start of the file (damaged
    spans do not advance it — the same numbering the owning journal's
    replay produces).  ``start`` skips records already consumed.  The
    file is opened read-only; torn tails and corrupt records are
    silently skipped, exactly the spans the owner will quarantine on
    its next resume.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return
    seq = 0
    for __, __, record, damage in walk_frames(data, decode_record):
        if damage is not None:
            continue                   # the owner quarantines it
        if seq >= start:
            yield seq, record
        seq += 1


def commits_of(records):
    """Yield ``(seq, key_tuple, record)`` for the commit records among
    ``(seq, record)`` pairs."""
    for seq, record in records:
        if record["kind"] == "commit":
            yield seq, record["key"], record


class CheckpointFeed:
    """One checkpoint directory, viewed as an ingestible record stream."""

    def __init__(self, directory):
        self.directory = directory
        self._journal_path = os.path.join(directory, "journal.wal")
        self._snapshot_dir = os.path.join(directory, "snapshots")
        self.meta = read_meta(directory)
        if self.meta is None:
            raise FormatError("%s: missing, so this run cannot be told "
                              "from another" % os.path.join(directory,
                                                            "meta.json"))

    def identity(self):
        """A stable identity for cursor bookkeeping.

        Derived from the run's meta (command, seed, scale, ...), not the
        directory path: a crashed run resumed in the same directory —
        or re-ingested from a copied one — is the *same* feed, and its
        already-consumed prefix must not be folded twice.
        """
        canonical = json.dumps(self.meta, sort_keys=True)
        return "feed-%08x" % zlib.crc32(canonical.encode("utf-8"))

    def records(self, start=0):
        """Intact journal records from sequence ``start`` on."""
        return scan_journal(self._journal_path, start=start)

    def commits(self, start=0):
        """Yield ``(seq, key_tuple, record)`` for commit records only."""
        return commits_of(self.records(start=start))

    def record_count(self):
        """Total intact records currently in the journal (for lag)."""
        count = 0
        for count, __ in enumerate(self.records(), 1):
            pass
        return count

    def snapshot_path(self, key):
        return os.path.join(self._snapshot_dir, key_filename(tuple(key)))

    def load(self, key):
        """Load one committed unit's snapshot payload, read-only.

        Raises like the owning store would (``FileNotFoundError``,
        :class:`SnapshotCorruption`, :class:`FormatError`).
        """
        return load_payload(self._snapshot_dir, tuple(key))

    def load_or_none(self, key):
        """The payload, or ``None`` for a missing or damaged snapshot:
        the owner will quarantine and recompute it.  A payload of the
        wrong type is not damage, and raises."""
        try:
            return self.load(key)
        except (FileNotFoundError, SnapshotCorruption):
            return None

    def __repr__(self):
        return "CheckpointFeed(%r)" % self.directory
