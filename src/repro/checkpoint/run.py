"""The checkpoint supervisor: journal + snapshot store + resume logic.

A :class:`CheckpointedRun` owns one checkpoint directory::

    <dir>/meta.json        run identity (seed, scale, command, ...)
    <dir>/journal.wal      write-ahead journal of committed units
    <dir>/snapshots/       one checksummed snapshot per unit of work
    <dir>/.quarantine/     damaged journal spans / snapshot files
    <dir>/provenance.json  resume provenance (written on request)

Commit protocol for one unit of work (a campaign week, a pipeline
stage, a scan shard): write the payload snapshot and, for a unit that
captured world state, the state snapshot beside it atomically first,
then append a small journal record naming them — so the journal never
references a file that might not exist, and reading it never decodes a
world state.  On open, the journal is replayed (torn tails and
corrupt records quarantined, never fatal) and the surviving commit
records define which units are already done; anything else reruns.
:meth:`CheckpointScope.unit` is the one implementation of that
restore-or-run-commit-crash protocol for the synchronous unit kinds.

The fault plane hooks in at exactly two places: ``maybe_crash`` fires a
seed-keyed :class:`~repro.faults.InjectedCrash` at unit boundaries, and
``commit`` can be told by a ``torn_write`` draw to die mid-append —
leaving the torn journal tail the replay path must shrug off.  Crash
occurrences are themselves journaled (and torn-write occurrences are
implied by the quarantine count), so a resumed run does not re-fire the
same deterministic draw forever.
"""

import json
import os

from repro.checkpoint.formats import (
    decode_record,
    meta_to_write,
    read_meta,
    read_payload,
)
from repro.checkpoint.journal import Journal
from repro.checkpoint.state import capture_world_state, restore_world_state
from repro.checkpoint.store import (
    CheckpointError,
    FormatError,
    SnapshotCorruption,
    SnapshotStore,
    atomic_write_text,
)

_COMMIT = "commit"
_CRASH = "crash"
_STATE = ("state",)     # a unit's state snapshot is keyed ``key + _STATE``


def _meta_diff(stored, wanted, prefix=""):
    """``key: stored -> wanted`` for every meta key that differs."""
    for key in sorted(set(stored) | set(wanted)):
        old, new = stored.get(key), wanted.get(key)
        if isinstance(old, dict) and isinstance(new, dict):
            yield from _meta_diff(old, new, prefix + key + ".")
        elif old != new:
            yield "%s%s: %s -> %s" % (prefix, key, json.dumps(old),
                                      json.dumps(new))


class CheckpointScope:
    """A key-prefixed view of a :class:`CheckpointedRun`.

    Lets nested machinery (the scan engine inside week 3, the pipeline
    for one domain set) address its units without knowing where in the
    campaign it is running.
    """

    __slots__ = ("run", "prefix")

    def __init__(self, run, prefix):
        self.run = run
        self.prefix = tuple(prefix)

    def scope(self, *parts):
        return CheckpointScope(self.run, self.prefix + parts)

    def completed(self, key):
        return self.run.completed(self.prefix + tuple(key))

    def restore(self, key):
        return self.run.restore(self.prefix + tuple(key))

    def commit(self, key, payload, state=None):
        return self.run.commit(self.prefix + tuple(key), payload,
                               state=state)

    def maybe_crash(self, kind, key):
        return self.run.maybe_crash(kind, self.prefix + tuple(key))

    def note(self, name, value):
        return self.run.note(name, value)

    def unit(self, kind, key, compute, network, perf=None,
             extra_state=None, on_restore=None, stage=None, read=None,
             **attrs):
        """Run one synchronous unit of work, or restore it: the only
        implementation of the protocol every unit kind obeys.

        Committed: ``on_restore(payload, state)`` replays what the unit
        did outside the world state (it runs *first*: a deterministic
        fast-forward such as ``churn.step()`` must see the clock the
        unit started from), then the world state its commit captured is
        reinstated and the tracer gets one zero-duration
        ``restored=True`` marker — named ``stage`` (default ``kind``),
        carrying ``attrs`` — so a resumed trace still covers the unit.
        Otherwise: ``compute()`` (which opens its own span), capture the
        world state plus ``extra_state()``, commit under ``(kind,) +
        key``, then offer the crash plane the ``kind`` boundary —
        commit strictly before crash.  Returns the payload either way,
        or ``read(payload)``: a restored payload ``read`` cannot read is
        a :class:`FormatError` naming its snapshot.
        """
        key = tuple(key)
        record = self.restore((kind,) + key)
        if record is not None:
            state = record["state"]
            if on_restore is not None:
                on_restore(record["payload"], state)
            restore_world_state(network, perf, state)
            if network.tracer is not None:
                network.tracer.emit(stage or kind, **attrs, restored=True)
            if read is None:
                return record["payload"]
            name = self.prefix + (kind,) + key
            return read_payload(self.run.store.path_for(name), name,
                                lambda: read(record["payload"]))
        payload = compute()
        state = capture_world_state(network, perf)
        if extra_state is not None:
            state.update(extra_state())
        self.commit((kind,) + key, payload, state=state)
        self.maybe_crash(kind, key)
        return payload if read is None else read(payload)


class NullScope:
    """What ``checkpoint=None`` becomes at the API edge: a scope in
    which nothing is ever committed, so every unit just runs."""

    __slots__ = ()

    def scope(self, *parts):
        return self

    def restore(self, key):
        return None

    def commit(self, key, payload, state=None):
        pass

    def maybe_crash(self, kind, key):
        pass

    def note(self, name, value):
        pass

    def unit(self, kind, key, compute, *args, read=None, **kwargs):
        payload = compute()
        return payload if read is None else read(payload)


NULL_SCOPE = NullScope()


class CheckpointedRun:
    """Durable unit-of-work bookkeeping for one campaign/pipeline run."""

    def __init__(self, directory, meta=None, resume=False,
                 fault_plan=None, perf=None):
        self.directory = directory
        self.fault_plan = fault_plan
        self.perf = perf
        os.makedirs(directory, exist_ok=True)
        self.quarantine_dir = os.path.join(directory, ".quarantine")
        self._journal_path = os.path.join(directory, "journal.wal")
        self._meta_path = os.path.join(directory, "meta.json")
        self._quarantine_seq = self._existing_quarantine_count()
        self._snapshots_quarantined = 0
        self._units_restored = 0
        self._units_committed = 0
        self._notes = {}
        self._check_meta(meta, resume)
        self.store = SnapshotStore(os.path.join(directory, "snapshots"),
                                   perf=perf)
        self.journal = Journal(self._journal_path, perf=perf,
                               decode=decode_record)
        replay = self.journal.replay(quarantine=self._quarantine_bytes)
        self._replay = replay
        # The torn-write draw's occurrence key: how many damaged spans
        # this directory has ever quarantined (including the one this
        # replay may just have set aside), so a forced torn append does
        # not re-tear the same record after resume.
        self._torn_epoch = self._quarantine_seq
        self._completed = {}
        self._crash_counts = {}
        # Every crash point a boundary of this incarnation offered.
        self._offered = set()
        for record in replay.records:
            if record["kind"] == _COMMIT:
                self._completed[record["key"]] = record
            else:
                point = record["point"]
                self._crash_counts[point] = \
                    self._crash_counts.get(point, 0) + 1

    # -- directory bookkeeping --------------------------------------------

    def _existing_quarantine_count(self):
        try:
            return len(os.listdir(self.quarantine_dir))
        except FileNotFoundError:
            return 0

    def _quarantine_bytes(self, raw, reason):
        os.makedirs(self.quarantine_dir, exist_ok=True)
        name = "%04d.%s.rec" % (self._quarantine_seq, reason)
        self._quarantine_seq += 1
        with open(os.path.join(self.quarantine_dir, name), "wb") as handle:
            handle.write(raw)
        if self.perf is not None:
            self.perf.count("checkpoint_quarantined_bytes", len(raw))

    def _quarantine_snapshot(self, unit, key, reason):
        """Set aside snapshot ``key`` of committed ``unit`` and forget
        the unit, so it reruns; returns ``None`` for :meth:`restore`."""
        del self._completed[unit]
        path = self.store.path_for(key)
        self._snapshots_quarantined += 1
        try:
            os.makedirs(self.quarantine_dir, exist_ok=True)
            os.replace(path, os.path.join(
                self.quarantine_dir,
                "%04d.%s.snap" % (self._quarantine_seq, reason)))
            self._quarantine_seq += 1
        except FileNotFoundError:
            pass

    def _check_meta(self, meta, resume):
        existing = read_meta(self.directory)
        has_journal = os.path.exists(self._journal_path)
        if existing is None or not (resume or has_journal):
            # An empty directory — or a meta with no journal beside it:
            # whatever wrote it committed nothing, so a fresh run under
            # other settings owns the directory (and a later --resume of
            # *that* run must compare against its meta, not the stale
            # one).
            if meta is not None:
                atomic_write_text(self._meta_path,
                                  json.dumps(meta_to_write(meta),
                                             sort_keys=True,
                                             indent=1) + "\n")
            return
        if not resume:
            raise CheckpointError(
                "checkpoint directory %s already holds a run; pass "
                "resume=True (--resume) to continue it" % self.directory)
        # Compare in JSON space: the stored meta went through a JSON
        # round-trip, so tuples in the caller's meta arrive as lists.
        if resume and meta is not None:
            changed = list(_meta_diff(existing,
                                      json.loads(json.dumps(meta))))
            if changed:
                raise CheckpointError(
                    "checkpoint meta mismatch: %s was written under "
                    "other settings (%s)"
                    % (self._meta_path, ", ".join(changed)))

    # -- unit-of-work API --------------------------------------------------

    def scope(self, *parts):
        return CheckpointScope(self, parts)

    def unit(self, *args, **kwargs):
        return self.scope().unit(*args, **kwargs)

    def completed(self, key):
        return tuple(key) in self._completed

    def restore(self, key):
        """Load a committed unit; returns ``{"payload", "state"}`` or
        ``None`` (unit not committed, or one of its snapshots is missing
        or damaged — in which case that file is quarantined and the unit
        reruns).  A version-1 record carries its state inline
        (:func:`repro.checkpoint.formats.decode_record`)."""
        key = tuple(key)
        record = self._completed.get(key)
        if record is None:
            return None
        loaded = {"state": record["state"]}
        names = {"payload": key}
        if record["state_snapshot"]:
            names["state"] = key + _STATE
        for field, name in names.items():
            try:
                loaded[field] = self.store.load(name)
            except FileNotFoundError:
                return self._quarantine_snapshot(key, name, "missing")
            except (SnapshotCorruption, FormatError):
                return self._quarantine_snapshot(key, name, "corrupt")
        self._units_restored += 1
        if self.perf is not None:
            self.perf.count("checkpoint_units_restored")
        return loaded

    def commit(self, key, payload, state=None):
        """Durably record one completed unit (snapshots, then journal)."""
        key = tuple(key)
        record = {"kind": _COMMIT, "key": key,
                  "snapshot": self.store.save(key, payload),
                  "state_snapshot": None if state is None
                  else self.store.save(key + _STATE, state)}
        plan = self.fault_plan
        if plan is not None and plan.torn_write(self.journal.seq,
                                                self._torn_epoch):
            # The "process" dies while appending this record: flush a
            # partial frame, then crash.  On resume the torn tail is
            # quarantined and this unit reruns.
            self.journal.append_torn(record)
            from repro.faults import InjectedCrash
            raise InjectedCrash("torn_write", "journal record %d"
                                % self.journal.seq)
        self.journal.append(record)
        self._completed[key] = dict(record, state=None)
        self._units_committed += 1
        if self.perf is not None:
            self.perf.count("checkpoint_units_committed")
        return record

    def maybe_crash(self, kind, key):
        """Fire an injected whole-process crash at a unit boundary."""
        plan = self.fault_plan
        if plan is None:
            return
        point = plan.crash_point(kind, key)
        self._offered.add(point)
        occurrence = self._crash_counts.get(point, 0)
        if not plan.crashes(kind, key, occurrence=occurrence):
            return
        # Journal the occurrence first so the resumed run's draw for
        # this point moves on instead of crash-looping forever.
        self.journal.append({"kind": _CRASH, "point": point})
        self._crash_counts[point] = occurrence + 1
        from repro.faults import InjectedCrash
        raise InjectedCrash(kind, point)

    def reached(self, point):
        """Whether a boundary named ``point`` was offered the crash plane
        in this incarnation, or crashed in an earlier one."""
        return point in self._offered or point in self._crash_counts

    def note(self, name, value):
        """Record a one-shot provenance fact (first write wins)."""
        self._notes.setdefault(name, value)

    # -- provenance --------------------------------------------------------

    @property
    def provenance(self):
        """Resume provenance for reporting: what replay found and did."""
        crashes = sum(self._crash_counts.values())
        provenance = {
            "resumed": self._replay.replayed > 0,
            "journal_records_replayed": self._replay.replayed,
            "journal_records_quarantined": self._replay.quarantined,
            "journal_torn_bytes": self._replay.torn_bytes,
            "snapshots_quarantined": self._snapshots_quarantined,
            "units_restored": self._units_restored,
            "units_committed": self._units_committed,
            "crashes_injected": crashes,
        }
        provenance.update(self._notes)
        return provenance

    def write_provenance(self):
        path = os.path.join(self.directory, "provenance.json")
        atomic_write_text(path, json.dumps(self.provenance, sort_keys=True,
                                           indent=1) + "\n")
        return path

    def close(self):
        self.journal.close()

    def __repr__(self):
        return "CheckpointedRun(%r, %d completed)" % (
            self.directory, len(self._completed))
