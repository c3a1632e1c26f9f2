"""Write-ahead journal: the ordered, durable record of completed work.

Record framing is ``magic(2) + length(4, big-endian) + crc32(4) +
payload`` with pickled payloads.  Appends flush and ``fsync`` before
returning, so a record that :meth:`Journal.append` acknowledged survives
any later crash.  Replay tolerates exactly the damage a crash can
inflict:

* a **torn tail** — the process died mid-append, leaving a partial
  record at the end — is quarantined and truncated away, so the journal
  is again append-clean and the interrupted unit of work simply reruns;
* a **corrupt record** (checksum failure, or bytes the record reader
  refuses, with intact framing) is quarantined and skipped, never
  aborting the replay;
* **lost framing** (a record whose claimed length runs past other
  records' magic, or garbage where magic should be) quarantines the
  remainder of the file — everything before the damage still counts.

Quarantined bytes go to numbered files in a sidecar directory rather
than being deleted: corrupt measurement state is still evidence.
"""

import os
import pickle
import zlib

_MAGIC = b"\xc4W"
_HEADER_SIZE = 2 + 4 + 4
# Upper bound on a sane record: anything larger is treated as framing
# damage (a corrupted length field), not a real record.
_MAX_RECORD = 1 << 28


def walk_frames(data, decode=pickle.loads):
    """The one reader of the frame format: yield ``(start, end, record,
    damage)`` for each frame of a journal image, in file order.

    An intact frame has ``damage`` ``None`` and its ``record``, which
    ``decode`` read from the frame's payload bytes (a checkpoint's
    journal passes :func:`repro.checkpoint.formats.decode_record`).
    A damaged one has ``record`` ``None`` and the quarantine reason:
    ``"crc-mismatch"`` and ``"unreadable"`` (``decode`` raised) kept
    their framing, so the walk goes on at ``end``; ``"torn-tail"``,
    ``"lost-framing"`` and ``"bad-length"`` did not — ``end`` is
    ``None``, everything from ``start`` on is lost, and the walk is
    over.
    """
    offset = 0
    size = len(data)
    while offset < size:
        header = data[offset:offset + _HEADER_SIZE]
        length = int.from_bytes(header[2:6], "big")
        end = offset + _HEADER_SIZE + length
        if len(header) < _HEADER_SIZE:
            damage = "torn-tail"
        elif header[:2] != _MAGIC:
            damage = "lost-framing"
        elif length > _MAX_RECORD:
            damage = "bad-length"
        else:
            damage = "torn-tail" if end > size else None
        if damage is not None:
            yield offset, None, None, damage
            return
        payload = data[offset + _HEADER_SIZE:end]
        record = None
        if zlib.crc32(payload) != int.from_bytes(header[6:10], "big"):
            damage = "crc-mismatch"
        else:
            try:
                record = decode(payload)
            except Exception:
                damage = "unreadable"
        yield offset, end, record, damage
        offset = end


class JournalReplay:
    """Outcome of replaying one journal file."""

    def __init__(self):
        self.records = []           # decoded payloads, in append order
        self.replayed = 0           # records successfully decoded
        self.quarantined = 0        # damaged records/tails set aside
        self.torn_bytes = 0         # bytes truncated from the tail

    def __repr__(self):
        return "JournalReplay(%d replayed, %d quarantined)" % (
            self.replayed, self.quarantined)


class Journal:
    """An append-only record stream with checksummed, torn-safe replay."""

    def __init__(self, path, perf=None, decode=pickle.loads):
        self.path = path
        self.perf = perf
        self.decode = decode
        self.seq = 0                # records appended or replayed so far
        self._handle = None

    def _count(self, name, amount=1):
        if self.perf is not None:
            self.perf.count(name, amount)

    # -- replay ------------------------------------------------------------

    def replay(self, quarantine=None):
        """Decode every intact record; returns a :class:`JournalReplay`.

        ``quarantine(raw_bytes, reason)`` receives each damaged span.
        After replay the file is truncated to the last intact record so
        subsequent appends start at a clean boundary.
        """
        replay = JournalReplay()
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""
        truncate_at = None
        for start, end, record, damage in walk_frames(data, self.decode):
            if damage is None:
                replay.records.append(record)
                replay.replayed += 1
                continue
            replay.quarantined += 1
            if quarantine is not None:
                quarantine(data[start:end], damage)
            if end is None:
                truncate_at = start
        if truncate_at is not None:
            replay.torn_bytes = len(data) - truncate_at
            with open(self.path, "r+b") as handle:
                handle.truncate(truncate_at)
                handle.flush()
                os.fsync(handle.fileno())
        self.seq = replay.replayed
        self._count("checkpoint_journal_records_replayed", replay.replayed)
        if replay.quarantined:
            self._count("checkpoint_journal_records_quarantined",
                        replay.quarantined)
        return replay

    # -- append ------------------------------------------------------------

    def _encode(self, payload_obj):
        payload = pickle.dumps(payload_obj,
                               protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > _MAX_RECORD:
            raise ValueError("journal record too large (%d bytes)"
                             % len(payload))
        return (_MAGIC + len(payload).to_bytes(4, "big")
                + zlib.crc32(payload).to_bytes(4, "big") + payload)

    def _ensure_open(self):
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, payload_obj):
        """Durably append one record; returns its sequence number."""
        record = self._encode(payload_obj)
        handle = self._ensure_open()
        handle.write(record)
        handle.flush()
        os.fsync(handle.fileno())
        seq = self.seq
        self.seq += 1
        self._count("checkpoint_journal_appends")
        self._count("checkpoint_journal_fsyncs")
        self._count("checkpoint_journal_bytes", len(record))
        return seq

    def append_torn(self, payload_obj, keep_fraction=0.5):
        """Simulate a crash mid-append: write only a prefix of the record.

        Used by the fault plane's ``torn_write`` draw.  The partial
        record is flushed (it *did* reach the disk before the "crash"),
        leaving exactly the torn tail :meth:`replay` must absorb.
        """
        record = self._encode(payload_obj)
        cut = max(1, min(len(record) - 1,
                         int(len(record) * keep_fraction)))
        handle = self._ensure_open()
        handle.write(record[:cut])
        handle.flush()
        os.fsync(handle.fileno())
        self._count("checkpoint_journal_torn_writes")

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None
