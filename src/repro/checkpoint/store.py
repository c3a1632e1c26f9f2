"""Atomic snapshot store: crash-safe persistence of unit-of-work results.

Every snapshot is written with the classic durable-replace protocol —
serialize to a temporary file in the destination directory, flush,
``fsync``, then ``os.replace`` over the final name and ``fsync`` the
directory — so a reader never observes a half-written file: either the
old content survives the crash or the new content does, never a torn
mix.  Payloads are pickled behind a CRC32 header, so a snapshot damaged
at rest (bit rot, partial disk writes below the filesystem's guarantees)
is detected at load time and can be quarantined rather than silently
poisoning a resumed run.
"""

import os
import pickle
import re
import zlib

_SNAPSHOT_MAGIC = b"SN01"
_UNSAFE_KEY_CHARS = re.compile(r"[^A-Za-z0-9._-]")


class CheckpointError(RuntimeError):
    """A checkpoint directory cannot be used as requested."""


class SnapshotCorruption(CheckpointError):
    """A snapshot file failed its checksum or could not be decoded."""


class FormatError(CheckpointError):
    """A file's bytes are intact, but not in a format this program
    reads: an unknown version, or content of the wrong shape or type."""


def fsync_directory(path):
    """Flush directory metadata (the rename itself) to stable storage."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platforms without directory fds (or vanished dir)
    try:
        os.fsync(fd)
    except OSError:
        pass  # some filesystems reject directory fsync; best effort
    finally:
        os.close(fd)


def atomic_write_bytes(path, data):
    """Write ``data`` to ``path`` atomically (temp + fsync + replace)."""
    directory = os.path.dirname(os.path.abspath(path))
    temp_path = "%s.tmp.%d" % (path, os.getpid())
    with open(temp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, path)
    fsync_directory(directory)


def atomic_write_text(path, text):
    """Atomically write a text file (reports, provenance sidecars)."""
    atomic_write_bytes(path, text.encode("utf-8"))


def encode_snapshot(obj):
    """Serialize one payload: magic + CRC32 + pickle."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    crc = zlib.crc32(payload)
    return _SNAPSHOT_MAGIC + crc.to_bytes(4, "big") + payload


def decode_snapshot(data, name="snapshot"):
    """Inverse of :func:`encode_snapshot`; raises on any damage, in a
    message that begins with ``name``."""
    if len(data) < 8 or data[:4] != _SNAPSHOT_MAGIC:
        raise SnapshotCorruption("%s: header missing or truncated" % name)
    payload = data[8:]
    if zlib.crc32(payload) != int.from_bytes(data[4:8], "big"):
        raise SnapshotCorruption("%s: checksum mismatch" % name)
    try:
        return pickle.loads(payload)
    except Exception as error:
        raise SnapshotCorruption("%s: unpicklable: %r" % (name, error))


def load_snapshot(path):
    """Read and decode the snapshot file at ``path``; errors name it."""
    with open(path, "rb") as handle:
        return decode_snapshot(handle.read(), path)


def key_filename(key):
    """A stable, filesystem-safe file name for a unit-of-work key.

    The readable part keeps humans oriented inside the snapshot
    directory; the CRC32 suffix keeps distinct keys distinct even after
    sanitization collapses unusual characters.
    """
    flat = "_".join(str(part) for part in key)
    safe = _UNSAFE_KEY_CHARS.sub("-", flat)[:120]
    return "%s.%08x.snap" % (safe, zlib.crc32(flat.encode("utf-8")))


class SnapshotStore:
    """A directory of atomically written, checksummed snapshots."""

    def __init__(self, directory, perf=None):
        self.directory = directory
        self.perf = perf
        os.makedirs(directory, exist_ok=True)

    def path_for(self, key):
        return os.path.join(self.directory, key_filename(key))

    def save(self, key, obj):
        """Persist one payload; returns its file name."""
        data = encode_snapshot(obj)
        atomic_write_bytes(self.path_for(key), data)
        if self.perf is not None:
            self.perf.count("checkpoint_snapshots_written")
            self.perf.count("checkpoint_snapshot_bytes", len(data))
        return key_filename(key)

    def load(self, key):
        """Load one payload through :func:`repro.checkpoint.formats.
        load_payload`; raises ``FileNotFoundError``,
        :class:`SnapshotCorruption` or :class:`FormatError` so the
        caller can quarantine or recompute."""
        from repro.checkpoint.formats import load_payload
        return load_payload(self.directory, key)

    def discard(self, key):
        try:
            os.remove(self.path_for(key))
        except FileNotFoundError:
            pass
