"""Tests for the atomic snapshot store (durable-replace + checksums)."""

import os

import pytest

from repro.checkpoint import (
    SnapshotCorruption,
    SnapshotStore,
    atomic_write_bytes,
    atomic_write_text,
    decode_snapshot,
    encode_snapshot,
    key_filename,
)
from repro.perf import PerfRegistry


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = str(tmp_path / "out.bin")
        atomic_write_bytes(path, b"hello")
        with open(path, "rb") as handle:
            assert handle.read() == b"hello"

    def test_replaces_existing_file(self, tmp_path):
        path = str(tmp_path / "report.md")
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        with open(path) as handle:
            assert handle.read() == "second"

    def test_leaves_no_temp_file_behind(self, tmp_path):
        path = str(tmp_path / "out.bin")
        atomic_write_bytes(path, b"data")
        assert os.listdir(str(tmp_path)) == ["out.bin"]


class TestSnapshotCodec:
    def test_roundtrip(self):
        payload = {"week": 3, "items": [1, 2, 3]}
        assert decode_snapshot(encode_snapshot(payload)) == payload

    def test_truncated_header_rejected(self):
        with pytest.raises(SnapshotCorruption):
            decode_snapshot(b"SN")

    def test_wrong_magic_rejected(self):
        data = bytearray(encode_snapshot("x"))
        data[0] ^= 0xFF
        with pytest.raises(SnapshotCorruption):
            decode_snapshot(bytes(data))

    def test_flipped_payload_bit_rejected(self):
        data = bytearray(encode_snapshot({"a": 1}))
        data[-1] ^= 0x01
        with pytest.raises(SnapshotCorruption):
            decode_snapshot(bytes(data))


class TestKeyFilename:
    def test_stable_and_distinct(self):
        a = key_filename(("week", 3))
        assert a == key_filename(("week", 3))
        assert a != key_filename(("week", 4))

    def test_unusual_characters_sanitized_without_collision(self):
        a = key_filename(("stage", "a/b"))
        b = key_filename(("stage", "a:b"))
        assert "/" not in a and ":" not in b
        assert a != b  # the crc suffix keeps collapsed names distinct


class TestSnapshotStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snaps"))
        store.save(("unit", 0), {"result": [1, 2]})
        assert store.load(("unit", 0)) == {"result": [1, 2]}

    def test_corrupt_file_raises(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snaps"))
        store.save(("week", 0), "payload")
        path = store.path_for(("week", 0))
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\x00")
        with pytest.raises(SnapshotCorruption):
            store.load(("week", 0))

    def test_missing_raises_file_not_found(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snaps"))
        with pytest.raises(FileNotFoundError):
            store.load(("never", "written"))

    def test_discard(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snaps"))
        store.save(("x",), 1)
        store.discard(("x",))
        store.discard(("x",))  # idempotent
        with pytest.raises(FileNotFoundError):
            store.load(("x",))

    def test_perf_counters(self, tmp_path):
        perf = PerfRegistry()
        store = SnapshotStore(str(tmp_path / "snaps"), perf=perf)
        store.save(("a",), "payload")
        assert perf.counter("checkpoint_snapshots_written") == 1
        assert perf.counter("checkpoint_snapshot_bytes") > 0
