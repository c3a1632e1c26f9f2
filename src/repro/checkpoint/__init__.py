"""Crash-safe checkpointing: write-ahead journal, atomic snapshots, resume.

See :mod:`repro.checkpoint.run` for the supervisor that ties the pieces
together, and ``DESIGN.md`` ("Durability & resume") for the invariants.
"""

from repro.checkpoint.feed import CheckpointFeed, scan_journal
from repro.checkpoint.journal import Journal, JournalReplay
from repro.checkpoint.ledger import NET_COUNTERS, Ledger, apply_delta
from repro.checkpoint.run import (
    NULL_SCOPE,
    CheckpointedRun,
    CheckpointScope,
)
from repro.checkpoint.state import (
    capture_dns_caches,
    capture_world_state,
    churn_digest,
    restore_dns_caches,
    restore_world_state,
)
from repro.checkpoint.store import (
    CheckpointError,
    FormatError,
    SnapshotCorruption,
    SnapshotStore,
    atomic_write_bytes,
    atomic_write_text,
    decode_snapshot,
    encode_snapshot,
    key_filename,
)

__all__ = [
    "CheckpointError",
    "CheckpointFeed",
    "CheckpointScope",
    "CheckpointedRun",
    "FormatError",
    "Journal",
    "JournalReplay",
    "Ledger",
    "NET_COUNTERS",
    "NULL_SCOPE",
    "SnapshotCorruption",
    "SnapshotStore",
    "apply_delta",
    "atomic_write_bytes",
    "atomic_write_text",
    "capture_dns_caches",
    "capture_world_state",
    "churn_digest",
    "restore_dns_caches",
    "decode_snapshot",
    "encode_snapshot",
    "key_filename",
    "restore_world_state",
    "scan_journal",
]
