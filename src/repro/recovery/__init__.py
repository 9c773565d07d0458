"""Coordinator crash recovery: WAL, snapshots, MSU-state reconciliation."""

from repro.recovery.journal import JournalRecord, JournalStore, RecoveryConfig
from repro.recovery.reconcile import (
    RecoveryOutcome,
    books_state,
    expected_books,
    rebuild_books,
    reconcile,
)
from repro.recovery.state import (
    apply_record,
    recover,
    restore_state,
    snapshot_state,
)

__all__ = [
    "RecoveryConfig",
    "JournalRecord",
    "JournalStore",
    "snapshot_state",
    "restore_state",
    "apply_record",
    "recover",
    "reconcile",
    "rebuild_books",
    "expected_books",
    "books_state",
    "RecoveryOutcome",
]
