"""Snapshot, restore and WAL replay as walks over the Coordinator's parts.

:func:`snapshot_state` merges every part's sections into one
``calliope-snapshot-v1`` image, :func:`restore_state` hands that image to
every part (each replaces its own state), :func:`apply_record` routes one
journal record to the part whose ``REPLAY`` table owns its kind, and
:func:`recover` is restore plus replay.  A record kind, or a non-empty
snapshot section, that no part of this Coordinator owns raises: replay
either rebuilds the journaled state or refuses loudly.

Only durable control-plane state is captured.  Live wiring (control
channels, heartbeat records, in-flight batch windows) is deliberately
absent; channels are re-established when MSUs reattach after a restart,
and what the snapshot cannot know about the real-time half is reconciled
against MSU StateReports afterwards (:mod:`repro.recovery.reconcile`).
Journaling is detached while this runs, so handlers may call the same
methods the live mutations use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.recovery.journal import JournalStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.coordinator import Coordinator

__all__ = [
    "SNAPSHOT_FORMAT", "snapshot_state", "restore_state", "apply_record",
    "recover",
]

SNAPSHOT_FORMAT = "calliope-snapshot-v1"


def snapshot_state(coord: "Coordinator") -> dict:
    """One JSON-safe image of every durable Coordinator structure."""
    state = {"format": SNAPSHOT_FORMAT}
    for part in coord.parts:
        for section, value in part.snapshot().items():
            if section in state:
                state[section].update(value)  # a section two parts share
            else:
                state[section] = value
    return state


def restore_state(coord: "Coordinator", state: dict) -> None:
    """Replace ``coord``'s durable state with a :func:`snapshot_state` image."""
    if state.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"not a Calliope snapshot: {state.get('format')!r}")
    owned = {section for part in coord.parts for section in part.SECTIONS}
    stray = sorted(
        section for section, value in state.items()
        if section != "format" and section not in owned
        and value not in (None, {}, [])
    )
    if stray:
        raise ValueError(
            f"snapshot sections no part of this Coordinator owns: {stray}"
        )
    for part in coord.parts:
        part.load(state)


def apply_record(coord: "Coordinator", kind: str, payload: dict) -> None:
    """Re-apply one journaled mutation to ``coord``."""
    for part in coord.parts:
        handler = part.REPLAY.get(kind)
        if handler is not None:
            handler(part, payload)
            return
    raise ValueError(f"no part of this Coordinator replays {kind!r} records")


def recover(coord: "Coordinator", store: JournalStore) -> int:
    """Restore the snapshot, replay the WAL tail; returns records replayed.

    The caller attaches the journal *afterwards* — replay itself must not
    generate new records.
    """
    coord.set_replaying(True)
    try:
        if store.snapshot is not None:
            restore_state(coord, store.snapshot)
        for record in store.records:
            apply_record(coord, record.kind, record.payload)
    finally:
        coord.set_replaying(False)
    return len(store.records)
