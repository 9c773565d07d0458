"""Reconcile a replayed Coordinator against live MSU StateReports.

The journal is authoritative for durable facts — customers, the table of
contents, sessions, parked tickets.  For what is *streaming right now*
the MSUs are authoritative: terminations, patch drains and downgrades
that happened while the Coordinator was dead were sent into a closed
control channel and are gone forever.  So every discrepancy resolves
**MSU-wins**, each part of the Coordinator resolving its own
(:meth:`~repro.recovery.parts.Part.reconcile`): free-block counts and
prefix pins come from the MSUs, coordinator-side streams the MSU is not
serving are dropped and MSU-side streams nobody recorded are adopted,
and channels and their subscriber sets are intersected the same way.

Afterwards :func:`rebuild_books` recomputes every admission book from
the surviving allocations — charge by charge, in deterministic order —
so the post-recovery books equal a from-scratch reconciliation *by
construction* (:func:`expected_books` is that from-scratch sum, and E20
asserts byte-identical JSON between the two).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.admission import Allocation
    from repro.core.coordinator import Coordinator
    from repro.net.messages import StateReport

__all__ = ["RecoveryOutcome", "reconcile", "rebuild_books", "expected_books",
           "books_state"]


@dataclass
class RecoveryOutcome:
    """What one Coordinator restart found and fixed (metrics/report)."""

    time_to_recover: float = 0.0
    wal_records: int = 0
    snapshot_seq: int = 0
    msus_reported: int = 0
    msus_missing: int = 0
    streams_kept: int = 0
    streams_dropped: int = 0
    streams_adopted: int = 0
    channels_kept: int = 0
    channels_dropped: int = 0
    channels_adopted: int = 0
    subscribers_dropped: int = 0
    pins_reset: int = 0
    tickets_recovered: int = 0
    discrepancies: List[str] = field(default_factory=list)


def reconcile(
    coord: "Coordinator",
    reports: Sequence["StateReport"],
    missing: Sequence[str] = (),
) -> RecoveryOutcome:
    """Resolve replayed state against MSU truth; returns the outcome."""
    outcome = RecoveryOutcome(
        msus_reported=len(reports), msus_missing=len(missing)
    )
    # An expected MSU that never reported is treated exactly like a broken
    # control connection: drop its groups, queue resume tickets, zero it.
    for name in sorted(missing):
        outcome.discrepancies.append(f"{name}: no StateReport; declared failed")
        coord._msu_failed(name, reason="no-state-report")
    by_msu = {report.msu_name: report for report in reports}
    for part in coord.parts:
        part.reconcile(by_msu, outcome)
    rebuild_books(coord)
    outcome.tickets_recovered = len(coord.admission.queue)
    return outcome


def _held(coord: "Coordinator") -> Iterator["Allocation"]:
    """Every surviving allocation, part by part in ``coord.parts`` order:
    groups by id and streams by id, then multicast channels by id."""
    for part in coord.parts:
        yield from part.held_allocations()


def rebuild_books(coord: "Coordinator") -> None:
    """Recompute every admission book from the surviving allocations.

    Charges are re-applied in :func:`_held` order so the result is
    bit-identical to :func:`expected_books`.  Free-block counts are *not*
    touched: they were just set from allocator truth, which already
    accounts for recording reservations MSU-side.
    """
    db = coord.db
    for state in db.msus.values():
        state.delivery_used = 0.0
        state.active_streams = 0
        state.cache_used = 0.0
        for disk in state.disks.values():
            disk.bandwidth_used = 0.0
    for entry in db.contents.values():
        entry.active.clear()
    if coord.shards is not None:
        # Escrow spends re-derive through the observer as each charge
        # below re-applies; grants stay as replayed (they are durable).
        coord.shards.reset_spent()
    for alloc in _held(coord):
        coord.admission.apply(alloc, reserve_blocks=False)


def books_state(coord: "Coordinator") -> dict:
    """The *actual* admission books in canonical JSON-safe form."""
    state: dict = {"msus": {}, "active": {}}
    for name in sorted(coord.db.msus):
        msu = coord.db.msus[name]
        state["msus"][name] = {
            "delivery_used": msu.delivery_used,
            "cache_used": msu.cache_used,
            "active_streams": msu.active_streams,
            "disks": {
                disk_id: msu.disks[disk_id].bandwidth_used
                for disk_id in sorted(msu.disks)
            },
        }
    for content_name in sorted(coord.db.contents):
        entry = coord.db.contents[content_name]
        if entry.active:
            state["active"][content_name] = {
                f"{loc[0]}/{loc[1]}": count
                for loc, count in sorted(entry.active.items())
            }
    return state


def expected_books(coord: "Coordinator") -> dict:
    """The books a from-scratch reconciliation would produce.

    Sums the surviving allocations in exactly :func:`rebuild_books`'
    order, so immediately after a recovery ``books_state(coord) ==
    expected_books(coord)`` holds with float equality, not just within
    epsilon.
    """
    delivery: Dict[str, float] = {}
    cache: Dict[str, float] = {}
    streams: Dict[str, int] = {}
    disk_bw: Dict[Tuple[str, str], float] = {}
    active: Dict[str, Dict[Tuple[str, str], int]] = {}
    for alloc in _held(coord):
        delivery[alloc.msu_name] = (
            delivery.get(alloc.msu_name, 0.0) + alloc.bandwidth
        )
        streams[alloc.msu_name] = streams.get(alloc.msu_name, 0) + 1
        if alloc.cache_covered:
            cache[alloc.msu_name] = (
                cache.get(alloc.msu_name, 0.0) + alloc.bandwidth
            )
        else:
            key = (alloc.msu_name, alloc.disk_id)
            disk_bw[key] = disk_bw.get(key, 0.0) + alloc.bandwidth
        if alloc.content_name and alloc.content_name in coord.db.contents:
            counts = active.setdefault(alloc.content_name, {})
            loc = (alloc.msu_name, alloc.disk_id)
            counts[loc] = counts.get(loc, 0) + 1

    state: dict = {"msus": {}, "active": {}}
    for name in sorted(coord.db.msus):
        msu = coord.db.msus[name]
        state["msus"][name] = {
            "delivery_used": delivery.get(name, 0.0),
            "cache_used": cache.get(name, 0.0),
            "active_streams": streams.get(name, 0),
            "disks": {
                disk_id: disk_bw.get((name, disk_id), 0.0)
                for disk_id in sorted(msu.disks)
            },
        }
    for content_name in sorted(active):
        state["active"][content_name] = {
            f"{loc[0]}/{loc[1]}": count
            for loc, count in sorted(active[content_name].items())
        }
    return state
