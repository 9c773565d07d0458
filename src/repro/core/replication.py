"""Popularity-driven content replication (extension of §2.3.3).

The paper keeps each file on a single disk and notes the consequence:
"If each of the N items were on separate disks, only 1/N of the system's
customers can access any one item of content.  In the non-striped case,
we can make copies of popular content on several disks, but we must
anticipate usage trends in order to choose the content to copy.  We must
also use additional disk space to get additional disk bandwidth."

This module implements exactly that administrative mechanism: it watches
the Coordinator's per-content play counts, picks hot items whose home
disks run close to their bandwidth caps, and copies them to the disk with
the most free bandwidth.  Placement (``AdmissionControl.place_read``)
then load-balances across replicas automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.database import ContentEntry, DiskState
from repro.errors import CalliopeError, OutOfSpaceError

if TYPE_CHECKING:  # pragma: no cover - the composition root sits above core
    from repro.core.cluster import CalliopeCluster

__all__ = ["ReplicationManager", "ReplicationDecision"]


@dataclass(frozen=True)
class ReplicationDecision:
    """One copy the manager made (for logs and tests)."""

    content_name: str
    source: Tuple[str, str]
    target: Tuple[str, str]


class ReplicationManager:
    """The administrator's usage-trend watcher."""

    def __init__(
        self,
        cluster: CalliopeCluster,
        hot_play_count: int = 5,
        disk_load_threshold: float = 0.7,
        max_replicas: int = 2,
        restore_copies: int = 2,
    ):
        self.cluster = cluster
        self.hot_play_count = hot_play_count
        self.disk_load_threshold = disk_load_threshold
        self.max_replicas = max_replicas
        #: Live copies restore_replicas() re-establishes after a failure.
        self.restore_copies = restore_copies
        self.decisions: List[ReplicationDecision] = []

    # -- policy ----------------------------------------------------------

    def _live_locations(self, entry: ContentEntry) -> List[Tuple[str, str]]:
        """The entry's copies hosted on MSUs currently marked up."""
        db = self.cluster.coordinator.db
        live = []
        for msu_name, disk_id in entry.locations():
            state = db.msus.get(msu_name)
            if state is not None and state.available:
                live.append((msu_name, disk_id))
        return live

    def _hot_entries(self) -> List[ContentEntry]:
        # Demand counts every request, including queued/blocked ones: the
        # titles admission turned away are exactly the ones replication
        # (and prefix pinning) should relieve.  Only copies on live MSUs
        # count toward max_replicas — a dead copy serves nobody and must
        # not block re-replication.
        db = self.cluster.coordinator.db
        hot = [
            entry
            for entry in db.contents.values()
            if not entry.components
            and entry.msu_name
            and entry.demand >= self.hot_play_count
            and len(self._live_locations(entry)) <= self.max_replicas
        ]
        return sorted(hot, key=lambda e: e.demand, reverse=True)

    def _home_disk_loaded(self, entry: ContentEntry) -> bool:
        db = self.cluster.coordinator.db
        loads = []
        for msu_name, disk_id in entry.locations():
            state = db.msus.get(msu_name)
            if state is None:
                continue
            disk = state.disks.get(disk_id)
            if disk is not None:
                loads.append(disk.bandwidth_used / disk.bandwidth_capacity)
        return bool(loads) and min(loads) >= self.disk_load_threshold

    def _pick_target(self, entry: ContentEntry) -> Optional[DiskState]:
        """The disk with the most free bandwidth that lacks a copy.

        Machines without any copy rank ahead of a second disk on a
        machine that already has one: a replica on a fresh MSU adds
        failure independence as well as bandwidth.
        """
        db = self.cluster.coordinator.db
        taken = set(entry.locations())
        copy_msus = {msu_name for msu_name, _disk_id in taken}
        best: Optional[DiskState] = None
        best_key = None
        for state in db.available_msus():
            for disk in state.disks.values():
                if (state.name, disk.disk_id) in taken:
                    continue
                if disk.free_blocks < entry.blocks:
                    continue
                key = (state.name in copy_msus, -disk.bandwidth_free())
                if best is None or key < best_key:
                    best, best_key = disk, key
        return best

    # -- mechanism ----------------------------------------------------------

    def replicate(self, content_name: str, msu_name: str, disk_id: str
                  ) -> ReplicationDecision:
        """Copy one content item to a specific disk (admin path)."""
        db = self.cluster.coordinator.db
        entry = db.content(content_name)
        if (msu_name, disk_id) in entry.locations():
            raise CalliopeError(f"{content_name!r} already has a copy on {disk_id}")
        # Copy from a live location when one exists (the primary may be
        # the machine that just failed); fall back to the primary's disks,
        # which survive a crash intact.
        live = self._live_locations(entry)
        source_loc = live[0] if live else (entry.msu_name, entry.disk_id)
        source_msu = self.cluster.msu_named(source_loc[0])
        target_msu = self.cluster.msu_named(msu_name)
        source_fs = source_msu.filesystems[source_loc[1]]
        target_fs = target_msu.filesystems[disk_id]
        source = source_fs.open(content_name)
        copy = target_fs.create(content_name, source.content_type)
        for index in range(source.nblocks):
            target_fs.append_block_sync(copy, source_fs.read_block_sync(source, index))
        copy.root = source.root
        copy.duration_us = source.duration_us
        copy.fast_forward = source.fast_forward
        copy.fast_backward = source.fast_backward
        db.add_replica(content_name, msu_name, disk_id)
        db.adjust_free_blocks(msu_name, disk_id, -copy.nblocks)
        decision = ReplicationDecision(
            content_name, source_loc, (msu_name, disk_id)
        )
        self.decisions.append(decision)
        return decision

    def rebalance(self) -> List[ReplicationDecision]:
        """One policy pass: copy hot items off their loaded home disks."""
        made = []
        for entry in self._hot_entries():
            if not self._home_disk_loaded(entry):
                continue
            target = self._pick_target(entry)
            if target is None:
                continue
            try:
                made.append(
                    self.replicate(entry.name, target.msu_name, target.disk_id)
                )
            except (OutOfSpaceError, CalliopeError):
                continue
        return made

    # -- failure response (failover extension) ------------------------------

    def restore_replicas(self, content_names: List[str]) -> List[ReplicationDecision]:
        """Re-establish replica counts for titles that just lost a copy.

        Called (directly or through :meth:`watch`) after an MSU failure
        with the titles that had a copy on the dead machine; each one
        below ``restore_copies`` live copies is copied from a surviving
        location to the best disk without one.
        """
        db = self.cluster.coordinator.db
        made = []
        for name in content_names:
            entry = db.contents.get(name)
            if entry is None or entry.components:
                continue
            live = self._live_locations(entry)
            if not live or len(live) >= self.restore_copies:
                continue
            target = self._pick_target(entry)
            if target is None:
                continue
            try:
                made.append(
                    self.replicate(name, target.msu_name, target.disk_id)
                )
            except (OutOfSpaceError, CalliopeError):
                continue
        return made

    def watch(self, coordinator=None) -> None:
        """Arm the Coordinator's capacity-lost hook to restore replicas."""
        coord = coordinator if coordinator is not None else self.cluster.coordinator

        def _on_capacity_lost(_msu_name: str, lost_titles: List[str]) -> None:
            self.restore_replicas(lost_titles)

        coord.on_capacity_lost = _on_capacity_lost
