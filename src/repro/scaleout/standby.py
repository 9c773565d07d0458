"""Warm-standby Coordinator: journal tailing, leader watch, takeover.

The cold-restart path (``repro.recovery``) rebuilds a Coordinator from
stable storage *after* the loss is noticed, then holds admissions for a
``report_grace`` window while every MSU answers a ReportState probe.
The warm standby removes both delays:

* **Tailing.**  A shadow Coordinator is built passive
  (``standby=True``: no EPG slots, no edge-placement loop, escrow in
  replay mode) and a poll process applies the leader's journal into it
  every ``TAIL_POLL`` seconds — a fresh snapshot re-restores the shadow
  wholesale, new WAL records apply incrementally.  At any instant the
  shadow is at most one poll interval behind the leader's durable state.
* **Detection.**  The leader beats the standby's
  :class:`~repro.failover.heartbeat.HeartbeatMonitor` (via
  :meth:`beat_for`, the generalized intake) every
  ``LEADER_HEARTBEAT.period`` seconds; the standard
  alive/suspect/dead machine turns silence into a verdict in
  ``detection_latency`` seconds — tuned well inside ``report_grace``.
* **Takeover.**  On the verdict the standby drains the journal tail one
  last time, activates its passive managers, assumes the cluster's
  control plane (fresh MSU/edge channels) and re-opens admissions
  immediately.  There is no ReportState storm: the replayed stream
  tables are trusted as-is, and the only divergence a dead leader can
  cause — terminations reported into its closed sockets — is healed by
  diffing each MSU's *next heartbeat* positions against the tables
  (:meth:`Coordinator._warm_reconcile`).  MSUs keep serving throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.failover.heartbeat import HeartbeatConfig, HeartbeatMonitor
from repro.recovery import apply_record, restore_state

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cluster import CalliopeCluster
    from repro.core.coordinator import Coordinator

__all__ = ["StandbyCoordinator", "TakeoverOutcome", "LEADER", "LEADER_HEARTBEAT"]

#: Endpoint name the leader beacon beats under.
LEADER = "leader"

#: The leader's liveness detector, tighter than the MSUs': worst-case
#: detection is 0.1*2 + 0.1 = 0.3s, safely inside the default
#: report_grace of 1s, so a takeover always lands within one grace window.
LEADER_HEARTBEAT = HeartbeatConfig(
    period=0.1, miss_threshold=2, suspect_backoff=0.1, suspect_probes=1
)

#: Seconds between the standby's journal reads.
TAIL_POLL = 0.1


@dataclass(frozen=True)
class TakeoverOutcome:
    """One completed standby promotion (experiments/invariants read it)."""

    #: Sim time the old leader actually died.
    leader_lost_at: float
    #: Sim time the standby's detector returned the dead verdict.
    detected_at: float
    #: Sim time the standby finished assuming the cluster.
    completed_at: float
    #: WAL records the standby had applied while shadowing.
    records_tailed: int
    #: Snapshot re-restores while shadowing (journal truncations seen).
    resyncs: int
    #: Admitted streams on the books at the moment of takeover.
    streams_at_takeover: int

    @property
    def detection_latency(self) -> float:
        return self.detected_at - self.leader_lost_at

    @property
    def takeover_latency(self) -> float:
        return self.completed_at - self.leader_lost_at


class StandbyCoordinator:
    """A shadow Coordinator tailing the cluster's journal, ready to lead."""

    def __init__(
        self,
        cluster: "CalliopeCluster",
        name: str = "coordinator-standby",
    ):
        if cluster.journal is None:
            raise ValueError("warm standby requires the recovery journal")
        self.cluster = cluster
        self.sim = cluster.sim
        self.shadow: "Coordinator" = cluster.build_coordinator(
            name=name, standby=True
        )
        #: Leader liveness detector, fed by the cluster's beacon.
        self.leader_monitor = HeartbeatMonitor(
            self.sim, LEADER_HEARTBEAT, on_dead=self._leader_dead
        )
        #: Journal position: highest record seq applied to the shadow.
        self.applied_seq = 0
        self._primed = False
        self.records_tailed = 0
        self.resyncs = 0
        self.promoted = False
        self.stopped = False
        self.outcome: Optional[TakeoverOutcome] = None
        self.sim.process(self._tail_loop(), name=f"{name}.tail")

    # -- journal tailing -------------------------------------------------------

    def sync(self) -> int:
        """Apply everything durable the shadow has not seen; returns count.

        A snapshot whose ``snapshot_seq`` passed ``applied_seq`` means
        the log was truncated past our position — re-restore wholesale.
        The very first sync always takes the snapshot (the seed snapshot
        sits at seq 0, which an incremental check would skip).
        """
        store = self.cluster.journal
        applied = 0
        if store.snapshot is not None and (
            not self._primed or store.snapshot_seq > self.applied_seq
        ):
            restore_state(self.shadow, store.snapshot)
            if self._primed:
                self.resyncs += 1
            self.applied_seq = store.snapshot_seq
        self._primed = True
        for record in store.records:
            if record.seq <= self.applied_seq:
                continue
            apply_record(self.shadow, record.kind, record.payload)
            self.applied_seq = record.seq
            self.records_tailed += 1
            applied += 1
        return applied

    def _tail_loop(self) -> Generator:
        while not self.stopped and not self.promoted:
            self.sync()
            yield self.sim.timeout(TAIL_POLL)

    # -- leader watch ----------------------------------------------------------

    def leader_beat(self) -> None:
        """The cluster's beacon: the leader is alive right now."""
        if not self.stopped and not self.promoted:
            self.leader_monitor.beat_for(LEADER)

    def _leader_dead(self, _name: str) -> None:
        if self.stopped or self.promoted:
            return
        if not self.cluster.coordinator_down:
            # Stale verdict: the leader was cold-restarted before the
            # watchdog fired.  Stand down; the beacon's next beat
            # re-arms the watch (beat_for revives a stopped record).
            return
        self.takeover()

    # -- promotion -------------------------------------------------------------

    def takeover(self) -> TakeoverOutcome:
        """Assume the cluster: final tail drain, activate, re-wire.

        Entirely synchronous — by the time the dead verdict lands, the
        shadow *is* the replayed state; there is nothing to wait for.
        """
        detected_at = self.sim.now
        self.sync()
        self.promoted = True
        self.leader_monitor.stop_all()
        streams = sum(
            len(group.streams) for group in self.shadow.groups.values()
        )
        self.cluster.promote_standby(self)
        lost_at = getattr(self.cluster, "leader_lost_at", detected_at)
        self.outcome = TakeoverOutcome(
            leader_lost_at=lost_at,
            detected_at=detected_at,
            completed_at=self.sim.now,
            records_tailed=self.records_tailed,
            resyncs=self.resyncs,
            streams_at_takeover=streams,
        )
        self.cluster.takeovers.append(self.outcome)
        return self.outcome

    def stop(self) -> None:
        """Decommission the standby (it will neither tail nor promote)."""
        self.stopped = True
        self.leader_monitor.stop_all()
