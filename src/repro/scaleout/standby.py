"""Warm-standby Coordinator: journal tailing, leader watch, takeover.

The cold-restart path (``repro.recovery``) rebuilds a Coordinator from
stable storage *after* the loss is noticed.  The warm standby has that
rebuild done before the loss, so a takeover costs only detection plus
the reconcile both paths share:

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
  last time and the cluster promotes the shadow exactly as it promotes
  a cold-restarted Coordinator (``CalliopeCluster._promote``): fresh
  MSU/edge channels, admissions held while every up MSU answers one
  ReportState round trip, MSU-wins reconciliation, admissions reopen.
  The round trip is three intra-server hops (3 ms; E20 measures the
  same barrier at 0.003 s), so E24's takeover lands at 0.303 s, inside
  one ``report_grace``.  MSUs keep serving throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.core.coordinator import Coordinator
from repro.failover.heartbeat import HeartbeatConfig, HeartbeatMonitor
from repro.recovery import apply_record, restore_state

if TYPE_CHECKING:  # pragma: no cover - core.cluster sits above scaleout
    from repro.core.cluster import CalliopeCluster

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
    #: Sim time reconciliation completed and admissions reopened.
    completed_at: float
    #: WAL records the standby had applied while shadowing.
    records_tailed: int

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
        self.cluster = cluster
        self.sim = cluster.sim
        self.shadow: Coordinator = cluster.build_coordinator(
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
        self.promoted = False
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
        while not self.promoted:
            self.sync()
            yield self.sim.timeout(TAIL_POLL)

    # -- leader watch ----------------------------------------------------------

    def leader_beat(self) -> None:
        """The cluster's beacon: the leader is alive right now."""
        if not self.promoted:
            self.leader_monitor.beat_for(LEADER)

    def _leader_dead(self, _name: str) -> None:
        if self.promoted:
            return
        if not self.cluster.coordinator_down:
            # Stale verdict: the leader was cold-restarted before the
            # watchdog fired.  Stand down; the beacon's next beat
            # re-arms the watch (beat_for revives a stopped record).
            return
        self.takeover()

    # -- promotion -------------------------------------------------------------

    def takeover(self) -> None:
        """Assume the cluster: final tail drain, then promotion.

        The outcome is recorded when reconciliation completes and
        admissions reopen, one StateReport round trip after the verdict.
        """
        detected_at = self.sim.now
        self.sync()
        self.promoted = True
        self.leader_monitor.stop_all()
        self.cluster.promote_standby(self).add_callback(
            lambda _event: self.cluster.takeovers.append(TakeoverOutcome(
                self.cluster.leader_lost_at, detected_at, self.sim.now,
                self.records_tailed,
            ))
        )
