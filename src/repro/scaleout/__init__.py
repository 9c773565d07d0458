"""Coordinator scale-out: warm-standby takeover + sharded admission.

The paper runs exactly one Coordinator and concedes both halves of the
cost: it is a single point of failure *and* a serialization point for
every admission decision.  ``repro.recovery`` (PR 5) fixed the
durability half with a WAL + cold restart; this package removes the
restart downtime and the serial bottleneck:

* :mod:`repro.scaleout.standby` — a **warm standby** Coordinator that
  continuously tails the leader's journal into a shadow replica,
  detects leader loss via heartbeats
  (:class:`repro.failover.HeartbeatMonitor` watching the leader instead
  of MSUs) and takes over within one ``report_grace`` — no restart-time
  ReportState storm; MSUs keep serving throughout, and the few
  terminations that died with the leader's sockets are reconciled from
  the next heartbeat's stream positions.
* :mod:`repro.scaleout.escrow` — **sharded admission**: N coordinator
  shards partitioned by content, each holding an escrowed slice of
  every disk's bandwidth book with a journaled refill/steal protocol,
  admitting in parallel without double-spending a disk slot.

:class:`ScaleOutConfig` bundles the knobs; ``ClusterConfig.scaleout``
carries it (None keeps the single-Coordinator shape of PRs 1-8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.failover.heartbeat import HeartbeatConfig
from repro.scaleout.escrow import EscrowBook, ShardSet, shard_for
from repro.scaleout.standby import StandbyCoordinator, TakeoverOutcome

__all__ = [
    "ScaleOutConfig",
    "EscrowBook",
    "ShardSet",
    "shard_for",
    "StandbyCoordinator",
    "TakeoverOutcome",
]


def _leader_heartbeat_default() -> HeartbeatConfig:
    # Tighter than the MSU detector: worst-case detection is
    # 0.1*2 + 0.1 = 0.3s, safely inside the default report_grace of 1s
    # so a takeover always lands within one grace window.
    return HeartbeatConfig(
        period=0.1, miss_threshold=2, suspect_backoff=0.1, suspect_probes=1
    )


@dataclass(frozen=True)
class ScaleOutConfig:
    """Shape of the Coordinator tier."""

    #: Admission shards (1 reproduces the serial single Coordinator).
    shards: int = 1
    #: Keep a warm standby tailing the journal from cluster bring-up.
    standby: bool = False
    #: Liveness detector the standby points at the leader.
    leader_heartbeat: HeartbeatConfig = field(
        default_factory=_leader_heartbeat_default
    )
    #: Escrow refill quantum as a fraction of disk capacity (per split).
    refill_fraction: float = 0.25
    #: Simulated seconds one shard spends per admission decision
    #: (0 = free; E24 sets it to measure the parallel speedup).
    admit_service_time: float = 0.0
