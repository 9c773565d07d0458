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
  of MSUs) and takes over within one ``report_grace``.  It is promoted
  exactly as a cold-restarted Coordinator is: one StateReport round
  trip (0.003 s in E20) and the MSU-wins reconcile, so E24's takeover
  reopens admissions 0.303 s after the leader dies.  MSUs keep serving
  throughout.
* :mod:`repro.scaleout.escrow` — **sharded admission**: N coordinator
  shards partitioned by content, each holding an escrowed slice of
  every disk's bandwidth book with a journaled refill/steal protocol,
  admitting in parallel without double-spending a disk slot.

:class:`ScaleOutConfig` bundles the knobs; ``ClusterConfig.scaleout``
carries it (None keeps the single-Coordinator shape of PRs 1-8).
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ScaleOutConfig:
    """Shape of the Coordinator tier."""

    #: Admission shards (1 reproduces the serial single Coordinator).
    shards: int = 1
    #: Keep a warm standby tailing the journal from cluster bring-up.
    standby: bool = False
    #: Escrow refill quantum as a fraction of disk capacity (per split).
    refill_fraction: float = 0.25
    #: Simulated seconds one shard spends per admission decision
    #: (0 = free; E24 sets it to measure the parallel speedup).
    admit_service_time: float = 0.0
