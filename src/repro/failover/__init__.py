"""Failover: heartbeats, mid-stream migration, degraded-mode admission.

The paper stops at failure *detection* — a broken MSU control connection
takes the machine out of scheduling and its streams die (§2.2).  This
package adds the recovery half:

- :mod:`repro.failover.heartbeat` — MSUs beat periodically with stream
  positions; a suspect/dead state machine with exponential backoff
  detects silent failures faster than the TCP break.
- :mod:`repro.failover.migrator` — dead MSUs' playback groups are
  re-admitted on surviving replicas and resumed from their last
  reported position with a new ``ResumePlay`` message.

While capacity is lost, the scheduling queue is a priority queue:
interrupted streams first, then new requests for titles down to one live
copy.  The bands and the resume ticket live in :mod:`repro.core.admission`,
because the core's queue orders by them.

:class:`FailoverConfig` bundles the knobs; ``ClusterConfig.failover``
carries it to the Coordinator and the MSUs (None disables everything and
reproduces the paper's behavior exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.failover.heartbeat import (
    EndpointHealth,
    HeartbeatConfig,
    HeartbeatMonitor,
    MsuHealth,
)
from repro.failover.migrator import MigrationRecord, StreamMigrator

__all__ = [
    "FailoverConfig",
    "HeartbeatConfig",
    "HeartbeatMonitor",
    "EndpointHealth",
    "MsuHealth",
    "MigrationRecord",
    "StreamMigrator",
]


@dataclass(frozen=True)
class FailoverConfig:
    """Everything the failover subsystem needs to know."""

    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)
