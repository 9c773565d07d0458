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
- :mod:`repro.failover.degraded` — while capacity is lost, the
  scheduling queue becomes a priority queue: interrupted streams first,
  then new requests for titles down to one live copy.

:class:`FailoverConfig` bundles the knobs; ``ClusterConfig.failover``
carries it to the Coordinator and the MSUs (None disables everything and
reproduces the paper's behavior exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.failover.degraded import (
    PRIORITY_NORMAL,
    PRIORITY_RESUME,
    PRIORITY_SINGLE_COPY,
    is_degraded,
    live_locations,
    play_priority,
)
from repro.failover.heartbeat import (
    EndpointHealth,
    HeartbeatConfig,
    HeartbeatMonitor,
    MsuHealth,
)
from repro.failover.migrator import (
    MemberResume,
    MigrationRecord,
    ResumeTicket,
    StreamMeta,
    StreamMigrator,
)

__all__ = [
    "FailoverConfig",
    "HeartbeatConfig",
    "HeartbeatMonitor",
    "EndpointHealth",
    "MsuHealth",
    "StreamMeta",
    "MemberResume",
    "ResumeTicket",
    "MigrationRecord",
    "StreamMigrator",
    "PRIORITY_RESUME",
    "PRIORITY_SINGLE_COPY",
    "PRIORITY_NORMAL",
    "is_degraded",
    "live_locations",
    "play_priority",
]


@dataclass(frozen=True)
class FailoverConfig:
    """Everything the failover subsystem needs to know."""

    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)
