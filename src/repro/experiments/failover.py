"""Experiment E17 (extension) — MSU failover: detection, migration, recovery.

The paper's failure story ends at detection: a broken MSU control
connection takes the machine out of scheduling and its streams die
(§2.2).  This experiment measures the recovery half added by
:mod:`repro.failover`, in the failure mode TCP cannot report — a silent
hang (:meth:`CalliopeCluster.hang_msu`).

Two scenarios on the same loaded cluster:

* **replicated** — every title on the victim MSU has a replica on a
  survivor (made by the ReplicationManager, as PR 1's demand-driven
  policy would).  After the hang, the heartbeat monitor declares the MSU
  dead and the migrator resumes its streams on the survivors.  Measured:
  fraction of victim streams resumed, each viewer's delivery blackout
  (the *resume gap*, from the port's packet arrivals), and the time
  until every victim stream is flowing again.  The acceptance bar is
  ≥ 80% resumed within the detection budget (heartbeat timeout plus one
  duty cycle's worth of refill).

* **single-copy** — the victim holds the only copy of every title.
  Nothing can migrate: every ticket parks on the admission queue at
  resume priority and *zero* streams flow during the outage.  When the
  MSU recovers (``cluster.recover``), its hello triggers the queue
  retry and every parked stream resumes where it left off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.core.replication import ReplicationManager
from repro.experiments import Experiment, headline
from repro.experiments._support import load_titles, start_viewers
from repro.failover import FailoverConfig, HeartbeatConfig
from repro.sim import Simulator
from repro.storage import SMALL_PAGES

__all__ = ["FailoverPoint", "run_failover", "format_failover"]

#: Fast detection so the experiment stays short; the budget property
#: scales with whatever is configured here.
_HEARTBEAT = HeartbeatConfig(
    period=0.2, miss_threshold=3, suspect_backoff=0.2,
    backoff_factor=2.0, suspect_probes=2,
)

#: One duty cycle's worth of slack for the new MSU to refill buffers and
#: for the resumed schedule to reach the client.
_DUTY_CYCLE_ALLOWANCE = 1.0

#: Packets already on the delivery network when the MSU hangs drain
#: within milliseconds; gaps are measured past this margin so a last
#: in-flight packet does not masquerade as a resumed stream.
_INFLIGHT_DRAIN = 0.05


@dataclass(frozen=True)
class FailoverPoint:
    """One scenario's outcome."""

    replicated: bool
    viewers: int
    victim_streams: int
    resumed: int
    resumed_within_budget: int
    mean_resume_gap_s: float
    max_resume_gap_s: float
    #: Heartbeat detection latency + one duty cycle of refill slack.
    detection_budget_s: float
    #: Resume tickets parked on the admission queue during the outage.
    queued_resumes: int
    #: Streams that came back *before* the MSU recovered (must be zero
    #: in the single-copy scenario).
    resumed_before_recovery: int
    #: Streams resumed by the queue retry after cluster.recover().
    served_after_recovery: int
    #: Seconds from the failure until every victim stream flowed again.
    time_to_full_capacity_s: float


def _resume_gap(
    arrivals: List[Tuple[float, int]], fail_time: float
) -> Tuple[float, bool]:
    """The delivery blackout a failover caused on one display port.

    Returns ``(gap_seconds, resumed)``: the interval between the last
    packet at or before ``fail_time`` and the first packet after it.
    ``resumed`` is False (gap infinite) when nothing ever arrived after
    the failure — the stream was not migrated.
    """
    last_before = None
    first_after = None
    for when, _nbytes in arrivals:
        if when <= fail_time:
            if last_before is None or when > last_before:
                last_before = when
        elif first_after is None or when < first_after:
            first_after = when
    if first_after is None:
        return float("inf"), False
    start = last_before if last_before is not None else fail_time
    return first_after - start, True


def _run_scenario(
    replicated: bool,
    n_msus: int,
    n_titles: int,
    n_viewers: int,
    kill_at: float,
    recover_after: float,
    seed: int,
) -> FailoverPoint:
    sim = Simulator()
    cluster = CalliopeCluster(
        sim,
        ClusterConfig(
            n_msus=n_msus,
            ibtree_config=SMALL_PAGES,
            failover=FailoverConfig(heartbeat=_HEARTBEAT),
            seed=seed,
        ),
    )
    coord = cluster.coordinator
    budget = _HEARTBEAT.detection_latency + _DUTY_CYCLE_ALLOWANCE
    observe = budget + 2.0  # watch past the budget before measuring
    titles = load_titles(
        cluster, n_titles, kill_at + observe + recover_after + 20.0, seed,
        place=lambda t: (0, t % 2), settle=0.05,
    )
    if replicated:
        manager = ReplicationManager(cluster)
        for t, name in enumerate(titles):
            survivor = 1 + t % (n_msus - 1)
            disk_id = cluster.msus[survivor].disk_ids()[t % 2]
            manager.replicate(name, f"msu{survivor}", disk_id)
        manager.watch(coord)

    client, views = start_viewers(
        cluster, titles, n_viewers, kill_at, "e17",
        reconnect_retries=8, reconnect_backoff=0.25,
    )

    victim_ports = [
        port for port, view in views.items()
        if coord.groups.get(view.group_id) is not None
        and coord.groups[view.group_id].msu_name == "msu0"
    ]
    cluster.hang_msu(0)
    fail_time = sim.now
    sim.run(until=fail_time + observe)

    migrator = coord.migrator
    queued_resumes = sum(
        1 for req in coord.admission.queue if getattr(req, "kind", "") == "resume"
    )
    recover_time = None
    if not replicated:
        cluster.recover(0)
        recover_time = sim.now
        sim.run(until=recover_time + observe)

    gaps: List[float] = []
    resumed = 0
    resumed_within_budget = 0
    for port in victim_ports:
        gap, came_back = _resume_gap(
            client.ports[port].stats.arrivals, fail_time + _INFLIGHT_DRAIN
        )
        if not came_back:
            continue
        gaps.append(gap)
        resumed += 1
        if gap <= budget:
            resumed_within_budget += 1
    records = migrator.records if migrator is not None else []
    resumed_before_recovery = sum(
        1 for r in records
        if recover_time is not None and r.at < recover_time
    )
    served_after_recovery = sum(
        r.streams for r in records
        if recover_time is not None and r.at >= recover_time
    )
    time_to_full = max((r.at for r in records), default=fail_time) - fail_time
    finite = [g for g in gaps if g != float("inf")]
    return FailoverPoint(
        replicated=replicated,
        viewers=n_viewers,
        victim_streams=len(victim_ports),
        resumed=resumed,
        resumed_within_budget=resumed_within_budget,
        mean_resume_gap_s=sum(finite) / len(finite) if finite else float("inf"),
        max_resume_gap_s=max(finite) if finite else float("inf"),
        detection_budget_s=budget,
        queued_resumes=queued_resumes,
        resumed_before_recovery=resumed_before_recovery,
        served_after_recovery=served_after_recovery,
        time_to_full_capacity_s=time_to_full,
    )


def run_failover(
    n_msus: int = 3,
    n_titles: int = 4,
    n_viewers: int = 12,
    kill_at: float = 6.0,
    recover_after: float = 4.0,
    seed: int = 11,
) -> List[FailoverPoint]:
    """Both scenarios: replicas present, then single-copy titles."""
    with_replicas = _run_scenario(
        True, n_msus, n_titles, n_viewers, kill_at, recover_after, seed
    )
    single_copy = _run_scenario(
        False, n_msus, n_titles, n_viewers, kill_at, recover_after, seed
    )
    return [with_replicas, single_copy]


def format_failover(points: List[FailoverPoint]) -> str:
    """Render both scenarios the way the failover story reads."""
    lines = [
        "MSU failover under a silent hang (heartbeat detection, "
        "mid-stream migration)",
        f"{'scenario':>12} | {'viewers':>7} | {'victims':>7} | {'resumed':>7} | "
        f"{'in budget':>9} | {'mean gap':>8} | {'max gap':>8} | {'recovered':>9}",
    ]
    for p in points:
        label = "replicated" if p.replicated else "single-copy"
        mean_gap = f"{p.mean_resume_gap_s:8.2f}" if p.resumed else "     inf"
        max_gap = f"{p.max_resume_gap_s:8.2f}" if p.resumed else "     inf"
        lines.append(
            f"{label:>12} | {p.viewers:>7} | {p.victim_streams:>7} | "
            f"{p.resumed:>7} | {p.resumed_within_budget:>9} | {mean_gap} | "
            f"{max_gap} | {p.served_after_recovery:>9}"
        )
    for p in points:
        label = "replicated" if p.replicated else "single-copy"
        lines.append(f"-- {label} --")
        resumed_pct = (
            100.0 * p.resumed / p.victim_streams if p.victim_streams else 0.0
        )
        for name, value in (
            ("streams on victim", p.victim_streams),
            ("resumed (%)", resumed_pct),
            ("mean resume gap (s)", p.mean_resume_gap_s),
            ("max resume gap (s)", p.max_resume_gap_s),
            ("detection budget (s)", p.detection_budget_s),
            ("time to full capacity (s)", p.time_to_full_capacity_s),
        ):
            rendered = f"{value:>10.2f}" if value != float("inf") else "       inf"
            lines.append(f"  {name:<28} {rendered}")
    lines.append(
        "(with replicas, a dead MSU's streams resume on survivors within"
        " the heartbeat timeout + one duty cycle; without, they park at"
        " resume priority and restart the moment the machine rejoins)"
    )
    return "\n".join(lines)


def _checks(points: List[FailoverPoint]) -> None:
    with_replicas, single_copy = points
    # The acceptance bar: with replicas, >=80% of the dead MSU's streams
    # resume on survivors within the heartbeat timeout plus one duty
    # cycle; without replicas nothing resumes during the outage — every
    # ticket parks on the queue and is served once the MSU recovers.
    assert with_replicas.victim_streams > 0
    assert with_replicas.resumed >= 0.8 * with_replicas.victim_streams
    assert (
        with_replicas.resumed_within_budget
        >= 0.8 * with_replicas.victim_streams
    )
    assert with_replicas.max_resume_gap_s <= with_replicas.detection_budget_s
    assert single_copy.victim_streams > 0
    assert single_copy.resumed_within_budget == 0
    assert single_copy.resumed_before_recovery == 0
    assert single_copy.queued_resumes > 0
    assert single_copy.served_after_recovery == single_copy.victim_streams


def _headlines(points: List[FailoverPoint]) -> list:
    with_replicas = points[0]
    return [
        headline(
            "resumed_within_budget",
            with_replicas.resumed_within_budget, "streams",
            victims=with_replicas.victim_streams,
        ),
        headline(
            "max_resume_gap_s",
            round(with_replicas.max_resume_gap_s, 3), "seconds",
            budget_s=with_replicas.detection_budget_s,
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="failover", table="failover",
        paper_ref="§2.2 MSU failover: heartbeats + migration (extension)",
        run=run_failover, render=format_failover,
        checks=_checks, headlines=_headlines,
    ),
)
