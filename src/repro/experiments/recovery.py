"""Experiment E20 (extension) — Coordinator recovery: WAL replay + reconciliation.

The paper's Coordinator keeps every admission book and the AdminDatabase
in process memory; §2.2's failure story covers only MSU death.  PR 5
adds the other half: a write-ahead journal with periodic snapshots
(:mod:`repro.recovery`) so a cold-started Coordinator can rebuild its
state and reconcile it against live MSU ``StateReport``s.

This experiment measures that restart path as the cluster's load grows.
For each scale it admits ``n`` viewers, kills the Coordinator
mid-playback, lets the MSUs serve unsupervised for a fixed outage, then
cold-starts a replacement from the journal.  Measured per point:

* **time to recover** — simulated seconds from the replacement's
  ``begin_recovery`` until reconciliation completes (every surviving
  MSU's StateReport collected and the books rebuilt).
* **WAL replay volume** — records replayed past the last snapshot.
* **books fidelity** — immediately after reconciliation the rebuilt
  admission books must be *byte-identical* (``json.dumps`` equality) to
  a from-scratch reconciliation of the same state; and every stream that
  was admitted before the crash must still be playing (kept, not
  dropped) afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.experiments import Experiment, headline
from repro.experiments._support import load_titles, start_viewers
from repro.metrics.report import format_recovery_summary
from repro.recovery import RecoveryConfig, books_state, expected_books
from repro.sim import Simulator
from repro.storage import SMALL_PAGES

__all__ = ["RecoveryPoint", "run_recovery", "format_recovery"]

#: How long the MSUs serve alone between the kill and the cold start.
_OUTAGE = 2.0

#: Reconciliation grace: MSUs that fail to report within this window
#: after the cold start are declared failed (none should, here).
_GRACE = 1.0


@dataclass(frozen=True)
class RecoveryPoint:
    """One restart at one load level."""

    viewers: int
    #: Streams the books charged the instant before the kill.
    active_before: int
    time_to_recover_s: float
    wal_records: int
    snapshot_seq: int
    msus_reported: int
    streams_kept: int
    streams_dropped: int
    streams_adopted: int
    tickets_recovered: int
    discrepancies: int
    #: json.dumps equality of the rebuilt books vs a from-scratch
    #: reconciliation, taken immediately after recovery completed.
    books_identical: bool
    #: The full RecoveryOutcome, for the detailed summary block.
    outcome: object = None


def _run_point(
    n_viewers: int,
    n_msus: int,
    n_titles: int,
    kill_at: float,
    seed: int,
) -> RecoveryPoint:
    sim = Simulator()
    cluster = CalliopeCluster(
        sim,
        ClusterConfig(
            n_msus=n_msus,
            ibtree_config=SMALL_PAGES,
            recovery=RecoveryConfig(snapshot_every=256, report_grace=_GRACE),
            seed=seed,
        ),
    )
    coord = cluster.coordinator
    titles = load_titles(
        cluster, n_titles, kill_at + _OUTAGE + 25.0, seed,
        place=lambda t: (t % n_msus, t % 2), settle=0.05,
    )

    _, views = start_viewers(cluster, titles, n_viewers, kill_at, "e20")

    active_before = sum(
        len(group.allocations) for group in coord.groups.values()
    )
    cluster.crash_coordinator()
    sim.run(until=sim.now + _OUTAGE)
    cluster.restart_coordinator()
    coord = cluster.coordinator
    # StateReports arrive within a couple of control-channel round trips;
    # the grace timer bounds the wait even if one never comes.
    sim.run(until=sim.now + _GRACE + 0.5)

    outcome = coord.last_recovery
    if outcome is None:  # pragma: no cover - recovery must complete
        raise RuntimeError("reconciliation never completed")
    have = json.dumps(books_state(coord), sort_keys=True)
    want = json.dumps(expected_books(coord), sort_keys=True)
    return RecoveryPoint(
        viewers=n_viewers,
        active_before=active_before,
        time_to_recover_s=outcome.time_to_recover,
        wal_records=outcome.wal_records,
        snapshot_seq=outcome.snapshot_seq,
        msus_reported=outcome.msus_reported,
        streams_kept=outcome.streams_kept,
        streams_dropped=outcome.streams_dropped,
        streams_adopted=outcome.streams_adopted,
        tickets_recovered=outcome.tickets_recovered,
        discrepancies=len(outcome.discrepancies),
        books_identical=have == want,
        outcome=outcome,
    )


def run_recovery(
    scales: Sequence[int] = (4, 8, 16),
    n_msus: int = 3,
    n_titles: int = 4,
    kill_at: float = 5.0,
    seed: int = 13,
) -> List[RecoveryPoint]:
    """One kill/cold-start cycle per load level in ``scales``."""
    return [
        _run_point(n, n_msus, n_titles, kill_at, seed + i)
        for i, n in enumerate(scales)
    ]


def format_recovery(points: List[RecoveryPoint]) -> str:
    """Render the restart path the way the recovery story reads."""
    lines = [
        "Coordinator recovery: journal replay + MSU-state reconciliation "
        f"(outage {_OUTAGE:.1f}s)",
        f"{'viewers':>7} | {'active':>6} | {'recover s':>9} | {'WAL':>5} | "
        f"{'kept':>4} | {'dropped':>7} | {'adopted':>7} | {'books':>9}",
    ]
    for p in points:
        books = "identical" if p.books_identical else "DIVERGED"
        lines.append(
            f"{p.viewers:>7} | {p.active_before:>6} | "
            f"{p.time_to_recover_s:>9.3f} | {p.wal_records:>5} | "
            f"{p.streams_kept:>4} | {p.streams_dropped:>7} | "
            f"{p.streams_adopted:>7} | {books:>9}"
        )
    biggest = points[-1]
    lines.append(f"-- {biggest.viewers} viewers --")
    for name, value in format_recovery_summary(biggest.outcome):
        lines.append(f"  {name:<28} {value:>10.2f}")
    lines.append(
        "(streams admitted before the kill keep playing through the outage;"
        " the cold start replays snapshot+WAL, collects StateReports, and"
        " rebuilds books byte-identical to a from-scratch reconciliation)"
    )
    return "\n".join(lines)


def _checks(points: List[RecoveryPoint]) -> None:
    # The acceptance bar: every stream admitted before the kill survives
    # the outage and the restart (kept by reconciliation, none dropped),
    # and the rebuilt books are byte-identical to a from-scratch
    # reconciliation at every load level.
    for point in points:
        assert point.active_before == point.viewers
        assert point.streams_kept == point.active_before
        assert point.streams_dropped == 0
        assert point.discrepancies == 0
        assert point.books_identical
    # Replay volume grows with load; recovery stays sub-second because
    # reconciliation waits only on one StateReport round trip.
    assert points[-1].wal_records > points[0].wal_records
    assert all(p.time_to_recover_s < 1.0 for p in points)


def _headlines(points: List[RecoveryPoint]) -> list:
    biggest = points[-1]
    return [
        headline(
            "time_to_recover_s",
            round(biggest.time_to_recover_s, 4), "seconds",
            viewers=biggest.viewers,
        ),
        headline(
            "wal_records", biggest.wal_records, "records",
            viewers=biggest.viewers,
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="coordinator-recovery", table="recovery",
        paper_ref="§2.2 Coordinator WAL replay + reconciliation (extension)",
        run=run_recovery, render=format_recovery,
        checks=_checks, headlines=_headlines,
    ),
)
