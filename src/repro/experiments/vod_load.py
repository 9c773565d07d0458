"""Experiment E12 (extension) — admission behaviour under offered load.

The paper sizes the large installation by arithmetic ("150 MSUs at 20
streams each ... sessions as short as one minute", §3.3).  This extension
exercises that sizing on a real (single-MSU) installation: a Poisson
viewer population with Zipf content popularity offers increasing Erlang
loads; the Coordinator's admission control serves what fits and queues or
loses the rest.

Blocking follows the classic Erlang-B shape: negligible below the ~22
stream capacity, climbing steeply past it.  The experiment prints the
measured blocking next to the Erlang-B formula at the MSU's stream
capacity, connecting the paper's back-of-envelope to queueing theory.
Measured blocking sits somewhat above Erlang-B at mid loads: Zipf
popularity concentrates demand on the hot titles' disks, so per-disk
bandwidth caps bind before the aggregate does — the placement problem
§2.3.3 discusses (and replication, experiment E11, relieves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.experiments import Experiment, headline
from repro.experiments._support import (
    load_titles, population_fields, run_population,
)
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import MPEG1_RATE

__all__ = ["VodLoadPoint", "erlang_b", "run_vod_load", "format_vod_load"]


@dataclass(frozen=True)
class VodLoadPoint:
    """One offered-load level's outcome."""

    offered_erlangs: float
    arrivals: int
    admitted: int
    blocked_or_abandoned: int
    blocking_probability: float
    concurrent_peak: int
    erlang_b_reference: float


def erlang_b(offered: float, servers: int) -> float:
    """The Erlang-B blocking probability for ``servers`` circuits."""
    if offered <= 0:
        return 0.0
    inv_b = 1.0
    for k in range(1, servers + 1):
        inv_b = 1.0 + inv_b * k / offered
    return 1.0 / inv_b


def _capacity_streams(cluster: CalliopeCluster) -> int:
    state = next(iter(cluster.coordinator.db.msus.values()))
    per_disk = [
        int(d.bandwidth_capacity // MPEG1_RATE) for d in state.disks.values()
    ]
    return min(sum(per_disk), int(state.delivery_capacity // MPEG1_RATE))


def run_vod_load(
    offered_erlangs: List[float] = (10.0, 18.0, 24.0, 32.0),
    mean_watch_seconds: float = 8.0,
    duration: float = 200.0,
    n_titles: int = 8,
    seed: int = 14,
) -> List[VodLoadPoint]:
    """Sweep offered load; returns one point per level."""
    points = []
    for offered in offered_erlangs:
        cluster = CalliopeCluster(
            Simulator(), ClusterConfig(n_msus=1, ibtree_config=SMALL_PAGES)
        )
        # Titles must outlast the watch times or streams end (and free
        # their resources) before the viewer leaves.
        titles = load_titles(
            cluster, n_titles, mean_watch_seconds * 6.0, seed,
            place=lambda t: (0, t % 2),
        )
        capacity = _capacity_streams(cluster)
        stats = run_population(
            cluster, titles, offered, mean_watch_seconds, duration, seed
        )
        points.append(
            VodLoadPoint(
                **population_fields(offered, stats),
                erlang_b_reference=erlang_b(offered, capacity),
            )
        )
    return points


def format_vod_load(points: List[VodLoadPoint]) -> str:
    """Render the offered-load sweep."""
    lines = [
        "VoD admission under offered load (one MSU, Zipf popularity)",
        f"{'Erlangs':>8} | {'arrivals':>8} | {'admitted':>8} | "
        f"{'denied':>6} | {'P(block)':>8} | {'Erlang-B':>8} | {'peak':>4}",
    ]
    for p in points:
        lines.append(
            f"{p.offered_erlangs:>8.1f} | {p.arrivals:>8} | {p.admitted:>8} | "
            f"{p.blocked_or_abandoned:>6} | {p.blocking_probability:>8.3f} | "
            f"{p.erlang_b_reference:>8.3f} | {p.concurrent_peak:>4}"
        )
    lines.append(
        "(blocking stays near zero below the ~22-stream capacity and climbs"
        " on the Erlang-B curve past it — the §3.3 sizing arithmetic)"
    )
    return "\n".join(lines)


def _checks(points: List[VodLoadPoint]) -> None:
    # Blocking is monotone in offered load and concurrency never exceeds
    # the MSU's stream capacity.
    blocking = [p.blocking_probability for p in points]
    assert blocking == sorted(blocking)
    assert points[0].blocking_probability < 0.02
    assert points[-1].blocking_probability > 0.15
    assert all(p.concurrent_peak <= 23 for p in points)


def _headlines(points: List[VodLoadPoint]) -> list:
    return [
        headline(
            "peak_blocking_probability",
            round(points[-1].blocking_probability, 4), "fraction",
            concurrent_peak=max(p.concurrent_peak for p in points),
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="vod-load", table="vod_load",
        paper_ref="§3.3 offered-load admission sweep (extension)",
        run=run_vod_load, render=format_vod_load,
        checks=_checks, headlines=_headlines, duration_arg="duration",
    ),
)
