"""Experiment E24 (extension) — Coordinator scale-out: takeover + sharding.

The paper's Coordinator is both a single point of failure and a serial
admission bottleneck.  PR 9 adds the scale-out tier
(:mod:`repro.scaleout`): a warm standby that tails the journal and takes
over on leader loss, and N admission shards over escrowed per-disk
bandwidth books.  This experiment measures both promises:

**Part A — warm takeover.**  Admit ``n`` viewers, crash the leader
mid-playback with a synced standby armed, and let the heartbeat detector
drive the promotion.  Measured: detection latency, and takeover latency
from the instant of leader loss to admissions reopening (the headline
bound: within one ``report_grace``), WAL records the standby had tailed,
and the admitted streams the reconcile dropped across the switch (must
be zero — the MSUs never stop serving).  The promoted standby reconciles
through the same StateReport barrier a cold restart runs (E20), so the
takeover is detection plus one report round trip.

**Part B — sharded admission throughput.**  With a non-zero per-decision
service time, admit a burst of viewers (one client each, titles spread
across shards) and measure admissions/sec for increasing shard counts.
Same-shard requests queue at one serial server; different shards admit
in parallel, so throughput should scale toward the shard count while the
escrowed books keep every disk slot single-spent (the
``scaleout-escrow`` invariant runs over the same machinery in the chaos
suite).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Generator, List, Sequence, Tuple

from repro.clients.client import Client, GroupView
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.experiments import Experiment, headline
from repro.experiments._support import load_titles, start_viewers, watch
from repro.recovery import RecoveryConfig
from repro.scaleout import ScaleOutConfig
from repro.sim import Simulator
from repro.storage import SMALL_PAGES

__all__ = [
    "TakeoverPoint",
    "ShardPoint",
    "run_takeover",
    "run_sharding",
    "format_scaleout",
]

#: Reconciliation grace (the budget a takeover must land within).
_GRACE = 1.0

#: Simulated seconds one shard spends deciding one admission (part B).
_SERVICE = 0.02


@dataclass(frozen=True)
class TakeoverPoint:
    """One leader kill with a warm standby armed, at one load level."""

    viewers: int
    #: Streams the books charged the instant before the kill.
    active_before: int
    detection_s: float
    takeover_s: float
    #: WAL records the standby had applied while shadowing.
    records_tailed: int
    #: Admitted streams the reconcile dropped (0 = kept them all).
    streams_dropped: int
    #: Streams on the books after the takeover settled.
    active_after: int
    report_grace_s: float = _GRACE

    @property
    def within_grace(self) -> bool:
        return self.takeover_s <= self.report_grace_s + 1e-9


@dataclass(frozen=True)
class ShardPoint:
    """One admission burst at one shard count."""

    shards: int
    viewers: int
    admitted: int
    #: Seconds from the burst start to the last admission going ready.
    burst_s: float
    admissions_per_s: float
    #: Escrow protocol traffic while admitting.
    grants: int
    steals: int


def _viewer(
    client: Client, title: str, port_name: str, views: Dict[str, GroupView],
    ready_at: Dict[str, float], sim: Simulator,
) -> Generator:
    yield from watch(client, title, port_name, views)
    ready_at[port_name] = sim.now


# -- part A: warm takeover ----------------------------------------------------

def _run_takeover_point(
    n_viewers: int, n_msus: int, n_titles: int, kill_at: float, seed: int
) -> TakeoverPoint:
    sim = Simulator()
    cluster = CalliopeCluster(
        sim,
        ClusterConfig(
            n_msus=n_msus,
            ibtree_config=SMALL_PAGES,
            recovery=RecoveryConfig(snapshot_every=256, report_grace=_GRACE),
            scaleout=ScaleOutConfig(standby=True),
            seed=seed,
        ),
    )
    coord = cluster.coordinator
    titles = load_titles(
        cluster, n_titles, kill_at + 25.0, seed,
        place=lambda t: (t % n_msus, t % 2), settle=0.05,
    )

    ready: Dict[str, float] = {}
    _, views = start_viewers(
        cluster, titles, n_viewers, kill_at, "e24",
        viewer=functools.partial(_viewer, ready_at=ready, sim=sim),
    )

    active_before = sum(
        len(group.allocations) for group in coord.groups.values()
    )
    cluster.crash_coordinator()
    # Detection (~0.3s), promotion and the StateReport round trip are
    # event-driven; run past the grace window so everything settles.
    sim.run(until=kill_at + _GRACE + 1.0)
    if not cluster.takeovers:  # pragma: no cover - takeover must happen
        raise RuntimeError("standby never took over")
    outcome = cluster.takeovers[-1]
    coord = cluster.coordinator
    active_after = sum(
        len(group.allocations) for group in coord.groups.values()
    )
    return TakeoverPoint(
        viewers=n_viewers,
        active_before=active_before,
        detection_s=outcome.detection_latency,
        takeover_s=outcome.takeover_latency,
        records_tailed=outcome.records_tailed,
        streams_dropped=coord.last_recovery.streams_dropped,
        active_after=active_after,
    )


def run_takeover(
    scales: Sequence[int] = (4, 8, 16),
    n_msus: int = 3,
    n_titles: int = 4,
    kill_at: float = 5.0,
    seed: int = 13,
) -> List[TakeoverPoint]:
    """One leader kill + warm takeover per load level in ``scales``."""
    return [
        _run_takeover_point(n, n_msus, n_titles, kill_at, seed + i)
        for i, n in enumerate(scales)
    ]


# -- part B: sharded admission throughput -------------------------------------

def _run_shard_point(
    n_shards: int, n_viewers: int, n_msus: int, n_titles: int, seed: int
) -> ShardPoint:
    sim = Simulator()
    cluster = CalliopeCluster(
        sim,
        ClusterConfig(
            n_msus=n_msus,
            ibtree_config=SMALL_PAGES,
            recovery=RecoveryConfig(snapshot_every=1024, report_grace=_GRACE),
            scaleout=ScaleOutConfig(
                shards=n_shards, admit_service_time=_SERVICE
            ),
            seed=seed,
        ),
    )
    coord = cluster.coordinator
    titles = load_titles(
        cluster, n_titles, 30.0, seed,
        place=lambda t: (t % n_msus, t % 2), settle=0.05,
    )

    # One client per viewer: each gets its own session channel, so the
    # admissions arrive concurrently and only the shard servers gate
    # them (a shared client would serialize in its control loop).
    views: Dict[str, GroupView] = {}
    ready: Dict[str, float] = {}
    clients = []
    for v in range(n_viewers):
        client = Client(sim, cluster, f"aud{v}")
        clients.append(client)
        sim.process(client.open_session("user"), name=f"e24.s{v}")
    sim.run(until=0.2)
    start = sim.now
    for v, client in enumerate(clients):
        sim.process(
            _viewer(client, titles[v % n_titles], f"v{v}", views, ready, sim),
            name=f"e24.b{v}",
        )
    sim.run(until=start + 30.0)

    admitted = len(ready)
    burst = (max(ready.values()) - start) if ready else float("inf")
    shards = coord.shards
    return ShardPoint(
        shards=n_shards,
        viewers=n_viewers,
        admitted=admitted,
        burst_s=burst,
        admissions_per_s=admitted / burst if burst > 0 else 0.0,
        grants=shards.grants if shards is not None else 0,
        steals=shards.steals if shards is not None else 0,
    )


def run_sharding(
    shard_counts: Sequence[int] = (1, 2, 4),
    n_viewers: int = 32,
    n_msus: int = 4,
    n_titles: int = 24,
    seed: int = 29,
) -> List[ShardPoint]:
    """One admission burst per shard count (same seed: same workload)."""
    return [
        _run_shard_point(s, n_viewers, n_msus, n_titles, seed)
        for s in shard_counts
    ]


def format_scaleout(
    takeovers: List[TakeoverPoint], shardings: List[ShardPoint]
) -> str:
    """Render both halves the way the scale-out story reads."""
    lines = [
        "Coordinator scale-out: warm-standby takeover + sharded admission",
        f"-- part A: leader kill with a synced standby "
        f"(report_grace {_GRACE:.1f}s) --",
        f"{'viewers':>7} | {'active':>6} | {'detect s':>8} | "
        f"{'takeover s':>10} | {'tailed':>6} | {'dropped':>7} | {'verdict':>8}",
    ]
    for p in takeovers:
        verdict = "in-grace" if p.within_grace else "LATE"
        lines.append(
            f"{p.viewers:>7} | {p.active_before:>6} | {p.detection_s:>8.3f} | "
            f"{p.takeover_s:>10.3f} | {p.records_tailed:>6} | "
            f"{p.streams_dropped:>7} | {verdict:>8}"
        )
    base = shardings[0].admissions_per_s if shardings else 0.0
    lines.append(
        f"-- part B: {shardings[0].viewers if shardings else 0} concurrent "
        f"admissions, {_SERVICE * 1e3:.0f}ms per decision --"
    )
    lines.append(
        f"{'shards':>6} | {'admitted':>8} | {'burst s':>8} | "
        f"{'adm/s':>8} | {'speedup':>7} | {'grants':>6} | {'steals':>6}"
    )
    for p in shardings:
        speedup = p.admissions_per_s / base if base > 0 else 0.0
        lines.append(
            f"{p.shards:>6} | {p.admitted:>8} | {p.burst_s:>8.3f} | "
            f"{p.admissions_per_s:>8.1f} | {speedup:>6.2f}x | "
            f"{p.grants:>6} | {p.steals:>6}"
        )
    lines.append(
        "(the standby tails the WAL, promotes on heartbeat silence and"
        " reconciles through the cold restart's one StateReport round"
        " trip — no dropped streams; shards admit in parallel against"
        " escrowed slices of each disk's bandwidth book)"
    )
    return "\n".join(lines)


def _run() -> Tuple[List[TakeoverPoint], List[ShardPoint]]:
    return run_takeover(), run_sharding()


def _speedup(shardings: List[ShardPoint]) -> float:
    best, base = shardings[-1], shardings[0]
    return (
        best.admissions_per_s / base.admissions_per_s
        if base.admissions_per_s > 0 else 0.0
    )


def _checks(result: Tuple[List[TakeoverPoint], List[ShardPoint]]) -> None:
    takeovers, shardings = result
    speedup = _speedup(shardings)
    # The acceptance bar: every takeover lands within one report_grace
    # with zero admitted streams dropped (MSUs never stop serving, and
    # the reconcile keeps everything their StateReports confirm), and four
    # shards admit the burst materially faster than the serial baseline
    # without escrow ever double-spending (grants/steals are journaled;
    # the scaleout-escrow invariant audits the same machinery in chaos).
    for point in takeovers:
        assert point.within_grace
        assert point.streams_dropped == 0
        assert point.active_after == point.active_before
        assert point.records_tailed > 0
    for point in shardings:
        assert point.admitted == point.viewers
    assert speedup >= 2.5


def _headlines(result: Tuple[List[TakeoverPoint], List[ShardPoint]]) -> list:
    takeovers, shardings = result
    biggest = takeovers[-1]
    best = shardings[-1]
    return [
        headline(
            "takeover_s", round(biggest.takeover_s, 4), "seconds",
            viewers=biggest.viewers, report_grace_s=biggest.report_grace_s,
        ),
        headline(
            "admissions_per_s",
            round(best.admissions_per_s, 1), "admissions/s",
            shards=best.shards, viewers=best.viewers,
        ),
        headline(
            "shard_speedup", round(_speedup(shardings), 2), "x",
            shards=best.shards, baseline_shards=shardings[0].shards,
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="coordinator-scaleout", table="scaleout",
        paper_ref="§2.2 warm-standby takeover + sharded admission "
                  "(E24, extension)",
        run=_run, render=lambda result: format_scaleout(*result),
        checks=_checks, headlines=_headlines,
    ),
)
