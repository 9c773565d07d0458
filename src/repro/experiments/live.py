"""Experiment E22 (extension) — live TV at channel-surf scale.

The Calliope paper serves *stored* streams; PR 8 adds the broadcast
shape: a channel's media is appended onto an MSU by a feed while the
multicast fan-out follows the growing tail, viewers pause-live and
rewind-live inside a bounded time-shift ring, and the Coordinator's EPG
owns the lineup.  The economics to demonstrate: one ingest slot plus
one fan-out slot per channel serves *every* viewer — disk cost is
O(channels), not O(viewers) — while the ring bounds the storage cost of
time shift to a window, not a broadcast.

This experiment puts a ``ChannelSurfer`` population (default 55
viewers, each hopping a Zipf-weighted lineup with pauses and
rewind-lives) on a small cluster broadcasting three live channels, and
then reruns the seeded chaos sweep — MSU crashes/hangs, Coordinator
outages, ingest stalls, surf storms — asserting that every registered
invariant (ring bounds, fan-out membership, drained books) holds
throughout.  Headlines: peak live viewers per busy disk, the rewind
hit rate inside the ring window, and surf join latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Sequence, Tuple

from repro.clients.workload import ChannelSurfer
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.experiments import Experiment, headline
from repro.live import ChannelSpec, LiveConfig, LiveSource
from repro.media.mpeg import MpegEncoder, packetize_cbr
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import MPEG1_RATE
from repro.verify import ChaosCluster, ChaosConfig, ChaosSchedule, ChaosReport
from repro.verify.invariants import builtin_registry

__all__ = ["LivePoint", "run_live", "run_live_chaos", "format_live"]


@dataclass(frozen=True)
class LivePoint:
    """Outcome of one live-TV surf run."""

    n_channels: int
    n_surfers: int
    n_disks: int
    busy_disks: int           # disks actually hosting a live channel
    broadcast_seconds: float
    joins: int
    timeouts: int
    errors: int
    peak_viewers: int         # max concurrent fan-out subscribers
    viewers_per_disk: float   # peak over the disks carrying channels
    join_latency_mean: float
    join_latency_p95: float
    pauses: int
    rewinds: int
    rewind_hits: int
    rewind_hit_rate: float
    merges: int
    surf_throttled: int
    channels_opened: int
    channels_closed: int
    pages_trimmed: int        # ring reclamation across all channels
    drain_violations: int     # registered invariants broken after drain


def run_live(
    n_channels: int = 3,
    n_surfers: int = 55,
    broadcast_seconds: float = 24.0,
    ring_seconds: float = 5.0,
    n_msus: int = 2,
    hops: int = 3,
    dwell_mean: float = 2.0,
    seed: int = 22,
) -> LivePoint:
    """One surf-storm run against a live lineup; returns its LivePoint."""
    sim = Simulator()
    live = LiveConfig(
        lineup=tuple(
            ChannelSpec(
                f"live{c}", "mpeg1", f"feed{c}",
                start_at=0.5 + 0.2 * c,
                duration_seconds=broadcast_seconds,
            )
            for c in range(n_channels)
        ),
        ring_seconds=ring_seconds,
        surf_rate=30.0,
        surf_burst=15.0,
        off_air_grace=8.0,
    )
    cluster = CalliopeCluster(
        sim,
        ClusterConfig(n_msus=n_msus, ibtree_config=SMALL_PAGES, live=live),
    )
    cluster.coordinator.db.add_customer("user")
    for c in range(n_channels):
        source = LiveSource(sim, cluster, f"feed{c}")
        source.add_feed(
            f"live{c}",
            packetize_cbr(
                MpegEncoder(seed=seed + c).bitstream(broadcast_seconds),
                MPEG1_RATE, 1024,
            ),
        )
    lineup_names = [spec.name for spec in live.lineup]
    surfers: List[ChannelSurfer] = []
    for i in range(n_surfers):
        surfer = ChannelSurfer(
            sim, cluster, f"surf{i}", lineup_names,
            hops=hops, dwell_mean=dwell_mean, tune_timeout=3.0,
            pause_chance=0.25, rewind_chance=0.35,
            rewind_seconds=max(1.0, ring_seconds - 1.0),
            seed=seed * 1000 + i,
        )
        surfers.append(surfer)

    def stagger() -> Generator:
        # Arrivals spread over the first third of the broadcast, so the
        # lineup sees join waves while every channel is still on the air.
        gap = broadcast_seconds / (3.0 * max(1, n_surfers))
        yield sim.timeout(1.0)
        for surfer in surfers:
            surfer.start()
            yield sim.timeout(gap)

    sim.process(stagger(), name="surf.arrivals")

    peak = [0]
    hosts: set = set()
    trimmed: dict = {}  # channel id -> last pages_trimmed seen

    def monitor() -> Generator:
        # Rings and hosting disks must be sampled *while* channels are on
        # the air: a closed channel leaves no MSU-side state behind.
        manager = cluster.coordinator.live_manager
        while True:
            live_now = 0
            for msu in cluster.msus:
                for cid, ch in msu.channels.items():
                    if cid in msu.live:
                        live_now += len(ch.subscribers)
                        trimmed[cid] = msu.live[cid].pages_trimmed
            peak[0] = max(peak[0], live_now)
            for rec in manager.channels.values():
                hosts.add((rec.msu_name, rec.disk_id))
            yield sim.timeout(0.2)

    sim.process(monitor(), name="surf.monitor")
    sim.run(until=broadcast_seconds + 12.0)

    manager = cluster.coordinator.live_manager
    busy_disks = max(1, len(hosts))
    n_disks = sum(len(msu.disk_processes) for msu in cluster.msus)
    latencies = sorted(
        lat for surfer in surfers for lat in surfer.join_latencies
    )
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    p95 = latencies[int(0.95 * (len(latencies) - 1))] if latencies else 0.0
    pages_trimmed = sum(trimmed.values())
    violations = builtin_registry().check(cluster, "drain")
    return LivePoint(
        n_channels=n_channels,
        n_surfers=n_surfers,
        n_disks=n_disks,
        busy_disks=busy_disks,
        broadcast_seconds=broadcast_seconds,
        joins=sum(s.joins for s in surfers),
        timeouts=sum(s.timeouts for s in surfers),
        errors=sum(s.errors for s in surfers),
        peak_viewers=peak[0],
        viewers_per_disk=peak[0] / max(1, busy_disks),
        join_latency_mean=mean,
        join_latency_p95=p95,
        pauses=sum(s.pauses for s in surfers),
        rewinds=manager.rewinds,
        rewind_hits=manager.rewind_hits,
        rewind_hit_rate=manager.rewind_hits / max(1, manager.rewinds),
        merges=manager.merges,
        surf_throttled=manager.surf_throttled,
        channels_opened=manager.channels_opened,
        channels_closed=manager.channels_closed,
        pages_trimmed=pages_trimmed,
        drain_violations=len(violations),
    )


def run_live_chaos(
    seeds: Sequence[int] = (61, 62, 63),
    n_ops: int = 12,
    horizon: float = 20.0,
) -> List[ChaosReport]:
    """The seeded chaos sweep with live channels and surf storms on."""
    reports = []
    for seed in seeds:
        schedule = ChaosSchedule.generate(
            seed, n_ops, horizon=horizon, n_msus=2, n_titles=2,
            n_channels=2,
        )
        reports.append(ChaosCluster(schedule, ChaosConfig()).run())
    return reports


def format_live(point: LivePoint, reports: List[ChaosReport]) -> str:
    """Render the surf run plus the chaos-sweep verdicts."""
    lines = [
        f"Live TV: {point.n_channels} channels ingesting for "
        f"{point.broadcast_seconds:.0f} s while {point.n_surfers} viewers "
        f"channel-surf (pause-live / rewind-live on a "
        f"ring window)",
        f"  joins {point.joins}  timeouts {point.timeouts}  "
        f"errors {point.errors}  throttled {point.surf_throttled}",
        f"  peak concurrent viewers {point.peak_viewers} on "
        f"{point.busy_disks} busy disk(s) of {point.n_disks} -> "
        f"{point.viewers_per_disk:.1f} viewers/disk "
        f"(disk cost is per channel, not per viewer)",
        f"  join latency mean {point.join_latency_mean * 1e3:.0f} ms, "
        f"p95 {point.join_latency_p95 * 1e3:.0f} ms",
        f"  time shift: {point.pauses} pauses, {point.rewinds} rewinds "
        f"({point.rewind_hit_rate:.0%} inside the ring), "
        f"{point.merges} re-merges, {point.pages_trimmed} ring pages "
        f"reclaimed",
        f"  channels opened {point.channels_opened} / closed "
        f"{point.channels_closed}; drain violations "
        f"{point.drain_violations}",
        "",
        "Chaos sweep (live faults + failures of every earlier tier):",
    ]
    for report in reports:
        lines.append(f"  {report.summary()}")
    clean = sum(1 for r in reports if r.ok)
    lines.append(f"  {clean}/{len(reports)} seeds with zero violations")
    return "\n".join(lines)


def _run(**kwargs) -> Tuple[LivePoint, List[ChaosReport]]:
    """The surf run (``run_live(**kwargs)``), then the chaos sweep."""
    return run_live(**kwargs), run_live_chaos()


def _checks(result: Tuple[LivePoint, List[ChaosReport]]) -> None:
    point, reports = result
    # Acceptance bar: >=3 channels ingest live while >=50 viewers surf
    # with pause/rewind-live; one fan-out slot per channel carries many
    # viewers; the time-shift ring both serves rewinds and reclaims its
    # blocks; and the seeded chaos sweep ends with zero invariant
    # violations across every tier.
    assert point.n_channels >= 3
    assert point.n_surfers >= 50
    assert point.channels_opened == point.n_channels
    assert point.channels_closed == point.n_channels
    assert point.joins >= point.n_surfers
    assert point.peak_viewers > 2 * point.busy_disks
    assert point.rewinds > 0 and point.rewind_hit_rate > 0.5
    assert point.merges > 0
    assert point.pages_trimmed > 0
    assert point.drain_violations == 0
    assert reports and all(report.ok for report in reports)


def _headlines(result: Tuple[LivePoint, List[ChaosReport]]) -> list:
    point, _ = result
    return [
        headline(
            "viewers_per_disk", round(point.viewers_per_disk, 1),
            "viewers", peak=point.peak_viewers, busy_disks=point.busy_disks,
            note="disk cost is per channel, not per viewer",
        ),
        headline(
            "rewind_hit_rate", round(point.rewind_hit_rate, 3), "ratio",
            rewinds=point.rewinds, ring_seconds=5.0,
        ),
        headline(
            "surf_join_latency_p95",
            round(point.join_latency_p95 * 1e3, 1), "ms",
            mean_ms=round(point.join_latency_mean * 1e3, 1),
            joins=point.joins,
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="live-tv", table="live",
        paper_ref="§2.3 live channels + time-shift rings (extension)",
        run=_run, render=lambda result: format_live(*result),
        checks=_checks, headlines=_headlines,
        duration_arg="broadcast_seconds",
    ),
)
