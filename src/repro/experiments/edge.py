"""Experiment E21 (extension) — the edge proxy tier on the Zipf workload.

E18 showed multicast batching and patching lift a single disk from ~12
concurrent MPEG-1 viewers to channel-limited fan-out, but the merge
window is still bounded by the MSU patch horizon: a joiner more than
``patch_horizon`` seconds behind a running channel needs a fresh channel
— and a fresh disk slot.  The edge tier attacks exactly that bound.
The Coordinator's placement loop pre-positions the hottest titles'
prefixes on memory-only EdgeProxy nodes; a late joiner whose missed
opening is covered by a pinned prefix receives the patch from the edge
instead, which costs edge uplink bandwidth but **no MSU disk slot and
no ledger charge** — so the joinable window of a channel stretches from
the patch horizon to the pinned-prefix duration.

This experiment replays the one-disk Zipf(1.0) workload twice at the
same offered load: once with multicast alone (the E18 winner), once
with multicast plus one edge proxy.  The acceptance bar is a further
>=2x in concurrent viewers per disk, with the report showing where the
gain came from: edge-covered patches, the edge hit ratio, and uplink
bytes served from memory instead of disk arms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.edge import EdgeConfig
from repro.experiments import Experiment, headline
from repro.experiments._support import (
    load_titles, population_fields, run_population,
)
from repro.multicast import MulticastConfig
from repro.sim import Simulator
from repro.storage import SMALL_PAGES

__all__ = ["EdgePoint", "run_edge", "format_edge"]


@dataclass(frozen=True)
class EdgePoint:
    """One configuration's outcome (edge tier on or off)."""

    edges_enabled: bool
    offered_erlangs: float
    arrivals: int
    admitted: int
    blocked_or_abandoned: int
    blocking_probability: float
    concurrent_peak: int
    channels_created: int
    viewers_joined: int
    channel_occupancy: float
    msu_patches: int
    edge_patches: int
    edge_prefix_serves: int
    edge_hit_ratio: float
    edge_bytes_served: int
    edge_pinned_bytes: int
    edge_admitted: int
    slots_saved: int
    ledger_outstanding: float
    edge_uplink_outstanding: float


def _run_once(
    edge: Optional[EdgeConfig],
    offered: float,
    mean_watch_seconds: float,
    duration: float,
    n_titles: int,
    zipf_s: float,
    seed: int,
) -> EdgePoint:
    cluster = CalliopeCluster(
        Simulator(),
        ClusterConfig(
            n_msus=1,
            disks_per_hba=(1,),  # disk-bound on purpose, exactly like E18
            ibtree_config=SMALL_PAGES,
            multicast=MulticastConfig(batch_window=0.5, patch_horizon=6.0),
            edge=edge,
        ),
    )
    titles = load_titles(cluster, n_titles, mean_watch_seconds * 6.0, seed)
    # The drain covers the viewers in flight plus the longest edge patch.
    stats = run_population(
        cluster, titles, offered, mean_watch_seconds, duration, seed,
        drain=60.0, zipf_s=zipf_s,
    )
    manager = cluster.coordinator.channel_manager
    placement = cluster.coordinator.placement
    edge_bytes = sum(
        proxy.prefix_bytes_served + proxy.patch_bytes_served
        for proxy in cluster.edges
    )
    pinned = sum(proxy.pool.used for proxy in cluster.edges)
    uplink = sum(
        view.uplink_used for view in placement.edges.values()
    ) if placement else 0.0
    return EdgePoint(
        edges_enabled=edge is not None,
        **population_fields(offered, stats),
        channels_created=manager.channels_created if manager else 0,
        viewers_joined=manager.viewers_joined if manager else 0,
        channel_occupancy=manager.occupancy() if manager else 0.0,
        msu_patches=len(manager.patch_joins) if manager else 0,
        edge_patches=manager.edge_patched if manager else 0,
        edge_prefix_serves=placement.prefix_serves if placement else 0,
        edge_hit_ratio=placement.hit_ratio() if placement else 0.0,
        edge_bytes_served=edge_bytes,
        edge_pinned_bytes=pinned,
        edge_admitted=cluster.coordinator.admission.edge_admitted,
        slots_saved=manager.slots_saved() if manager else 0,
        ledger_outstanding=manager.ledger.outstanding() if manager else 0.0,
        edge_uplink_outstanding=uplink,
    )


def run_edge(
    offered_erlangs: float = 110.0,
    mean_watch_seconds: float = 8.0,
    duration: float = 120.0,
    n_titles: int = 8,
    zipf_s: float = 1.0,
    prefix_pages: int = 256,
    seed: int = 14,
) -> List[EdgePoint]:
    """The same Zipf(1.0) VoD workload with and without the edge tier."""
    baseline = _run_once(
        None, offered_erlangs, mean_watch_seconds, duration, n_titles,
        zipf_s, seed,
    )
    edged = _run_once(
        EdgeConfig(
            n_edges=1,
            prefix_pages=prefix_pages,
            placement_period=0.5,
            promote_score=0.5,
            evict_score=0.01,
            decay=0.9,
        ),
        offered_erlangs, mean_watch_seconds, duration, n_titles,
        zipf_s, seed,
    )
    return [baseline, edged]


def format_edge(points: List[EdgePoint]) -> str:
    """Render the on/off comparison plus the edge-tier metrics."""
    lines = [
        "Edge proxy tier on the disk-bound Zipf(1.0) VoD workload "
        "(one MSU, one disk, multicast on)",
        f"{'tier':>10} | {'arrivals':>8} | {'admitted':>8} | {'denied':>6} | "
        f"{'P(block)':>8} | {'peak':>4} | {'channels':>8} | {'patches':>7}",
    ]
    for p in points:
        label = "mcast+edge" if p.edges_enabled else "mcast"
        lines.append(
            f"{label:>10} | {p.arrivals:>8} | {p.admitted:>8} | "
            f"{p.blocked_or_abandoned:>6} | {p.blocking_probability:>8.3f} | "
            f"{p.concurrent_peak:>4} | {p.channels_created:>8} | "
            f"{p.msu_patches + p.edge_patches:>7}"
        )
    off = next((p for p in points if not p.edges_enabled), None)
    on = next((p for p in points if p.edges_enabled), None)
    if off is not None and on is not None and off.concurrent_peak:
        gain = on.concurrent_peak / off.concurrent_peak
        lines.append(
            f"concurrent viewers per disk: {off.concurrent_peak} -> "
            f"{on.concurrent_peak} ({gain:.1f}x over the E18 multicast "
            f"baseline)"
        )
    if on is not None:
        lines.append(
            f"  {'edge-covered patches':<36} {on.edge_patches:>10}"
        )
        lines.append(
            f"  {'MSU (disk) patches':<36} {on.msu_patches:>10}"
        )
        lines.append(
            f"  {'edge plan hit ratio':<36} {on.edge_hit_ratio:>10.2f}"
        )
        lines.append(
            f"  {'bytes served from edge memory':<36} "
            f"{on.edge_bytes_served:>10}"
        )
        lines.append(
            f"  {'bytes pinned at drain':<36} {on.edge_pinned_bytes:>10}"
        )
        lines.append(
            f"  {'zero-disk-cost admissions':<36} {on.edge_admitted:>10}"
        )
        lines.append(
            f"  {'edge uplink outstanding after drain':<36} "
            f"{on.edge_uplink_outstanding:>10.1f}"
        )
        lines.append(
            f"  {'ledger outstanding after drain':<36} "
            f"{on.ledger_outstanding:>10.1f}"
        )
    lines.append(
        "(an edge-served patch charges the edge uplink, not an MSU disk"
        " slot, so a channel's joinable window stretches from the patch"
        " horizon to the pinned-prefix duration — more viewers merge"
        " onto the same channel and the disk arm stays free)"
    )
    return "\n".join(lines)


def _checks(points: List[EdgePoint]) -> None:
    off, on = points
    # Acceptance bar: with edges the same disk sustains at least twice
    # the concurrent viewers of the multicast baseline, the gain really
    # came from edge-covered (zero-disk-cost) patches, and every book —
    # multicast ledger and edge uplink — balances once the world drains.
    assert not off.edges_enabled and on.edges_enabled
    assert on.concurrent_peak >= 2 * off.concurrent_peak
    assert on.edge_patches > 0
    assert on.edge_admitted > 0
    assert on.edge_bytes_served > 0
    assert on.msu_patches <= on.edge_patches
    assert on.ledger_outstanding == 0.0
    assert on.edge_uplink_outstanding == 0.0


def _headlines(points: List[EdgePoint]) -> list:
    off, on = points
    gain = on.concurrent_peak / off.concurrent_peak
    return [
        headline(
            "viewers_per_disk_gain", round(gain, 2), "x",
            zipf_s=1.0, baseline="E18 multicast, same offered load",
        ),
        headline("concurrent_peak", on.concurrent_peak, "viewers"),
        headline(
            "edge_covered_patches", on.edge_patches, "joins",
            msu_patches=on.msu_patches,
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="edge-cache", table="edge",
        paper_ref="abstract edge proxy tier vs. multicast alone (extension)",
        run=run_edge, render=format_edge,
        checks=_checks, headlines=_headlines, duration_arg="duration",
    ),
)
