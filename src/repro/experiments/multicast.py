"""Experiment E18 (extension) — multicast channels vs. unicast delivery.

The paper's delivery model charges one duty-cycle disk slot and one
paced unicast flow per viewer (§2.2, §3.2), which caps a single disk at
~12 concurrent MPEG-1 streams and the whole send path at the 23-stream
ceiling of Graph 1.  For a VoD workload that is wasteful: Zipf
popularity means most viewers watch the same few titles seconds apart.

This experiment replays the one-disk Zipf workload of E16 twice: once
with the paper's unicast delivery, once with the multicast subsystem on
(``ClusterConfig(multicast=MulticastConfig())``).  With multicast, the
Coordinator batches near-simultaneous requests onto one channel and lets
late joiners inside the patching horizon merge via a short unicast
patch, so admission charges per *channel*, not per viewer — the same
disk sustains at least twice the concurrent viewers, and the report
shows where the gain came from: channel occupancy, patch ratio and
disk/delivery slots saved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.experiments import Experiment, headline
from repro.experiments._support import (
    load_titles, population_fields, run_population,
)
from repro.multicast import MulticastConfig
from repro.sim import Simulator
from repro.storage import SMALL_PAGES

__all__ = ["MulticastPoint", "run_multicast", "format_multicast"]


@dataclass(frozen=True)
class MulticastPoint:
    """One configuration's outcome (multicast on or off)."""

    multicast_enabled: bool
    offered_erlangs: float
    arrivals: int
    admitted: int
    blocked_or_abandoned: int
    blocking_probability: float
    concurrent_peak: int
    channels_created: int
    viewers_joined: int
    channel_occupancy: float
    patch_ratio: float
    slots_saved: int
    merges: int
    downgrades: int
    ledger_outstanding: float
    #: Per-join patch bounds: (offset_us, patch_us) for auditing.
    patch_bounds: Tuple[Tuple[int, int], ...]
    #: Network-level fan-out: sends to a group vs. per-member copies.
    multicast_sends: int
    multicast_copies: int


def _run_once(
    multicast: Optional[MulticastConfig],
    offered: float,
    mean_watch_seconds: float,
    duration: float,
    n_titles: int,
    seed: int,
) -> MulticastPoint:
    cluster = CalliopeCluster(
        Simulator(),
        ClusterConfig(
            n_msus=1,
            disks_per_hba=(1,),  # disk-bound on purpose: one disk, ~12 streams
            ibtree_config=SMALL_PAGES,
            multicast=multicast,
        ),
    )
    titles = load_titles(cluster, n_titles, mean_watch_seconds * 6.0, seed)
    stats = run_population(
        cluster, titles, offered, mean_watch_seconds, duration, seed
    )
    manager = cluster.coordinator.channel_manager
    return MulticastPoint(
        multicast_enabled=multicast is not None,
        **population_fields(offered, stats),
        channels_created=manager.channels_created if manager else 0,
        viewers_joined=manager.viewers_joined if manager else 0,
        channel_occupancy=manager.occupancy() if manager else 0.0,
        patch_ratio=manager.patch_ratio() if manager else 0.0,
        slots_saved=manager.slots_saved() if manager else 0,
        merges=manager.merges if manager else 0,
        downgrades=manager.downgrades if manager else 0,
        ledger_outstanding=manager.ledger.outstanding() if manager else 0.0,
        patch_bounds=tuple(
            (j.offset_us, j.patch_us) for j in manager.patch_joins
        ) if manager else (),
        multicast_sends=cluster.delivery_net.multicast_carried,
        multicast_copies=cluster.delivery_net.multicast_copies,
    )


def run_multicast(
    offered_erlangs: float = 60.0,
    mean_watch_seconds: float = 8.0,
    duration: float = 120.0,
    n_titles: int = 8,
    batch_window: float = 0.5,
    patch_horizon: float = 6.0,
    seed: int = 14,
) -> List[MulticastPoint]:
    """The same Zipf VoD workload with unicast and multicast delivery."""
    unicast = _run_once(
        None, offered_erlangs, mean_watch_seconds, duration, n_titles, seed
    )
    multicast = _run_once(
        MulticastConfig(batch_window=batch_window, patch_horizon=patch_horizon),
        offered_erlangs, mean_watch_seconds, duration, n_titles, seed,
    )
    return [unicast, multicast]


def format_multicast(points: List[MulticastPoint]) -> str:
    """Render the on/off comparison plus the channel metrics."""
    lines = [
        "Multicast channels on the disk-bound Zipf VoD workload "
        "(one MSU, one disk)",
        f"{'delivery':>9} | {'arrivals':>8} | {'admitted':>8} | {'denied':>6} | "
        f"{'P(block)':>8} | {'peak':>4} | {'channels':>8} | {'saved':>5}",
    ]
    for p in points:
        label = "mcast" if p.multicast_enabled else "unicast"
        lines.append(
            f"{label:>9} | {p.arrivals:>8} | {p.admitted:>8} | "
            f"{p.blocked_or_abandoned:>6} | {p.blocking_probability:>8.3f} | "
            f"{p.concurrent_peak:>4} | {p.channels_created:>8} | "
            f"{p.slots_saved:>5}"
        )
    off = next((p for p in points if not p.multicast_enabled), None)
    on = next((p for p in points if p.multicast_enabled), None)
    if off is not None and on is not None and off.concurrent_peak:
        gain = on.concurrent_peak / off.concurrent_peak
        lines.append(
            f"concurrent viewers per disk: {off.concurrent_peak} -> "
            f"{on.concurrent_peak} ({gain:.1f}x); "
            f"{on.multicast_sends} channel sends fanned out to "
            f"{on.multicast_copies} receiver copies"
        )
    if on is not None:
        for name, value in (
            ("channels created", on.channels_created),
            ("viewers joined", on.viewers_joined),
            ("channel occupancy (viewers/channel)", on.channel_occupancy),
            ("patch ratio (%)", on.patch_ratio * 100.0),
            ("slots saved", on.slots_saved),
            ("merges (patches drained)", on.merges),
            ("downgrades to unicast", on.downgrades),
        ):
            lines.append(f"  {name:<36} {value:>10.1f}")
        lines.append(
            f"  {'ledger outstanding after drain':<36} "
            f"{on.ledger_outstanding:>10.1f}"
        )
    lines.append(
        "(the paper's per-viewer unicast delivery (§2.2) pays one disk"
        " slot per viewer; batching and patching charge per channel, so"
        " concurrent viewers scale with delivery fan-out, not disk arms)"
    )
    return "\n".join(lines)


def _checks(points: List[MulticastPoint]) -> None:
    off, on = points
    # The acceptance bar: one disk sustains at least twice the concurrent
    # viewers with multicast on, the gain really came from batching and
    # patching, and the admission books balance once everything drains.
    assert not off.multicast_enabled and on.multicast_enabled
    assert on.concurrent_peak >= 2 * off.concurrent_peak
    assert on.channel_occupancy > 1.0
    assert on.slots_saved > 0
    assert on.merges > 0
    assert on.ledger_outstanding == 0.0
    # Every patch the run granted stayed inside the configured horizon.
    horizon_us = 6.0 * 1e6
    for offset_us, patch_us in on.patch_bounds:
        assert patch_us <= horizon_us + 1e6  # horizon + one-page margin
    # The network really fanned out: more receiver copies than sends.
    assert on.multicast_copies > on.multicast_sends


def _headlines(points: List[MulticastPoint]) -> list:
    off, on = points
    return [
        headline(
            "viewers_per_disk_gain",
            round(on.concurrent_peak / off.concurrent_peak, 2), "x",
        ),
        headline(
            "channel_occupancy",
            round(on.channel_occupancy, 2), "viewers/channel",
        ),
        headline("slots_saved", on.slots_saved, "disk slots"),
    ]


EXPERIMENTS = (
    Experiment(
        name="multicast", table="multicast",
        paper_ref="§2.2/§3.2 multicast channels + patching (extension)",
        run=run_multicast, render=format_multicast,
        checks=_checks, headlines=_headlines, duration_arg="duration",
    ),
)
