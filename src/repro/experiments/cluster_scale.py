"""Experiment E13 (extension) — scaling by adding MSUs (abstract, §3.3).

"Preliminary performance measurements indicate that Calliope can be
scaled from a single PC producing about 22 MPEG-1 video streams to
hundreds of PCs producing thousands of streams. ... Larger Calliope
installations still have a single coordinator, but add more MSUs as
storage requirements or user bandwidth requirements increase."

§3.3 argues this with a fake MSU; this experiment demonstrates it with
*real* ones: installations of 1, 2 and 4 MSUs each serve a comfortable
per-MSU load (18 streams) simultaneously, and we verify that

* aggregate delivered bandwidth scales linearly with MSU count,
* per-stream delivery quality does not degrade as MSUs are added
  (MSUs share nothing but the Coordinator and control network), and
* the Coordinator's CPU stays negligible throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Sequence

from repro.clients.client import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.experiments import Experiment, headline
from repro.media.mpeg import MpegEncoder, packetize_cbr
from repro.sim import Simulator
from repro.units import CBR_PACKET_SIZE, MPEG1_RATE, to_mbyte_per_s

__all__ = ["ScalePoint", "run_cluster_scale", "format_cluster_scale"]


@dataclass(frozen=True)
class ScalePoint:
    """One installation size's behaviour."""

    n_msus: int
    streams: int
    aggregate_mb_s: float
    #: Worst per-MSU "fraction within 50 ms" across the installation.
    worst_within_50ms: float
    coordinator_cpu: float


def _run_one(n_msus: int, per_msu: int, duration: float, seed: int) -> ScalePoint:
    sim = Simulator()
    cluster = CalliopeCluster(sim, ClusterConfig(n_msus=n_msus))
    cluster.coordinator.db.add_customer("user")
    encoder = MpegEncoder(seed=seed)
    packets = packetize_cbr(
        encoder.bitstream(duration + 30.0), MPEG1_RATE, CBR_PACKET_SIZE
    )
    for msu_index in range(n_msus):
        ndisks = len(cluster.msus[msu_index].disk_ids())
        for d in range(ndisks):
            cluster.load_content(
                f"movie-m{msu_index}-d{d}", "mpeg1", packets,
                msu_index=msu_index, disk_index=d,
            )
    client = Client(sim, cluster, "audience")

    def start_all() -> Generator:
        yield from client.open_session("user")
        port_no = 0
        for msu_index in range(n_msus):
            ndisks = len(cluster.msus[msu_index].disk_ids())
            for s in range(per_msu):
                name = f"p{port_no}"
                port_no += 1
                yield from client.register_port(name, "mpeg1")
                yield from client.play(f"movie-m{msu_index}-d{s % ndisks}", name)

    proc = sim.process(start_all(), name="start")
    sim.run_until_event(proc, limit=60.0)
    start = sim.now
    sent_before = [msu.iop.packets_sent for msu in cluster.msus]
    for msu in cluster.msus:
        msu.iop.collector.reset()
    cpu_before = cluster.coordinator.machine.cpu.busy_time
    sim.run(until=start + duration)
    total_bytes = sum(
        (msu.iop.packets_sent - before) * CBR_PACKET_SIZE
        for msu, before in zip(cluster.msus, sent_before)
    )
    worst = min(
        msu.iop.collector.percent_within(50) / 100.0 for msu in cluster.msus
    )
    cpu = (cluster.coordinator.machine.cpu.busy_time - cpu_before) / duration
    return ScalePoint(
        n_msus=n_msus,
        streams=per_msu * n_msus,
        aggregate_mb_s=to_mbyte_per_s(total_bytes / duration),
        worst_within_50ms=worst,
        coordinator_cpu=cpu,
    )


def run_cluster_scale(
    msu_counts: Sequence[int] = (1, 2, 4),
    per_msu: int = 18,
    duration: float = 20.0,
    seed: int = 10,
) -> List[ScalePoint]:
    """Sweep the installation size at a fixed per-MSU load."""
    return [_run_one(n, per_msu, duration, seed) for n in msu_counts]


def format_cluster_scale(points: List[ScalePoint]) -> str:
    """Render the scaling table."""
    lines = [
        "Scaling by adding MSUs (18 x 1.5 Mbit/s streams per MSU)",
        f"{'MSUs':>5} | {'streams':>7} | {'aggregate MB/s':>14} | "
        f"{'worst within 50ms':>17} | {'coordinator CPU':>15}",
    ]
    for p in points:
        lines.append(
            f"{p.n_msus:>5} | {p.streams:>7} | {p.aggregate_mb_s:>13.2f}  | "
            f"{p.worst_within_50ms * 100.0:>16.1f}% | {p.coordinator_cpu * 100.0:>14.2f}%"
        )
    base = points[0]
    last = points[-1]
    ratio = last.aggregate_mb_s / base.aggregate_mb_s
    lines.append(
        f"(aggregate scaled {ratio:.2f}x across {last.n_msus}x the MSUs;"
        " per-stream quality held — MSUs share only the Coordinator)"
    )
    return "\n".join(lines)


def _checks(points: List[ScalePoint]) -> None:
    base, last = points[0], points[-1]
    scale = last.n_msus / base.n_msus
    # Aggregate bandwidth scales linearly with MSU count ...
    assert last.aggregate_mb_s / base.aggregate_mb_s > scale * 0.9
    # ... per-stream quality does not degrade as MSUs are added ...
    assert all(p.worst_within_50ms > 0.98 for p in points)
    # ... and the shared Coordinator stays far from saturation (§3.3).
    assert all(p.coordinator_cpu < 0.05 for p in points)


def _headlines(points: List[ScalePoint]) -> list:
    return [
        headline(
            "aggregate_mb_s",
            round(points[-1].aggregate_mb_s, 2), "MB/s",
            n_msus=points[-1].n_msus,
        ),
        headline(
            "coordinator_cpu",
            round(max(p.coordinator_cpu for p in points), 4), "fraction",
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="cluster-scale", table="cluster_scale",
        paper_ref="abstract/§3.3 scaling by adding MSUs (extension)",
        run=run_cluster_scale, render=format_cluster_scale,
        checks=_checks, headlines=_headlines, duration_arg="duration",
    ),
)
