"""Experiment E11 (extension) — §2.3.3's replication alternative.

The paper rejects striping and notes the non-striped remedy for skewed
popularity: "we can make copies of popular content on several disks, but
we must anticipate usage trends ... We must also use additional disk
space to get additional disk bandwidth."

The experiment offers a skewed stream population (80 % of requests for
one hot movie) to a two-disk MSU, with and without the
:class:`~repro.core.replication.ReplicationManager` having copied the hot
item to the second disk, and reports how many of the offered streams the
Coordinator can admit plus the disk-load balance — quantifying both
halves of the paper's sentence (the bandwidth gained, and the disk space
spent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from repro.clients.client import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.core.replication import ReplicationManager
from repro.experiments import Experiment, headline
from repro.media.mpeg import MpegEncoder, packetize_cbr
from repro.net import messages as m
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import MPEG1_RATE

__all__ = ["ReplicationResult", "run_replication", "format_replication"]


@dataclass(frozen=True)
class ReplicationResult:
    """Admission outcome for one configuration."""

    label: str
    offered: int
    admitted: int
    queued: int
    disk_loads: List[float]  # bandwidth_used / capacity per disk
    extra_blocks: int  # disk space spent on copies


def _run(replicate: bool, offered: int, hot_fraction: float, seed: int
         ) -> ReplicationResult:
    sim = Simulator()
    cluster = CalliopeCluster(sim, ClusterConfig(n_msus=1, ibtree_config=SMALL_PAGES))
    cluster.coordinator.db.add_customer("user")
    packets = packetize_cbr(MpegEncoder(seed=seed).bitstream(4.0), MPEG1_RATE, 1024)
    cluster.load_content("hot", "mpeg1", packets, disk_index=0)
    cluster.load_content("cold", "mpeg1", packets, disk_index=1)
    sim.run(until=0.01)
    extra_blocks = 0
    if replicate:
        manager = ReplicationManager(cluster)
        target = cluster.msus[0].disk_ids()[1]
        manager.replicate("hot", "msu0", target)
        extra_blocks = cluster.msus[0].filesystems[target].open("hot").nblocks
    client = Client(sim, cluster, "audience")
    n_hot = int(round(offered * hot_fraction))

    def request_all() -> Generator:
        yield from client.open_session("user")
        for i in range(offered):
            yield from client.register_port(f"p{i}", "mpeg1")
        for i in range(offered):
            name = "hot" if i < n_hot else "cold"
            # Open loop: a queued request gets no immediate answer (§2.2),
            # so the reply is left in the channel mailbox, not awaited.
            client.channel.send(
                client.name,
                m.PlayRequest(client.session_id, name, f"p{i}"),
                nbytes=m.WIRE_BYTES,
            )

    sim.process(request_all(), name="requests")
    sim.run(until=2.0)  # requests land; queued ones stay parked
    db = cluster.coordinator.db
    state = db.msus["msu0"]
    loads = [
        disk.bandwidth_used / disk.bandwidth_capacity
        for _, disk in sorted(state.disks.items())
    ]
    admission = cluster.coordinator.admission
    return ReplicationResult(
        "replicated" if replicate else "single-copy",
        offered=offered,
        admitted=admission.admitted,
        queued=len(admission.queue),
        disk_loads=loads,
        extra_blocks=extra_blocks,
    )


def run_replication(
    offered: int = 24, hot_fraction: float = 0.8, seed: int = 12
) -> List[ReplicationResult]:
    """Skewed admission with and without the hot item replicated."""
    return [
        _run(False, offered, hot_fraction, seed),
        _run(True, offered, hot_fraction, seed),
    ]


def format_replication(results: List[ReplicationResult]) -> str:
    """Render the admission comparison."""
    lines = [
        "Replication ablation: 24 offered 1.5 Mbit/s streams, 80% on one hot item",
        f"{'config':>12} | {'admitted':>8} | {'queued':>6} | "
        f"{'disk loads':>14} | {'copy cost':>9}",
    ]
    for r in results:
        loads = " ".join(f"{load * 100.0:.0f}%" for load in r.disk_loads)
        lines.append(
            f"{r.label:>12} | {r.admitted:>8} | {r.queued:>6} | "
            f"{loads:>14} | {r.extra_blocks:>4} blks"
        )
    lines.append(
        "(a second copy turns the idle disk's bandwidth into admitted hot"
        " streams, at the §2.3.3 price: disk space for disk bandwidth)"
    )
    return "\n".join(lines)


def _checks(results: List[ReplicationResult]) -> None:
    single, replicated = results
    # A second copy of the hot item converts the idle disk's bandwidth
    # into admitted streams, at a disk-space cost (§2.3.3).
    assert replicated.admitted > single.admitted
    assert replicated.extra_blocks > 0
    assert replicated.queued < single.queued


def _headlines(results: List[ReplicationResult]) -> list:
    single, replicated = results
    return [
        headline(
            "admitted_gain",
            replicated.admitted - single.admitted, "streams",
            copy_blocks=replicated.extra_blocks,
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="replication", table="replication",
        paper_ref="§2.3.3 replication alternative (extension)",
        run=run_replication, render=format_replication,
        checks=_checks, headlines=_headlines,
    ),
)
