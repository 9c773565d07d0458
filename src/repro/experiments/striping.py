"""Experiment E10 — §2.3.3: the striping trade-off Calliope declined.

The paper's MSU stores each file on a single disk and argues both sides:

* striping would "utilize the disks well even if workload is
  unpredictable" — with per-disk files, a popularity skew overloads one
  disk while others idle;
* but a striped client "must delay every time it issues a VCR command
  while a disk slot becomes available", and the duty cycle covers all
  disks, multiplying the worst-case start-up wait.

The experiment serves a skewed workload (80 % of streams on one hot file)
from two disks under both layouts and reports aggregate throughput,
per-disk balance and the block-fetch latency distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

import numpy as np

from repro.experiments import Experiment, headline
from repro.hardware import Machine, MachineParams
from repro.sim import Simulator
from repro.units import BLOCK_SIZE, to_mbyte_per_s

__all__ = ["StripingResult", "run_striping", "format_striping"]


@dataclass(frozen=True)
class StripingResult:
    """One layout's behaviour under a skewed popularity workload."""

    layout: str
    aggregate_mb_s: float
    per_disk_mb_s: List[float]
    mean_fetch_ms: float
    p95_fetch_ms: float


def _stream_reader(
    sim, disks, period: float, fetches: List[float],
    rng: np.random.Generator, phase: float,
) -> Generator:
    """A paced stream: one block per period from its disk sequence.

    ``disks`` is the per-block disk cycle: a one-element list for a
    per-disk file, or the round-robin pair for a striped file.  Offsets
    are random across the platter — a two-hour movie spans most of a 2 GB
    disk, so a stream's blocks land anywhere.
    """
    index = 0
    if phase > 0:
        yield sim.timeout(phase)
    while True:
        start = sim.now
        disk = disks[index % len(disks)]
        nblocks = disk.params.capacity_bytes // BLOCK_SIZE
        offset = int(rng.integers(0, nblocks)) * BLOCK_SIZE
        yield from disk.transfer(offset, BLOCK_SIZE)
        fetches.append(sim.now - start)
        index += 1
        elapsed = sim.now - start
        if elapsed < period:
            yield sim.timeout(period - elapsed)


def _run_layout(striped: bool, streams: int, hot_fraction: float,
                duration: float, seed: int) -> StripingResult:
    sim = Simulator()
    machine = Machine(sim, MachineParams(disks_per_hba=(2,)), seed=seed)
    rng = np.random.default_rng(seed)
    fetches: List[float] = []
    # A paced request stream: 1.5 Mbit/s per stream -> one block / 1.43 s.
    period = BLOCK_SIZE / 187_500.0
    n_hot = int(round(streams * hot_fraction))
    for i in range(streams):
        if striped:
            disks = list(machine.disks)  # blocks alternate across disks
        else:
            disks = [machine.disks[0] if i < n_hot else machine.disks[1]]
        phase = float(rng.uniform(0.0, period))  # clients arrive unsynchronized
        child = np.random.default_rng(rng.integers(0, 2**63))
        sim.process(
            _stream_reader(sim, disks, period, fetches, child, phase),
            name=f"s{i}",
        )
    sim.run(until=duration)
    per_disk = [to_mbyte_per_s(d.throughput(duration)) for d in machine.disks]
    arr = np.array(fetches) * 1000.0
    return StripingResult(
        layout="striped" if striped else "per-disk",
        aggregate_mb_s=sum(per_disk),
        per_disk_mb_s=per_disk,
        mean_fetch_ms=float(arr.mean()) if len(arr) else 0.0,
        p95_fetch_ms=float(np.percentile(arr, 95)) if len(arr) else 0.0,
    )


def run_striping(
    streams: int = 24,
    hot_fraction: float = 0.8,
    duration: float = 60.0,
    seed: int = 6,
) -> List[StripingResult]:
    """Both layouts under the same skewed workload."""
    return [
        _run_layout(False, streams, hot_fraction, duration, seed),
        _run_layout(True, streams, hot_fraction, duration, seed),
    ]


def format_striping(results: List[StripingResult]) -> str:
    """Render the trade-off table."""
    lines = [
        "Striping ablation: 24 paced 1.5 Mbit/s streams, 80% on one hot file",
        f"{'layout':>10} | {'aggregate':>9} | {'per-disk MB/s':>16} | "
        f"{'fetch mean':>10} | {'fetch p95':>9}",
    ]
    for r in results:
        disks = " ".join(f"{d:.2f}" for d in r.per_disk_mb_s)
        lines.append(
            f"{r.layout:>10} | {r.aggregate_mb_s:8.2f}  | {disks:>16} | "
            f"{r.mean_fetch_ms:8.1f}ms | {r.p95_fetch_ms:7.1f}ms"
        )
    lines.append(
        "(striping balances the skew; per-disk files overload the hot disk"
        " — §2.3.3's argument for, weighed against its VCR-latency cost)"
    )
    return "\n".join(lines)


# -- VCR startup latency through the full MSU (§2.3.3's other half) ---------


def _measure_startup(striped: bool, background: int, probes: int, seed: int):
    """Seek-to-first-packet delays on a loaded MSU, one layout."""
    from repro.clients.client import Client
    from repro.core.cluster import CalliopeCluster, ClusterConfig
    from repro.media.mpeg import MpegEncoder, packetize_cbr
    from repro.net import messages as m
    from repro.sim import Simulator
    from repro.storage.ibtree import IBTreeConfig

    config = IBTreeConfig(data_page_size=64 * 1024, internal_page_size=4096,
                          max_keys=128)
    sim = Simulator()
    cluster = CalliopeCluster(
        sim, ClusterConfig(n_msus=1, ibtree_config=config, striped_msus=striped)
    )
    cluster.coordinator.db.add_customer("user")
    for state in cluster.coordinator.db.msus.values():
        state.delivery_capacity = 1e12
        for disk in state.disks.values():
            disk.bandwidth_capacity = 1e12
    sim.run(until=0.01)
    for state in cluster.coordinator.db.msus.values():
        state.delivery_capacity = 1e12
        for disk in state.disks.values():
            disk.bandwidth_capacity = 1e12
    packets = packetize_cbr(MpegEncoder(seed=seed).bitstream(90.0), 187_500, 4096)
    ndisks = len(cluster.msus[0].disk_ids())
    for d in range(ndisks):
        cluster.load_content(f"bg-{d}", "mpeg1", packets, disk_index=d)
    cluster.load_content("probe", "mpeg1", packets, disk_index=0)
    client = Client(sim, cluster, "c0")
    delays = []

    def scenario():
        import numpy as np

        rng = np.random.default_rng(seed)
        yield from client.open_session("user")
        for i in range(background):
            yield from client.register_port(f"bg{i}", "mpeg1")
            yield from client.play(f"bg-{i % ndisks}", f"bg{i}")
        yield from client.register_port("probe-tv", "mpeg1")
        view = yield from client.play("probe", "probe-tv")
        yield from client.wait_ready(view)
        yield sim.timeout(3.0)
        stats = client.ports["probe-tv"].stats
        for _ in range(probes):
            target = float(rng.uniform(10.0, 70.0))
            issued = sim.now
            client.vcr(view.group_id, m.VCR_SEEK, target)
            # First arrival comfortably after the flush is the restart.
            while (
                stats.last_arrival is None or stats.last_arrival < issued + 0.05
            ):
                yield sim.timeout(0.01)
            delays.append(stats.last_arrival - issued)
            yield sim.timeout(2.0)
        client.quit(view.group_id)

    proc = sim.process(scenario(), name="probe")
    sim.run(until=600.0)
    if not proc.triggered or not proc.ok:
        raise RuntimeError("startup probe did not finish")
    return delays


def run_startup_latency(
    background: int = 12, probes: int = 8, seed: int = 8
) -> dict:
    """Seek restart delays under load: per-disk vs striped MSU.

    §2.3.3: a striped client "must delay every time it issues a VCR
    command while a disk slot becomes available", and the striped duty
    cycle covers all disks — so restart latency grows with the stripe.
    """
    return {
        "per-disk": _measure_startup(False, background, probes, seed),
        "striped": _measure_startup(True, background, probes, seed),
    }


def format_startup_latency(results: dict) -> str:
    """Render the VCR-latency half of the trade-off."""
    import numpy as np

    lines = ["VCR seek restart latency under load (full MSU)"]
    for label, delays in results.items():
        arr = np.array(delays) * 1000.0
        lines.append(
            f"  {label:>9}: mean {arr.mean():7.1f} ms   "
            f"p95 {np.percentile(arr, 95):7.1f} ms   n={len(arr)}"
        )
    lines.append(
        "(the paper feared striped VCR delay would be unacceptable, then"
        ' conceded "In retrospect, we were probably wrong" — measured,'
        " the striped restart is comparable)"
    )
    return "\n".join(lines)


def _checks(results: List[StripingResult]) -> None:
    per_disk, striped = results
    # Striping balances the skewed load across disks ...
    spread = max(per_disk.per_disk_mb_s) - min(per_disk.per_disk_mb_s)
    balanced = max(striped.per_disk_mb_s) - min(striped.per_disk_mb_s)
    assert balanced < spread * 0.25
    # ... which relieves the overloaded hot disk's latency.
    assert striped.mean_fetch_ms < per_disk.mean_fetch_ms


def _headlines(results: List[StripingResult]) -> list:
    per_disk, striped = results
    return [
        headline(
            "mean_fetch_ms_striped",
            round(striped.mean_fetch_ms, 3), "ms",
            per_disk=round(per_disk.mean_fetch_ms, 3),
        ),
    ]


def _startup_checks(results: dict) -> None:
    # §2.3.3's other half: striped VCR restart delay, measured through
    # the full MSU — landing on the paper's own "we were probably wrong".
    per_disk = np.mean(results["per-disk"])
    striped = np.mean(results["striped"])
    assert striped < per_disk * 2.0 and per_disk < striped * 2.0


def _startup_headlines(results: dict) -> list:
    return [
        headline(
            "striped_startup_ms",
            round(float(np.mean(results["striped"]) * 1000), 2), "ms",
            per_disk=round(float(np.mean(results["per-disk"]) * 1000), 2),
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="striping", table="striping",
        paper_ref="§2.3.3 striping trade-off",
        run=run_striping, render=format_striping,
        checks=_checks, headlines=_headlines, duration_arg="duration",
    ),
    Experiment(
        name="striping-startup", table="striping_startup",
        paper_ref="§2.3.3 striped VCR restart latency",
        run=run_startup_latency, render=format_startup_latency,
        checks=_startup_checks, headlines=_startup_headlines,
    ),
)
