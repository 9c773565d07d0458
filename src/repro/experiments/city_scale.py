"""Experiment E23 — engine speed and city-scale installations (ROADMAP).

The paper's abstract claims Calliope "can be scaled from a single PC
producing about 22 MPEG-1 video streams to hundreds of PCs producing
thousands of streams"; §3.3 argues the shared-resource side of that claim
with an instrumented *fake* MSU so that only the load under measurement
exists.  This experiment does the simulator-side equivalent for the
engine overhaul (DESIGN.md §13):

* :func:`run_engine_bench` measures the speedup coarsened pacing delivers
  on a paced-delivery workload: the reference configuration (one wakeup
  per packet) against the fast configuration (one wakeup per
  ``fast_batch`` packets).  Both run identical stream populations for
  identical simulated time on the same scheduler; the figure of merit is
  the wall-time ratio and the events/second each configuration sustains.

* :func:`run_city_scale` is the E13 scaling sweep taken to city scale:
  installations of up to 1000 MSUs serving 100,000 concurrent viewers.
  Following §3.3's fake-MSU methodology, the control plane is real — one
  Coordinator, one TCP control channel per MSU, real hello traffic — and
  the data plane is lightweight: each viewer is a paced CBR stream that
  exercises the scheduler exactly as a real stream's send loop does
  (same wakeup cadence, same coarsening contract) without the per-packet
  storage stack no single Python process could simulate 100k of.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Generator, List, Sequence

from repro.clients.fake_msu import FakeMsu
from repro.net.network import ControlChannel, Network
from repro.sim import Simulator
from repro.units import CBR_PACKET_SIZE, MPEG1_RATE, ms, to_mbyte_per_s

__all__ = [
    "EngineBenchResult",
    "CityScalePoint",
    "run_engine_bench",
    "run_city_scale",
    "format_engine_bench",
    "format_city_scale",
]

#: Seconds between CBR packets of one 1.5 Mbit/s stream (§3.2: 4 KiB FDDI
#: packets at 187.5 KB/s — about 46 packets per second per stream).
PACKET_SPACING = CBR_PACKET_SIZE / MPEG1_RATE


class _PacedStream:
    """One viewer's delivery loop: the scheduler load of a real stream.

    Mirrors the IOP send cadence: per packet-period wakeups when pacing
    is exact, one wakeup per ``effective_batch()`` periods when the
    simulation has opted into coarsening.  Packet and byte counters feed
    the aggregate-bandwidth check, exactly as MSU counters do in E13.
    """

    __slots__ = ("packets",)

    def __init__(self, sim: Simulator, stagger: float):
        self.packets = 0
        sim.process(self._run(sim, stagger), name="pace")

    def _run(self, sim: Simulator, stagger: float) -> Generator:
        if stagger > 0:
            yield sim.sleep(stagger)
        while True:
            batch = sim.effective_batch()
            if batch > 1:
                yield sim.sleep(batch * PACKET_SPACING)
                self.packets += batch
            else:
                yield sim.sleep(PACKET_SPACING)
                self.packets += 1


@dataclass(frozen=True)
class EngineBenchResult:
    """One configuration's run of the paced workload."""

    pacing_batch: int
    streams: int
    sim_seconds: float
    wall_seconds: float
    events: int

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0


def _bench_one(
    pacing_batch: int, streams: int, duration: float
) -> EngineBenchResult:
    sim = Simulator()
    sim.pacing_batch = pacing_batch
    # Stagger starts across one packet period so the queue carries a
    # realistic spread of deadlines rather than one synchronized pulse.
    pacers = [
        _PacedStream(sim, stagger=(i / streams) * PACKET_SPACING)
        for i in range(streams)
    ]
    start = time.perf_counter()
    sim.run(until=duration)
    wall = time.perf_counter() - start
    assert sum(p.packets for p in pacers) > 0
    return EngineBenchResult(
        pacing_batch=pacing_batch,
        streams=streams,
        sim_seconds=duration,
        wall_seconds=wall,
        events=sim.events_executed,
    )


def run_engine_bench(
    streams: int = 500,
    duration: float = 20.0,
    fast_batch: int = 16,
) -> List[EngineBenchResult]:
    """Reference configuration vs fast configuration, identical workload.

    Returns ``[reference, fast]``: pacing every packet (the pre-overhaul
    behaviour) and coarsened pacing (what the city-scale runs use).
    """
    reference = _bench_one(1, streams, duration)
    fast = _bench_one(fast_batch, streams, duration)
    return [reference, fast]


def engine_speedup(results: Sequence[EngineBenchResult]) -> float:
    """Wall-time ratio of the reference run to the fast run."""
    reference, fast = results[0], results[-1]
    return (
        reference.wall_seconds / fast.wall_seconds
        if fast.wall_seconds > 0
        else float("inf")
    )


def format_engine_bench(results: Sequence[EngineBenchResult]) -> str:
    """Render the engine comparison table."""
    lines = [
        "Coarsened-pacing speedup (identical paced workload)",
        f"{'config':>10} | {'streams':>7} | {'events':>9} | "
        f"{'wall s':>7} | {'events/s':>10}",
    ]
    for r in results:
        config = f"batch={r.pacing_batch}"
        lines.append(
            f"{config:>10} | {r.streams:>7} | {r.events:>9} | "
            f"{r.wall_seconds:>7.2f} | {r.events_per_sec:>10.0f}"
        )
    lines.append(f"(speedup: {engine_speedup(results):.1f}x wall time)")
    return "\n".join(lines)


@dataclass(frozen=True)
class CityScalePoint:
    """One installation size's behaviour and cost."""

    n_msus: int
    viewers: int
    sim_seconds: float
    wall_seconds: float
    events: int
    aggregate_mb_s: float
    coordinator_cpu: float

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0


def _city_one(
    n_msus: int, viewers: int, duration: float, pacing_batch: int
) -> CityScalePoint:
    from repro.core.coordinator import Coordinator

    sim = Simulator()
    sim.pacing_batch = pacing_batch
    intra = Network(sim, "intra", latency=ms(1.0))
    coordinator = Coordinator(sim)
    coordinator.db.add_customer("user")
    for i in range(n_msus):
        fake = FakeMsu(sim, f"msu{i}")
        channel = ControlChannel(
            sim, coordinator.name, fake.name, latency=ms(1.0), network=intra
        )
        coordinator.attach_msu(channel)
        fake.attach_coordinator(channel)
    sim.run(until=0.05)  # let the hellos land
    pacers = [
        _PacedStream(sim, stagger=(i / viewers) * PACKET_SPACING)
        for i in range(viewers)
    ]
    start_sim = sim.now
    cpu_before = coordinator.machine.cpu.busy_time
    events_before = sim.events_executed
    start = time.perf_counter()
    sim.run(until=start_sim + duration)
    wall = time.perf_counter() - start
    total_bytes = sum(p.packets for p in pacers) * CBR_PACKET_SIZE
    cpu = (coordinator.machine.cpu.busy_time - cpu_before) / duration
    return CityScalePoint(
        n_msus=n_msus,
        viewers=viewers,
        sim_seconds=duration,
        wall_seconds=wall,
        events=sim.events_executed - events_before,
        aggregate_mb_s=to_mbyte_per_s(total_bytes / duration),
        coordinator_cpu=cpu,
    )


def run_city_scale(
    points: Sequence[tuple] = ((10, 1_000), (100, 10_000), (1000, 100_000)),
    duration: float = 5.0,
    pacing_batch: int = 64,
) -> List[CityScalePoint]:
    """Sweep installation size up to 1000 MSUs / 100k concurrent viewers."""
    return [_city_one(n, v, duration, pacing_batch) for n, v in points]


def format_city_scale(points: List[CityScalePoint]) -> str:
    """Render the city-scale sweep."""
    lines = [
        "City-scale installations (coarsened pacing)",
        f"{'MSUs':>5} | {'viewers':>8} | {'aggregate MB/s':>14} | "
        f"{'wall s':>7} | {'events/s':>9} | {'coord CPU':>9}",
    ]
    for p in points:
        lines.append(
            f"{p.n_msus:>5} | {p.viewers:>8} | {p.aggregate_mb_s:>13.1f}  | "
            f"{p.wall_seconds:>7.2f} | {p.events_per_sec:>9.0f} | "
            f"{p.coordinator_cpu * 100.0:>8.2f}%"
        )
    base, last = points[0], points[-1]
    ratio = last.aggregate_mb_s / base.aggregate_mb_s if base.aggregate_mb_s else 0.0
    lines.append(
        f"(aggregate scaled {ratio:.0f}x across {last.n_msus // base.n_msus}x"
        f" the MSUs in {last.wall_seconds:.1f}s of wall time)"
    )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual calibration aid
    print(format_engine_bench(run_engine_bench()))
    print()
    print(format_city_scale(run_city_scale()))
