"""Experiment E7 — §2.3.3: elevator scheduling buys only ~6 %.

"Using a simple program that simulated 24 concurrent users reading random
256 KByte disk blocks, we found that an elevator scheduling algorithm
improves throughput by only about 6% for our disks."

The reason, as the paper argues: rotation and settle time are unaffected
by head scheduling, and 256 KiB transfers already dominate the service
time, so shrinking the seek component moves the needle very little.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.experiments import Experiment, headline
from repro.hardware import Machine, MachineParams, SeekPolicy
from repro.sim import Simulator
from repro.units import BLOCK_SIZE, to_mbyte_per_s

__all__ = ["ElevatorResult", "run_elevator", "format_elevator"]

PAPER_IMPROVEMENT = 0.06


@dataclass(frozen=True)
class ElevatorResult:
    """Throughput (MB/s) under each disk queue discipline."""

    fcfs: float
    elevator: float
    sstf: float

    @property
    def elevator_gain(self) -> float:
        """Fractional throughput improvement of elevator over FCFS."""
        return self.elevator / self.fcfs - 1.0


def _reader(sim: Simulator, disk, rng: np.random.Generator) -> Generator:
    nblocks = disk.params.capacity_bytes // BLOCK_SIZE
    while True:
        offset = int(rng.integers(0, nblocks)) * BLOCK_SIZE
        yield from disk.transfer(offset, BLOCK_SIZE)


def _measure(policy: SeekPolicy, users: int, duration: float, seed: int) -> float:
    sim = Simulator()
    machine = Machine(
        sim, MachineParams(disks_per_hba=(1,)), seed=seed, disk_policy=policy
    )
    disk = machine.disks[0]
    rng = np.random.default_rng(seed)
    for _ in range(users):
        child = np.random.default_rng(rng.integers(0, 2**63))
        sim.process(_reader(sim, disk, child), name="reader")
    sim.run(until=duration)
    return to_mbyte_per_s(disk.throughput(duration))


def run_elevator(
    users: int = 24, duration: float = 60.0, seed: int = 3
) -> ElevatorResult:
    """24 concurrent random 256 KiB readers under three disciplines."""
    return ElevatorResult(
        fcfs=_measure(SeekPolicy.FCFS, users, duration, seed),
        elevator=_measure(SeekPolicy.ELEVATOR, users, duration, seed),
        sstf=_measure(SeekPolicy.SSTF, users, duration, seed),
    )


def format_elevator(result: ElevatorResult) -> str:
    """Render the comparison the §2.3.3 aside makes."""
    return (
        "Disk head scheduling, 24 concurrent 256 KiB random readers (MByte/sec)\n"
        f"  FCFS (round-robin, as built): {result.fcfs:5.2f}\n"
        f"  elevator:                     {result.elevator:5.2f}"
        f"  (+{result.elevator_gain * 100.0:.1f}%, paper: ~6%)\n"
        f"  SSTF:                         {result.sstf:5.2f}"
    )


def _checks(result: ElevatorResult) -> None:
    import pytest  # approx; checks run under the bench

    # Paper: "an elevator scheduling algorithm improves throughput by only
    # about 6% for our disks".
    assert result.elevator_gain == pytest.approx(0.06, abs=0.04)


def _headlines(result: ElevatorResult) -> list:
    return [
        headline(
            "throughput_gain", round(result.elevator_gain, 4),
            "fraction", paper_claim=0.06,
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="elevator", table="elevator",
        paper_ref="§2.3.3 elevator scheduling gain",
        run=run_elevator, render=format_elevator,
        checks=_checks, headlines=_headlines, duration_arg="duration",
    ),
)
