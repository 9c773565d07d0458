"""Experiment E5 — §3.2.3: the memory-bandwidth bottleneck.

The paper derives the disk-less data-path ceiling from the memory rates::

    1 / (1/25 + 1/18 + 2/53)  =  7.5 MByte/sec

(write into buffers at 25, copy user->kernel at 18, checksum read and
device DMA read at 53) and then measures ~6.3 MB/s by replacing the disk
process with one that writes constant values into memory buffers while a
sender transmits them — the shortfall being instruction fetches and other
accesses not in the per-byte arithmetic.

The reproduction runs the same producer/consumer pair on the simulated
machine: the writer holds the CPU while filling 4 KiB buffers; the sender
runs the full UDP path.  The model's per-packet protocol cost plays the
paper's "instruction fetch" role, so the measured figure lands below the
theoretical one the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.experiments import Experiment, headline
from repro.hardware import Machine, MachineParams
from repro.hardware.params import FDDI, MemoryParams
from repro.sim import Simulator, Store
from repro.units import CBR_PACKET_SIZE, to_mbyte_per_s

__all__ = ["MemoryPathResult", "theoretical_rate", "run_memorypath", "format_memorypath"]

#: Paper numbers for the record.
PAPER_THEORETICAL = 7.5
PAPER_MEASURED = 6.3


@dataclass(frozen=True)
class MemoryPathResult:
    """Theoretical vs measured disk-less data-path throughput (MB/s)."""

    theoretical: float
    measured: float


def theoretical_rate(memory: MemoryParams = MemoryParams()) -> float:
    """The paper's closed-form ceiling, in MB/s."""
    per_byte = (
        1.0 / memory.write_rate
        + 1.0 / memory.copy_rate
        + 2.0 / memory.read_rate
    )
    return to_mbyte_per_s(1.0 / per_byte)


def _writer(sim: Simulator, machine: Machine, tokens: Store) -> Generator:
    """The paper's replacement disk process: writes constant values."""
    cpu = machine.cpu
    while True:
        req = yield from cpu.claim()
        start = sim.now
        try:
            yield machine.memory.write(CBR_PACKET_SIZE)
        finally:
            cpu.release(req, busy=sim.now - start)
        tokens.put(CBR_PACKET_SIZE)


def _sender(sim: Simulator, nic, tokens: Store) -> Generator:
    while True:
        nbytes = yield tokens.get()
        yield from nic.udp_send(nbytes)


def run_memorypath(duration: float = 20.0) -> MemoryPathResult:
    """Measure the disk-less data path on the simulated Pentium."""
    sim = Simulator()
    machine = Machine(sim, MachineParams(disks_per_hba=()))
    nic = machine.add_nic(FDDI)
    tokens = Store(sim, name="buffers")
    sim.process(_writer(sim, machine, tokens), name="writer")
    sim.process(_sender(sim, nic, tokens), name="sender")
    sim.run(until=duration)
    return MemoryPathResult(
        theoretical=theoretical_rate(machine.params.memory),
        measured=to_mbyte_per_s(nic.throughput(duration)),
    )


def format_memorypath(result: MemoryPathResult) -> str:
    """Render the §3.2.3 comparison."""
    return (
        "Memory-path bottleneck (disk-less data path, MByte/sec)\n"
        f"  theoretical 1/(1/25 + 1/18 + 2/53): {result.theoretical:5.2f}"
        f"   (paper: {PAPER_THEORETICAL})\n"
        f"  measured writer+sender pipeline:    {result.measured:5.2f}"
        f"   (paper: ~{PAPER_MEASURED})"
    )


def _checks(result: MemoryPathResult) -> None:
    import pytest  # approx; checks run under the bench

    assert result.theoretical == pytest.approx(7.5, abs=0.05)
    assert result.measured == pytest.approx(6.3, abs=0.3)


def _headlines(result: MemoryPathResult) -> list:
    return [
        headline(
            "measured_mb_s", round(result.measured, 2), "MB/s",
            theoretical=round(result.theoretical, 2),
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="memorypath", table="memorypath",
        paper_ref="§3.2.3 memory-path bottleneck",
        run=run_memorypath, render=format_memorypath,
        checks=_checks, headlines=_headlines, duration_arg="duration",
    ),
)
