"""Experiment E1 — Table 1 baseline measurements.

Reproduces the paper's baseline test programs: a ttcp-style sender pushing
4 KiB UDP packets out the FDDI interface from memory, and one simple reader
per disk issuing random 256 KiB raw-device reads — alone and simultaneously,
across the paper's five SCSI topologies.

The paper's combined runs execute the programs *independently* (the sender
sends from memory; it does not forward disk data), which is why its FDDI
column can exceed the disk columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

import numpy as np

from repro.experiments import Experiment, headline
from repro.hardware import Machine, MachineParams
from repro.hardware.params import FDDI
from repro.sim import Simulator
from repro.units import BLOCK_SIZE, CBR_PACKET_SIZE, to_mbyte_per_s

__all__ = ["Table1Row", "run_config", "run_table1", "format_table1", "PAPER_TABLE1"]

#: The paper's Table 1, in MB/s: config -> (fddi_only, disks_only, combined).
PAPER_TABLE1 = {
    "0 disk": (8.5, (), (None, ())),
    "1 disk (one HBA)": (None, (3.6,), (5.9, (3.4,))),
    "2 disk (one HBA)": (None, (2.8, 2.8), (4.7, (2.4, 2.4))),
    "2 disk (two HBA)": (None, (2.9, 2.9), (2.3, (2.7, 2.7))),
    "3 disk (two HBA)": (None, (2.2, 2.2, 2.7), (1.4, (1.9, 1.9, 2.5))),
}


@dataclass
class Table1Row:
    """Measured throughputs for one topology, in the paper's MB/s units."""

    label: str
    fddi_only: Optional[float] = None
    disks_only: Tuple[float, ...] = ()
    combined_fddi: Optional[float] = None
    combined_disks: Tuple[float, ...] = ()


def _disk_reader(sim: Simulator, disk, rng: np.random.Generator) -> Generator:
    """The paper's baseline disk program: random 256 KiB raw reads forever."""
    nblocks = disk.params.capacity_bytes // BLOCK_SIZE
    while True:
        offset = int(rng.integers(0, nblocks)) * BLOCK_SIZE
        yield from disk.transfer(offset, BLOCK_SIZE)


def _ttcp_sender(sim: Simulator, nic) -> Generator:
    """ttcp -t -u -l 4096: blast 4 KiB UDP packets from memory."""
    while True:
        yield from nic.udp_send(CBR_PACKET_SIZE)


def run_config(
    disks_per_hba: Tuple[int, ...],
    with_disks: bool,
    with_fddi: bool,
    duration: float = 20.0,
    seed: int = 1,
) -> Tuple[Optional[float], Tuple[float, ...]]:
    """Run one Table 1 cell; returns (fddi MB/s or None, per-disk MB/s)."""
    sim = Simulator()
    machine = Machine(sim, MachineParams(disks_per_hba=disks_per_hba), seed=seed)
    nic = machine.add_nic(FDDI)
    rng = np.random.default_rng(seed)
    if with_disks:
        for disk in machine.disks:
            child = np.random.default_rng(rng.integers(0, 2**63))
            sim.process(_disk_reader(sim, disk, child), name=f"read:{disk.name}")
    if with_fddi:
        sim.process(_ttcp_sender(sim, nic), name="ttcp")
    sim.run(until=duration)
    fddi = to_mbyte_per_s(nic.throughput(duration)) if with_fddi else None
    disks = tuple(
        to_mbyte_per_s(d.throughput(duration)) for d in machine.disks
    ) if with_disks else ()
    return fddi, disks


def run_table1(duration: float = 20.0, seed: int = 1) -> List[Table1Row]:
    """Run all Table 1 rows; see :data:`PAPER_TABLE1` for the targets."""
    topologies = [
        ("0 disk", ()),
        ("1 disk (one HBA)", (1,)),
        ("2 disk (one HBA)", (2,)),
        ("2 disk (two HBA)", (1, 1)),
        ("3 disk (two HBA)", (2, 1)),
    ]
    rows = []
    for label, topo in topologies:
        row = Table1Row(label)
        if not topo:
            row.fddi_only, _ = run_config((1,), False, True, duration, seed)
        else:
            _, row.disks_only = run_config(topo, True, False, duration, seed)
            row.combined_fddi, row.combined_disks = run_config(
                topo, True, True, duration, seed
            )
        rows.append(row)
    return rows


def format_table1(rows: List[Table1Row]) -> str:
    """Render the rows the way the paper's Table 1 lays them out."""
    out = ["Baseline Performance Measurements (MByte/sec)"]
    header = (
        f"{'config':<20} {'FDDI only':>9} | {'disks only':>17} | "
        f"{'FDDI':>5} {'disks (combined)':>17}"
    )
    out.append(header)
    out.append("-" * len(header))
    for row in rows:
        fddi_only = f"{row.fddi_only:.1f}" if row.fddi_only is not None else ""
        disks_only = " ".join(f"{d:.1f}" for d in row.disks_only)
        comb_fddi = f"{row.combined_fddi:.1f}" if row.combined_fddi is not None else ""
        comb_disks = " ".join(f"{d:.1f}" for d in row.combined_disks)
        out.append(
            f"{row.label:<20} {fddi_only:>9} | {disks_only:>17} | "
            f"{comb_fddi:>5} {comb_disks:>17}"
        )
    return "\n".join(out)


def _checks(rows: List[Table1Row]) -> None:
    by_label = {row.label: row for row in rows}
    # Paper shape: FDDI-only tops the chart; two active HBAs collapse it.
    assert by_label["0 disk"].fddi_only > 8.0
    assert (
        by_label["2 disk (two HBA)"].combined_fddi
        < by_label["2 disk (one HBA)"].combined_fddi * 0.65
    )


def _headlines(rows: List[Table1Row]) -> list:
    by_label = {row.label: row for row in rows}
    return [
        headline(
            "fddi_only_mb_s", round(by_label["0 disk"].fddi_only, 2), "MB/s",
        ),
        headline(
            "two_hba_combined_fddi_mb_s",
            round(by_label["2 disk (two HBA)"].combined_fddi, 2), "MB/s",
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="table1", table="table1",
        paper_ref="Table 1: baseline measurements",
        run=run_table1, render=format_table1,
        checks=_checks, headlines=_headlines, duration_arg="duration",
    ),
)
