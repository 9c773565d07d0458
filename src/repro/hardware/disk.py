"""Disk drive mechanics: seek curve, rotation, media-paced transfers.

A request's service time is::

    seek(distance) + rotational latency + arbitration penalties
      + media-paced transfer (bursting over the SCSI chain in chunks)
      + chain command overhead + CPU interrupt service

The queue discipline is pluggable (§2.3.3): the MSU as built uses
round-robin/FCFS arrival order ("resulting in random seeks between disk
transfers"); ELEVATOR and SSTF are provided for the ~6 % elevator
experiment the paper reports.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.hardware.params import DiskParams
from repro.sim import Resource, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.machine import Machine
    from repro.hardware.scsi import HostBusAdapter

__all__ = ["DiskDrive", "SeekPolicy"]


class SeekPolicy(enum.Enum):
    """Disk queue discipline."""

    FCFS = "fcfs"
    ELEVATOR = "elevator"
    SSTF = "sstf"


class _Arm(Resource):
    """The drive's actuator: one holder, waiters picked by the seek policy.

    A request's ``priority`` is its target cylinder.  The waiters are in
    arrival order and ``min`` returns the first minimum, so SSTF and
    elevator ties go to the earliest arrival.
    """

    def __init__(self, drive: "DiskDrive"):
        super().__init__(drive.sim, name=f"{drive.name}.arm")
        self.drive = drive
        self.direction = 1  # elevator scan direction

    def _pop_next(self):
        waiters = self._waiters
        policy = self.drive.policy
        if policy is SeekPolicy.FCFS:
            return waiters.popleft()
        head = self.drive.head_cylinder
        candidates = waiters
        if policy is SeekPolicy.ELEVATOR:
            # Continue in the current direction, else reverse.
            candidates = [r for r in waiters if (r.priority - head) * self.direction >= 0]
            if not candidates:
                self.direction = -self.direction
                candidates = waiters
        best = min(candidates, key=lambda r: abs(r.priority - head))
        waiters.remove(best)
        return best


class DiskDrive:
    """One 2 GB Barracuda-class drive on a SCSI chain."""

    def __init__(
        self,
        sim: Simulator,
        hba: "HostBusAdapter",
        params: DiskParams = DiskParams(),
        name: str = "sd0",
        machine: "Machine | None" = None,
        policy: SeekPolicy = SeekPolicy.FCFS,
        seed: int = 1,
    ):
        self.sim = sim
        self.hba = hba
        self.params = params
        self.name = name
        self.machine = machine
        self.policy = policy
        self._rng = np.random.default_rng(seed)
        self._arm = _Arm(self)
        self.busy = False  # command in flight (incl. queued bursts)
        self.head_cylinder = int(self._rng.integers(0, params.cylinders))
        # statistics
        self.bytes_transferred = 0
        self.requests_served = 0
        self.total_seek_distance = 0
        self.busy_time = 0.0

    # -- geometry ---------------------------------------------------------

    def cylinder_of(self, offset: int) -> int:
        """Map a byte offset on the platter to a cylinder number."""
        if not 0 <= offset < self.params.capacity_bytes:
            raise ValueError(
                f"{self.name}: offset {offset} outside disk of "
                f"{self.params.capacity_bytes} bytes"
            )
        frac = offset / self.params.capacity_bytes
        return min(self.params.cylinders - 1, int(frac * self.params.cylinders))

    def seek_time(self, distance: int) -> float:
        """Seek duration for a head move of ``distance`` cylinders.

        Zero-distance requests still pay rotational latency but no seek.
        The curve is the classic settle + sqrt shape.
        """
        if distance <= 0:
            return 0.0
        p = self.params
        frac = min(1.0, distance / p.cylinders)
        return p.seek_min + p.seek_max_extra * (frac**0.5)

    # -- the transfer itself ----------------------------------------------

    def transfer(self, offset: int, nbytes: int, write: bool = False) -> Generator:
        """Read (or write) ``nbytes`` at byte ``offset``; yields until done.

        Reads DMA into main memory; writes DMA out of it.  The caller is a
        simulation process: ``yield from disk.transfer(...)``.
        """
        if nbytes <= 0:
            raise ValueError(f"{self.name}: non-positive transfer size {nbytes}")
        target = self.cylinder_of(offset)
        # A queued request even when the arm is idle, not claim()'s inline
        # grant: the transfer reads chain and command state, so resuming
        # ahead of the same instant's other entries moves results (cbr22's
        # late_ms_hi, DESIGN 13.5).
        req = self._arm.request(target)
        try:
            yield req
            yield from self._serve(target, nbytes, write)
        finally:
            # Also on an interrupt (an MSU crash): withdraws a queued
            # request, or hands on a grant whose owner is gone.
            self._arm.release(req)
        self.bytes_transferred += nbytes
        self.requests_served += 1

    def _serve(self, target: int, nbytes: int, write: bool) -> Generator:
        """Position the head and move the data; the caller holds the arm."""
        start = self.sim.now
        sharing = sum(1 for d in self.hba_siblings() if d.busy)
        self.busy = True
        self.hba.command_begin()
        try:
            # Mechanical positioning plus bus/driver penalties.
            distance = abs(target - self.head_cylinder)
            rot = float(self._rng.uniform(0.0, self.params.rotation_time))
            penalty = self.hba.command_latency_penalty(sharing)
            yield self.sim.timeout(self.seek_time(distance) + rot + penalty)
            self.total_seek_distance += distance
            self.head_cylinder = target

            # Chain command overhead (selection, messaging).
            chain = self.hba.bus
            yield chain.hold(self.hba.params.command_overhead)

            # Media-paced transfer, bursting chain+memory chunk by chunk.
            memory = self.machine.memory if self.machine is not None else None
            remaining = nbytes
            chunk = self.params.chunk_bytes
            while remaining > 0:
                step = min(chunk, remaining)
                media_t = step / self.params.media_rate
                bus_t = step / self.hba.params.burst_rate
                if media_t > bus_t:
                    yield self.sim.timeout(media_t - bus_t)
                req = yield from chain.claim()
                try:
                    t0 = self.sim.now
                    if memory is not None:
                        yield memory.dma_read(step) if write else memory.dma_write(step)
                    spent = self.sim.now - t0
                    if spent < bus_t:
                        yield self.sim.timeout(bus_t - spent)
                finally:
                    chain.release(req)
                remaining -= step

            # Completion interrupt on the CPU.
            if self.machine is not None:
                yield self.machine.cpu.execute(
                    self.machine.cpu.params.disk_interrupt_cost
                )
        finally:
            self.busy = False
            self.hba.command_end()
            self.busy_time += self.sim.now - start

    def hba_siblings(self) -> list:
        """Other disks sharing this drive's SCSI chain."""
        if self.machine is None:
            return []
        return [d for d in self.machine.disks_on(self.hba) if d is not self]

    def throughput(self, elapsed: float) -> float:
        """Bytes/sec moved since construction over ``elapsed`` seconds."""
        return self.bytes_transferred / elapsed if elapsed > 0 else 0.0
