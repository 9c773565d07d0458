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
from collections import deque
from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.hardware.params import DiskParams
from repro.sim import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.machine import Machine
    from repro.hardware.scsi import HostBusAdapter

__all__ = ["DiskDrive", "SeekPolicy"]


class SeekPolicy(enum.Enum):
    """Disk queue discipline."""

    FCFS = "fcfs"
    ELEVATOR = "elevator"
    SSTF = "sstf"


class _Request:
    __slots__ = ("cylinder", "grant", "seq")

    def __init__(self, cylinder: int, grant: Event, seq: int):
        self.cylinder = cylinder
        self.grant = grant
        self.seq = seq


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
        self._pending: deque = deque()
        self._seq = 0
        self._arm_busy = False
        self.busy = False  # command in flight (incl. queued bursts)
        self.head_cylinder = int(self._rng.integers(0, params.cylinders))
        self._direction = 1  # elevator scan direction
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

    # -- queueing ---------------------------------------------------------

    def _pick_next(self) -> _Request:
        if self.policy is SeekPolicy.FCFS:
            return self._pending.popleft()
        if self.policy is SeekPolicy.SSTF:
            best = min(self._pending, key=lambda r: (abs(r.cylinder - self.head_cylinder), r.seq))
        else:  # ELEVATOR: continue in current direction, else reverse
            ahead = [
                r
                for r in self._pending
                if (r.cylinder - self.head_cylinder) * self._direction >= 0
            ]
            if not ahead:
                self._direction = -self._direction
                ahead = list(self._pending)
            best = min(ahead, key=lambda r: (abs(r.cylinder - self.head_cylinder), r.seq))
        self._pending.remove(best)
        return best

    def _dispatch(self) -> None:
        if self._arm_busy or not self._pending:
            return
        self._arm_busy = True
        nxt = self._pick_next()
        nxt.grant.succeed()

    # -- the transfer itself ----------------------------------------------

    def transfer(self, offset: int, nbytes: int, write: bool = False) -> Generator:
        """Read (or write) ``nbytes`` at byte ``offset``; yields until done.

        Reads DMA into main memory; writes DMA out of it.  The caller is a
        simulation process: ``yield from disk.transfer(...)``.
        """
        if nbytes <= 0:
            raise ValueError(f"{self.name}: non-positive transfer size {nbytes}")
        target = self.cylinder_of(offset)
        self._seq += 1
        grant = Event(self.sim, name=f"{self.name}.grant")
        request = _Request(target, grant, self._seq)
        self._pending.append(request)
        self._dispatch()
        try:
            yield grant
        except BaseException:
            # The owning process died waiting here (an MSU crash interrupts
            # its disk process mid-request).  Retract the request — or, if
            # the arm was already granted to us, free it and dispatch the
            # next waiter — so an abandoned grant cannot wedge the drive.
            if grant.triggered:
                self._arm_busy = False
                self._dispatch()
            else:
                self._pending.remove(request)
            raise

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

            # Chain command overhead (selection, messaging).  The grant
            # wait sits inside the try so an interrupt landing there still
            # releases (= cancels) the bus claim.
            chain = self.hba.bus
            req = chain.try_acquire()
            try:
                if req is None:
                    req = chain.request()
                    yield req
                yield self.sim.timeout(self.hba.params.command_overhead)
            finally:
                chain.release(req)

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
                req = chain.try_acquire()
                try:
                    if req is None:
                        req = chain.request()
                        yield req
                    t0 = self.sim.now
                    if memory is not None:
                        mover = memory.dma_read(step) if write else memory.dma_write(step)
                        yield from mover
                    spent = self.sim.now - t0
                    if spent < bus_t:
                        yield self.sim.timeout(bus_t - spent)
                finally:
                    chain.release(req)
                remaining -= step

            # Completion interrupt on the CPU.
            if self.machine is not None:
                yield from self.machine.cpu.execute(
                    self.machine.cpu.params.disk_interrupt_cost
                )
        finally:
            self.busy = False
            self.hba.command_end()
            self.busy_time += self.sim.now - start
            self._arm_busy = False
            self._dispatch()
        self.bytes_transferred += nbytes
        self.requests_served += 1

    def hba_siblings(self) -> list:
        """Other disks sharing this drive's SCSI chain."""
        if self.machine is None:
            return []
        return [d for d in self.machine.disks_on(self.hba) if d is not self]

    def throughput(self, elapsed: float) -> float:
        """Bytes/sec moved since construction over ``elapsed`` seconds."""
        return self.bytes_transferred / elapsed if elapsed > 0 else 0.0
