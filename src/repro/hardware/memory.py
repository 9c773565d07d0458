"""Main-memory bandwidth model.

The Micron Pentium moves data at 53/25/18 MB/s (read/write/copy, §3.2.3) and
every byte a stream serves crosses memory four times on the read path
(disk DMA write, user-to-mbuf copy, checksum read, NIC DMA read).  The bus
is modelled as a single FIFO resource held in bounded chunks so that
concurrent transfers interleave and bandwidth is shared.
"""

from __future__ import annotations

from typing import Generator

from repro.hardware.params import MemoryParams
from repro.sim import Resource, Simulator

__all__ = ["MemoryBus"]


class MemoryBus:
    """A shared, chunk-interleaved memory bus."""

    def __init__(self, sim: Simulator, params: MemoryParams = MemoryParams()):
        self.sim = sim
        self.params = params
        self._bus = Resource(sim, capacity=1, name="membus")
        self.bytes_moved = 0
        self.busy_time = 0.0

    def _transfer(self, nbytes: int, rate: float) -> Generator:
        """Move ``nbytes`` at ``rate``, holding the bus one chunk at a time."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        bus = self._bus
        chunk = self.params.chunk_bytes
        remaining = nbytes
        while remaining > 0:
            step = min(chunk, remaining)
            hold = step / rate
            yield from bus.hold(hold)
            self.busy_time += hold
            self.bytes_moved += step
            remaining -= step

    # The five op kinds the paper's data-path arithmetic distinguishes.

    def read(self, nbytes: int) -> Generator:
        """CPU read pass (e.g. the UDP checksum)."""
        return self._transfer(nbytes, self.params.read_rate)

    def write(self, nbytes: int) -> Generator:
        """CPU write pass (e.g. the disk-less baseline's buffer filler)."""
        return self._transfer(nbytes, self.params.write_rate)

    def copy(self, nbytes: int) -> Generator:
        """CPU copy pass (user space to kernel mbuf)."""
        return self._transfer(nbytes, self.params.copy_rate)

    def dma_write(self, nbytes: int) -> Generator:
        """Bus-master write into memory (disk or NIC receive DMA)."""
        return self._transfer(nbytes, self.params.dma_write_rate)

    def dma_read(self, nbytes: int) -> Generator:
        """Bus-master read out of memory (NIC transmit DMA)."""
        return self._transfer(nbytes, self.params.dma_read_rate)
