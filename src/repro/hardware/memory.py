"""Main-memory bandwidth model.

The Micron Pentium moves data at 53/25/18 MB/s (read/write/copy, §3.2.3) and
every byte a stream serves crosses memory four times on the read path
(disk DMA write, user-to-mbuf copy, checksum read, NIC DMA read).  The bus
is modelled as a single FIFO resource held in bounded chunks so that
concurrent transfers interleave and bandwidth is shared.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.params import MemoryParams
from repro.sim import Hold, Resource, Simulator

__all__ = ["MemoryBus"]


class _Transfer(Hold):
    """One transfer: the bus held chunk by chunk, as one event.

    Each chunk's end releases the bus and claims it again behind any
    waiter that release woke, so concurrent transfers interleave FIFO.
    """

    __slots__ = ("bus", "rate", "step", "remaining")

    def __init__(self, bus: "MemoryBus", nbytes: int, rate: float):
        if nbytes <= 0:
            raise ValueError(f"non-positive transfer size: {nbytes}")
        step = min(bus.params.chunk_bytes, nbytes)
        self.bus = bus
        self.rate = rate
        self.step = step
        self.remaining = nbytes - step
        super().__init__(bus._bus, step / rate)

    def _held(self) -> Optional[float]:
        bus = self.bus
        bus.busy_time += self.duration
        bus.bytes_moved += self.step
        remaining = self.remaining
        if remaining <= 0:
            return None
        step = min(bus.params.chunk_bytes, remaining)
        self.step = step
        self.remaining = remaining - step
        return step / self.rate


class MemoryBus:
    """A shared, chunk-interleaved memory bus.

    Every transfer returns one event: ``yield memory.copy(nbytes)``.
    """

    def __init__(self, sim: Simulator, params: MemoryParams = MemoryParams()):
        self.sim = sim
        self.params = params
        self._bus = Resource(sim, capacity=1, name="membus")
        self.bytes_moved = 0
        self.busy_time = 0.0

    # The five op kinds the paper's data-path arithmetic distinguishes.

    def read(self, nbytes: int) -> Hold:
        """CPU read pass (e.g. the UDP checksum)."""
        return _Transfer(self, nbytes, self.params.read_rate)

    def write(self, nbytes: int) -> Hold:
        """CPU write pass (e.g. the disk-less baseline's buffer filler)."""
        return _Transfer(self, nbytes, self.params.write_rate)

    def copy(self, nbytes: int) -> Hold:
        """CPU copy pass (user space to kernel mbuf)."""
        return _Transfer(self, nbytes, self.params.copy_rate)

    def dma_write(self, nbytes: int) -> Hold:
        """Bus-master write into memory (disk or NIC receive DMA)."""
        return _Transfer(self, nbytes, self.params.dma_write_rate)

    def dma_read(self, nbytes: int) -> Hold:
        """Bus-master read out of memory (NIC transmit DMA)."""
        return _Transfer(self, nbytes, self.params.dma_read_rate)
