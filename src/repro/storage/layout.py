"""Volume layouts: per-disk (the paper's choice) and striped (§2.3.3).

A volume exposes a flat array of file-system blocks and maps each logical
block to a (raw disk, byte offset) pair:

* :class:`SpanVolume` — one disk, identity mapping.  Calliope as built
  stores every file on a single disk ("when a client writes a file, all
  blocks go to a single disk").
* :class:`StripedVolume` — consecutive logical blocks land on "adjacent"
  disks round-robin, the layout the paper sketches but rejects for its
  VCR-latency and mixed-rate complications.  Implemented here for the
  striping ablation (experiment E10).
"""

from __future__ import annotations

from typing import Generator, List, Tuple

from repro.errors import StorageError
from repro.storage.raw_disk import RawDisk
from repro.units import BLOCK_SIZE

__all__ = ["Volume", "SpanVolume", "StripedVolume"]


class Volume:
    """Base class: block-addressed storage over raw disks.

    A subclass defines ``nblocks``, the total file-system blocks on the
    volume, and ``locate(block)``, which maps a logical block to
    ``(disk, byte offset)``.
    """

    def __init__(self, disks: List[RawDisk], block_size: int = BLOCK_SIZE):
        if not disks:
            raise ValueError("a volume needs at least one disk")
        if block_size <= 0:
            raise ValueError(f"bad block size {block_size}")
        self.disks = disks
        self.block_size = block_size

    def _check(self, block: int) -> None:
        if not 0 <= block < self.nblocks:
            raise StorageError(f"block {block} outside volume of {self.nblocks}")

    def read_block(self, block: int) -> Generator:
        """Read one block (simulation process; returns bytes)."""
        self._check(block)
        disk, offset = self.locate(block)
        data = yield from disk.read(offset, self.block_size)
        return data

    def _whole_block(self, block: int, data: bytes) -> Tuple[RawDisk, int, bytes]:
        """Check a block write; returns its disk, offset and padded data."""
        self._check(block)
        if len(data) > self.block_size:
            raise StorageError(
                f"write of {len(data)} bytes exceeds {self.block_size} block"
            )
        if len(data) < self.block_size:
            data = data + b"\x00" * (self.block_size - len(data))
        disk, offset = self.locate(block)
        return disk, offset, data

    def write_block(self, block: int, data: bytes) -> Generator:
        """Write one block (``data`` shorter than a block is zero-padded)."""
        disk, offset, data = self._whole_block(block, data)
        yield from disk.write(offset, data)

    def disk_of(self, block: int) -> RawDisk:
        """The raw disk a logical block lives on."""
        self._check(block)
        return self.locate(block)[0]

    def read_block_sync(self, block: int) -> bytes:
        """Administrative read without simulated latency."""
        self._check(block)
        disk, offset = self.locate(block)
        return disk.read_sync(offset, self.block_size)

    def write_block_sync(self, block: int, data: bytes) -> None:
        """Administrative write without simulated latency (content
        pre-loading before a measured run)."""
        disk, offset, data = self._whole_block(block, data)
        disk.write_sync(offset, data)


class SpanVolume(Volume):
    """A single-disk volume (the MSU's per-disk file system)."""

    def __init__(self, disk: RawDisk, block_size: int = BLOCK_SIZE):
        super().__init__([disk], block_size)
        self._nblocks = disk.capacity // block_size

    @property
    def nblocks(self) -> int:
        return self._nblocks

    def locate(self, block: int) -> Tuple[RawDisk, int]:
        return self.disks[0], block * self.block_size


class StripedVolume(Volume):
    """Round-robin striping: logical block ``i`` on disk ``i % N``."""

    def __init__(self, disks: List[RawDisk], block_size: int = BLOCK_SIZE):
        super().__init__(disks, block_size)
        per_disk = min(d.capacity // block_size for d in disks)
        self._per_disk = per_disk
        self._nblocks = per_disk * len(disks)

    @property
    def nblocks(self) -> int:
        return self._nblocks

    def locate(self, block: int) -> Tuple[RawDisk, int]:
        disk_no = block % len(self.disks)
        slot = block // len(self.disks)
        return self.disks[disk_no], slot * self.block_size
