"""The MSU storage substrate (§2.3.3, §2.2.1).

* :mod:`repro.storage.raw_disk` — a raw-device view: real bytes in a sparse
  image, timing through the simulated disk mechanism.
* :mod:`repro.storage.allocator` — bitmap block allocator with reservations.
* :mod:`repro.storage.filesystem` — the user-level large-block file system
  (256 KiB blocks, raw I/O, metadata fully cached in memory, no block cache).
* :mod:`repro.storage.ibtree` — the Integrated B-tree: a delivery-time
  primary B-tree whose internal pages are folded into the data pages.
* :mod:`repro.storage.layout` — per-disk vs striped volume layouts.
"""

from repro.storage.allocator import BitmapAllocator
from repro.storage.filesystem import FileHandle, MsuFileSystem
from repro.storage.ibtree import (
    IBTreeConfig,
    IBTreeReader,
    IBTreeWriter,
    PacketRecord,
    SMALL_PAGES,
)
from repro.storage.layout import SpanVolume, StripedVolume, Volume
from repro.storage.raw_disk import RawDisk, SparseImage

__all__ = [
    "BitmapAllocator",
    "FileHandle",
    "IBTreeConfig",
    "IBTreeReader",
    "IBTreeWriter",
    "MsuFileSystem",
    "PacketRecord",
    "RawDisk",
    "SMALL_PAGES",
    "SpanVolume",
    "SparseImage",
    "StripedVolume",
    "Volume",
]
