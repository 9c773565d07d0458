"""The Integrated B-tree (IB-tree) of §2.2.1.

Calliope interleaves each stream's *delivery schedule* with its data in a
single file laid out as a primary B-tree keyed by delivery time:

* **Data pages** (256 KiB) hold packet records — delivery-time offset, kind
  and payload — in delivery order.  A sequential scan of the data pages
  therefore yields packets exactly in the order the network process must
  send them.
* **Internal pages** (28 KiB, up to 1024 keys) map a delivery time to the
  page holding it.  The "integration" is that a full internal page is
  *copied into the current data page* instead of being written separately,
  so building the tree costs no extra disk transfers or duty-cycle slots,
  and internal pages occupy ~0.1 % of the data pages read back during
  sequential scans.

:class:`IBTreeWriter` is pure in-memory page construction: callers feed it
packets and write each emitted page as the next file block (pages are
emitted strictly in file order, so page index == file block index).
:class:`IBTreeReader` parses pages, scans sequentially, and seeks by
walking internal pages top-down exactly as the paper describes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Generator, Iterator, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.filesystem import FileHandle
from repro.units import BLOCK_SIZE, INTERNAL_PAGE_KEYS, INTERNAL_PAGE_SIZE

__all__ = ["IBTreeConfig", "PacketRecord", "IBTreeWriter", "IBTreeReader", "SMALL_PAGES"]

_DATA_MAGIC = b"CDPG"
_DATA_HDR = "<4sHIII"  # magic, n_entries, used, internal_off, internal_len
_DATA_HDR_SIZE = struct.calcsize(_DATA_HDR)

_REC_HDR = "<QIBxxx"  # delivery_us, length, kind, pad
_REC_HDR_SIZE = struct.calcsize(_REC_HDR)

_INT_MAGIC = b"CIPG"
_INT_HDR = "<4sBH"  # magic, level, n_keys
_INT_HDR_SIZE = struct.calcsize(_INT_HDR)
_INT_ENTRY = "<QIIB"  # key_us, child_page, child_offset, child_level
_INT_ENTRY_SIZE = struct.calcsize(_INT_ENTRY)

#: Packet kinds stored in the tree.
KIND_DATA = 0
KIND_CONTROL = 1  # interleaved protocol control messages (§2.3.2)


@dataclass(frozen=True)
class IBTreeConfig:
    """Page geometry; defaults are the paper's production sizes."""

    data_page_size: int = BLOCK_SIZE
    internal_page_size: int = INTERNAL_PAGE_SIZE
    max_keys: int = INTERNAL_PAGE_KEYS

    def __post_init__(self):
        need = _INT_HDR_SIZE + self.max_keys * _INT_ENTRY_SIZE
        if need > self.internal_page_size:
            raise ValueError(
                f"{self.max_keys} keys need {need} bytes; internal page is "
                f"{self.internal_page_size}"
            )
        if self.internal_page_size + _DATA_HDR_SIZE + _REC_HDR_SIZE >= self.data_page_size:
            raise ValueError("internal page too large to embed in a data page")


#: 16 KiB data pages: short titles that are quick to write and stream,
#: the geometry of the experiments and the chaos harness.
SMALL_PAGES = IBTreeConfig(data_page_size=16 * 1024, internal_page_size=1024, max_keys=32)


@dataclass(frozen=True)
class PacketRecord:
    """One stored packet: a delivery-time offset and its payload."""

    delivery_us: int
    payload: bytes
    kind: int = KIND_DATA


class _InternalPage:
    """An in-construction internal page at one level of the tree."""

    __slots__ = ("level", "entries")

    def __init__(self, level: int):
        self.level = level
        self.entries: List[Tuple[int, int, int, int]] = []  # key, page, off, lvl

    def pack(self, size: int) -> bytes:
        body = struct.pack(_INT_HDR, _INT_MAGIC, self.level, len(self.entries))
        for key, page, off, lvl in self.entries:
            body += struct.pack(_INT_ENTRY, key, page, off, lvl)
        if len(body) > size:
            raise StorageError("internal page overflow")
        return body + b"\x00" * (size - len(body))

    @staticmethod
    def parse(buf: bytes, offset: int) -> Tuple[int, List[Tuple[int, int, int, int]]]:
        magic, level, nkeys = struct.unpack_from(_INT_HDR, buf, offset)
        if magic != _INT_MAGIC:
            raise StorageError("bad internal-page magic")
        entries = []
        pos = offset + _INT_HDR_SIZE
        for _ in range(nkeys):
            entries.append(struct.unpack_from(_INT_ENTRY, buf, pos))
            pos += _INT_ENTRY_SIZE
        return level, entries


class IBTreeWriter:
    """Builds IB-tree pages from a packet stream, in file order.

    Protocol: call :meth:`feed` per packet; whenever it returns a page,
    write that page as the next file block.  Call :meth:`finish` once at
    the end; it returns the trailing pages plus the root pointer
    ``(page_index, offset, level)`` to store in file metadata.
    """

    def __init__(self, config: IBTreeConfig = IBTreeConfig()):
        self.config = config
        self._records: List[bytes] = []
        self._used = _DATA_HDR_SIZE
        self._n_entries = 0
        self._first_key: Optional[int] = None
        self._last_key: Optional[int] = None
        self._pending_internal: Optional[_InternalPage] = None  # to embed next
        self._levels: List[_InternalPage] = [_InternalPage(0)]
        self._pages_emitted = 0
        self.packets_written = 0

    # -- capacity bookkeeping ----------------------------------------------

    def _embed_reserved(self) -> int:
        return self.config.internal_page_size if self._pending_internal else 0

    def _room(self) -> int:
        return self.config.data_page_size - self._used - self._embed_reserved()

    # -- page assembly --------------------------------------------------------

    def _pack_page(self) -> bytes:
        """Serialize the current data page (embedding any pending internal)."""
        internal_off = 0
        internal_len = 0
        parts = []
        if self._pending_internal is not None:
            internal_off = _DATA_HDR_SIZE
            internal_len = self.config.internal_page_size
            parts.append(self._pending_internal.pack(internal_len))
            self._pending_internal = None
        parts.extend(self._records)
        body = b"".join(parts)
        page = struct.pack(
            _DATA_HDR,
            _DATA_MAGIC,
            self._n_entries,
            _DATA_HDR_SIZE + len(body),
            internal_off,
            internal_len,
        ) + body
        if len(page) > self.config.data_page_size:
            raise StorageError("data page overflow")  # pragma: no cover
        return page + b"\x00" * (self.config.data_page_size - len(page))

    def _close_page(self) -> bytes:
        """Finish the current data page and index it in the tree."""
        had_embed = self._pending_internal is not None
        embedded = self._pending_internal
        page_bytes = self._pack_page()
        page_index = self._pages_emitted
        self._pages_emitted += 1
        # Index the embedded internal page one level up.
        if had_embed:
            self._add_internal_entry(
                embedded.entries[0][0],
                page_index,
                _DATA_HDR_SIZE,
                embedded.level + 1,
            )
        # Index this data page at level 0 (unless it was a pure trailer).
        if self._n_entries > 0:
            self._add_data_entry(self._first_key, page_index)
        self._records = []
        self._used = _DATA_HDR_SIZE
        self._n_entries = 0
        self._first_key = None
        return page_bytes

    def _add_data_entry(self, key: int, page_index: int) -> None:
        self._add_entry(0, (key, page_index, 0, 0xFF))

    def _add_internal_entry(self, key: int, page: int, off: int, level: int) -> None:
        self._add_entry(level, (key, page, off, level - 1))

    def _add_entry(self, level: int, entry: Tuple[int, int, int, int]) -> None:
        while level >= len(self._levels):
            self._levels.append(_InternalPage(len(self._levels)))
        node = self._levels[level]
        node.entries.append(entry)
        if len(node.entries) >= self.config.max_keys:
            if self._pending_internal is not None:
                # Extremely rare: two levels fill at once; the lower one is
                # already pending, so let this one wait one more entry.
                return
            self._pending_internal = node
            self._levels[level] = _InternalPage(level)

    # -- public API ------------------------------------------------------------

    def feed(self, record: PacketRecord) -> Optional[bytes]:
        """Add a packet; returns a full page to write out, or None.

        Keys (delivery times) must be non-decreasing — the schedule is
        constructed as packets arrive in delivery order (§2.2.1).
        """
        if self._last_key is not None and record.delivery_us < self._last_key:
            raise StorageError(
                f"delivery times must be non-decreasing "
                f"({record.delivery_us} after {self._last_key})"
            )
        rec = struct.pack(
            _REC_HDR, record.delivery_us, len(record.payload), record.kind
        ) + record.payload
        if len(rec) > self.config.data_page_size - _DATA_HDR_SIZE - self.config.internal_page_size:
            raise StorageError(f"packet of {len(record.payload)} bytes too large for a page")
        page = None
        if len(rec) > self._room():
            page = self._close_page()
        if self._first_key is None:
            self._first_key = record.delivery_us
        self._records.append(rec)
        self._used += len(rec)
        self._n_entries += 1
        self._last_key = record.delivery_us
        self.packets_written += 1
        return page

    def _trailer_page(self, node: _InternalPage) -> bytes:
        """An entry-less data page carrying one internal page."""
        body = node.pack(self.config.internal_page_size)
        page = struct.pack(
            _DATA_HDR, _DATA_MAGIC, 0, _DATA_HDR_SIZE + len(body),
            _DATA_HDR_SIZE, self.config.internal_page_size,
        ) + body
        self._pages_emitted += 1
        return page + b"\x00" * (self.config.data_page_size - len(page))

    def finish(self) -> Tuple[List[bytes], Optional[Tuple[int, int, int]]]:
        """Flush trailing pages; returns (pages, root pointer).

        The root pointer is ``None`` for files that fit in a single data
        page (no internal pages were needed).  During recording, full
        internal pages ride inside data pages; the partial internal pages
        still open at end-of-recording land in trailer pages here.
        """
        pages: List[bytes] = []
        if self._n_entries > 0 or self._pending_internal is not None:
            pages.append(self._close_page())
        while self._pending_internal is not None:
            pages.append(self._close_page())
        # Promote partial internal pages bottom-up until a root emerges.
        root: Optional[Tuple[int, int, int]] = None
        level = 0
        while level < len(self._levels):
            node = self._levels[level]
            if not node.entries:
                level += 1
                continue
            higher = any(n.entries for n in self._levels[level + 1 :])
            if not higher:
                if node.level == 0 and len(node.entries) == 1:
                    # One data page: the page itself is the whole tree.
                    node.entries = []
                    break
                if node.level > 0 and len(node.entries) == 1:
                    # A root with a single child: the child is the real root.
                    _key, page, off, lvl = node.entries[0]
                    root = (page, off, lvl)
                else:
                    index = self._pages_emitted
                    pages.append(self._trailer_page(node))
                    root = (index, _DATA_HDR_SIZE, node.level)
                node.entries = []
                break
            index = self._pages_emitted
            first_key = node.entries[0][0]
            pages.append(self._trailer_page(node))
            node.entries = []
            self._add_entry(
                node.level + 1, (first_key, index, _DATA_HDR_SIZE, node.level)
            )
            while self._pending_internal is not None:
                pages.append(self._close_page())
            level += 1
        return pages, root


class IBTreeReader:
    """Parses, scans and seeks a completed IB-tree file."""

    def __init__(self, handle: FileHandle, config: IBTreeConfig = IBTreeConfig()):
        self.handle = handle
        self.config = config

    # -- parsing -----------------------------------------------------------

    @staticmethod
    def parse_page(buf: bytes) -> List[PacketRecord]:
        """Extract the packet records of one data page, in order."""
        magic, n_entries, used, internal_off, internal_len = struct.unpack_from(
            _DATA_HDR, buf, 0
        )
        if magic != _DATA_MAGIC:
            raise StorageError("bad data-page magic")
        pos = _DATA_HDR_SIZE
        if internal_len:
            pos = internal_off + internal_len  # skip the embedded internal page
        out = []
        for _ in range(n_entries):
            delivery_us, length, kind = struct.unpack_from(_REC_HDR, buf, pos)
            pos += _REC_HDR_SIZE
            out.append(PacketRecord(delivery_us, buf[pos : pos + length], kind))
            pos += length
        if pos > used:
            raise StorageError("data page entries overrun used length")
        return out

    # -- sequential scan -----------------------------------------------------

    def scan(self) -> Generator:
        """Simulation process: read every page in order, return all records.

        Mirrors the paper's sequential read: embedded internal pages come
        along for free and are ignored.
        """
        records: List[PacketRecord] = []
        for index in range(self.handle.nblocks):
            buf = yield from self.handle.read_block(index)
            records.extend(self.parse_page(buf))
        return records

    def iter_records(self, pages: Iterator[bytes]) -> Iterator[PacketRecord]:
        """Pure-parsing record iterator over already-read page buffers."""
        for buf in pages:
            yield from self.parse_page(buf)

    # -- seek ---------------------------------------------------------------

    def seek(self, time_us: int) -> Generator:
        """Simulation process: find the page/record for ``time_us``.

        Walks internal pages top-down (each hop is one simulated block
        read) and returns ``(page_index, entry_index)`` of the first record
        with delivery time >= ``time_us``, or None past end of stream.
        """
        if self.handle.nblocks == 0:
            return None
        if self.handle.root is None:
            page_index = 0  # single-page file
        else:
            page, off, level = self.handle.root
            while True:
                buf = yield from self.handle.read_block(page)
                node_level, entries = _InternalPage.parse(buf, off)
                if not entries:
                    return None
                # Last entry whose key <= target (or the first entry).
                child = entries[0]
                for entry in entries:
                    if entry[0] <= time_us:
                        child = entry
                    else:
                        break
                key, page, off, lvl = child
                if lvl == 0xFF:
                    page_index = page
                    break
        # Scan forward from the located data page.
        index = page_index
        while index < self.handle.nblocks:
            buf = yield from self.handle.read_block(index)
            for i, rec in enumerate(self.parse_page(buf)):
                if rec.delivery_us >= time_us:
                    return (index, i)
            index += 1
        return None
