"""Interval caching: retain a leader's pages for its trailing viewers.

Streams on the same content form leader/follower pairs by position.  When
a leading stream reads a page from disk and at least one registered
stream is still behind that position, the page is retained in the pool;
each trailing stream that passes the page drops its claim, and the page
is evicted once every claimant has consumed (or abandoned) it.  Memory
cost is therefore proportional to the leader/follower gap — the
"interval" — not to the file size.

Followers that register after a page was retained may still read it
(free riding) without holding a claim; claims only ever shrink, so the
pool cannot leak pages to viewers that never arrive.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set, Tuple

from repro.cache.pool import BufferPool

__all__ = ["IntervalCache"]

#: Cache key for one stored file: (disk id, file name).
Key = Tuple[str, str]


class _Retained:
    """One cached page and the trailing streams still owed it."""

    __slots__ = ("data", "claims")

    def __init__(self, data: bytes, claims: Set[int]):
        self.data = data
        self.claims = claims


class IntervalCache:
    """Leader/follower page retention over a shared :class:`BufferPool`."""

    def __init__(self, pool: BufferPool):
        self.pool = pool
        #: key -> {stream_id: next page index the stream will read}.
        self._positions: Dict[Key, Dict[int, int]] = {}
        #: key -> {page_index: retained page}.
        self._pages: Dict[Key, Dict[int, _Retained]] = {}
        self.hits = 0
        self.filled = 0
        self.evicted = 0

    # -- stream tracking -----------------------------------------------------

    def observe(self, key: Key, stream_id: int, next_index: int) -> None:
        """Record that ``stream_id`` will next read ``next_index`` of ``key``."""
        self._positions.setdefault(key, {})[stream_id] = next_index

    def forget_stream(self, stream_id: int) -> None:
        """A stream ended: drop its position and release its page claims."""
        for key in list(self._positions):
            self._positions[key].pop(stream_id, None)
            if not self._positions[key]:
                del self._positions[key]
        for key in list(self._pages):
            for index in list(self._pages.get(key, ())):
                page = self._pages[key][index]
                if stream_id in page.claims:
                    page.claims.discard(stream_id)
                    if not page.claims:
                        self._evict(key, index)

    # -- data path ------------------------------------------------------------

    def lookup(self, key: Key, index: int, stream_id: int) -> Optional[bytes]:
        """The retained page, if any; consumes this stream's claim on it."""
        self.observe(key, stream_id, index + 1)
        pages = self._pages.get(key)
        if pages is None or index not in pages:
            return None
        page = pages[index]
        data = page.data
        page.claims.discard(stream_id)
        if not page.claims:
            self._evict(key, index)
        self.hits += 1
        return data

    def fill(self, key: Key, index: int, data: bytes, producer_id: int) -> bool:
        """Offer a page the producer just read from disk.

        Retained only when a registered stream other than the producer is
        still at or behind ``index`` (it will want this page later) and
        the pool has room.
        """
        self.observe(key, producer_id, index + 1)
        positions = self._positions.get(key, {})
        trailing = {
            sid for sid, pos in positions.items()
            if sid != producer_id and pos <= index
        }
        if not trailing:
            return False
        pages = self._pages.setdefault(key, {})
        existing = pages.get(index)
        if existing is not None:
            existing.claims |= trailing
            return True
        if not self.pool.try_reserve(len(data)):
            return False
        pages[index] = _Retained(data, trailing)
        self.filled += 1
        return True

    def invalidate(self, key: Key) -> None:
        """Drop every retained page of one file (delete path)."""
        for index in list(self._pages.get(key, ())):
            self._evict(key, index)
        self._positions.pop(key, None)

    # -- internals ---------------------------------------------------------------

    def _evict(self, key: Key, index: int) -> None:
        page = self._pages[key].pop(index)
        self.pool.release(len(page.data))
        if not self._pages[key]:
            del self._pages[key]
        self.evicted += 1

    # -- introspection -------------------------------------------------------------

    def retained_pages(self, key: Optional[Hashable] = None) -> int:
        """Retained page count, for one file or in total."""
        if key is not None:
            return len(self._pages.get(key, ()))
        return sum(len(pages) for pages in self._pages.values())

    def retained_bytes(self) -> int:
        """Pool bytes held by retained pages (refcount-balance audits)."""
        return sum(
            len(page.data)
            for pages in self._pages.values()
            for page in pages.values()
        )

    def holders(self) -> Set[int]:
        """Stream ids holding a position or a claim on a retained page."""
        ids = {sid for positions in self._positions.values() for sid in positions}
        for pages in self._pages.values():
            for page in pages.values():
                ids |= page.claims
        return ids

    def unclaimed_pages(self) -> int:
        """Retained pages with an empty claim set — must always be zero
        (a page's last claimant evicts it on consumption)."""
        return sum(
            1
            for pages in self._pages.values()
            for page in pages.values()
            if not page.claims
        )
