"""The MSU's page cache: one pool, two policies, one stats surface.

:class:`MsuPageCache` is what the disk processes talk to.  A lookup
consults the prefix cache first (pinned pages are never evicted by
passing viewers), then the interval cache; a miss falls through to the
disk and the read-back page is offered to the interval cache for any
trailing viewers.  Hits cost a memory copy, not a duty-cycle disk slot —
``slots_saved`` counts exactly the freed slots, which is the quantity the
Coordinator's popularity-aware admission banks on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cache.interval import IntervalCache
from repro.cache.pool import BufferPool
from repro.cache.prefix import PrefixCache
from repro.units import MIB

__all__ = ["CacheConfig", "CacheSnapshot", "MsuPageCache"]

Key = Tuple[str, str]


@dataclass(frozen=True)
class CacheConfig:
    """Sizing and reporting knobs for one MSU's page cache."""

    #: Shared memory budget for retained + pinned pages.
    pool_bytes: int = 32 * MIB
    #: Pinned opening pages per hot title (prefix cache budget).
    prefix_pages: int = 16
    #: Deliverable bytes/sec the cache path can sustain — what the MSU
    #: advertises to the Coordinator for cache-covered admission.  The
    #: memory path is far faster than a disk, so the MSU's delivery-path
    #: budget is normally what binds; this default matches it (§3.2.1).
    bandwidth: float = 4.2e6
    #: Memory-copy throughput for a cache hit (bytes/sec); a 256 KiB page
    #: costs ~3 ms, milliseconds cheaper than a disk slot's seek+transfer.
    copy_rate: float = 80e6
    #: Seconds between cache-served-bandwidth reports to the Coordinator.
    report_period: float = 1.0


@dataclass(frozen=True)
class CacheSnapshot:
    """One moment's cache statistics (reported to the Coordinator)."""

    hits: int
    misses: int
    prefix_hits: int
    interval_hits: int
    bytes_served: int
    slots_saved: int
    pool_used: int
    pool_peak: int
    pool_capacity: int
    pinned_pages: int

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class MsuPageCache:
    """Interval + prefix caching behind one bounded pool."""

    def __init__(self, config: CacheConfig = CacheConfig()):
        self.config = config
        self.pool = BufferPool(config.pool_bytes)
        self.interval = IntervalCache(self.pool)
        self.prefix = PrefixCache(self.pool, config.prefix_pages)
        self.misses = 0
        self.bytes_served = 0

    # -- disk-process interface ----------------------------------------------

    def lookup(self, key: Key, index: int, stream_id: int) -> Optional[bytes]:
        """The cached page, or None (the caller then spends a disk slot)."""
        data = self.prefix.lookup(key, index)
        if data is not None:
            # Keep the interval tracker's position fresh so pages the
            # prefix covers are not retained for this stream again.
            self.interval.observe(key, stream_id, index + 1)
        else:
            data = self.interval.lookup(key, index, stream_id)
        if data is None:
            self.misses += 1
            return None
        self.bytes_served += len(data)
        return data

    def fill(self, key: Key, index: int, data: bytes, producer_id: int) -> bool:
        """Offer a disk-read page for retention (leader feeding followers)."""
        return self.interval.fill(key, index, data, producer_id)

    def forget_stream(self, stream_id: int) -> None:
        """A stream left its disk's duty cycle."""
        self.interval.forget_stream(stream_id)

    def invalidate(self, key: Key) -> None:
        """A file was deleted: drop its retained and pinned pages."""
        self.interval.invalidate(key)
        self.prefix.unpin(key)

    def copy_time(self, nbytes: int) -> float:
        """Simulated seconds to copy a cache hit to the stream buffer."""
        return nbytes / self.config.copy_rate if self.config.copy_rate else 0.0

    # -- admin interface -----------------------------------------------------------

    def pin_prefix(self, key: Key, index: int, data: bytes) -> bool:
        """Pin one opening page of a hot title (PinPrefix handling)."""
        return self.prefix.pin(key, index, data)

    def clear(self) -> None:
        """Lose everything (MSU crash: cache memory does not survive)."""
        self.interval = IntervalCache(self.pool)
        self.prefix = PrefixCache(self.pool, self.config.prefix_pages)
        self.pool.used = 0

    # -- statistics -------------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.prefix.hits + self.interval.hits

    @property
    def slots_saved(self) -> int:
        """Duty-cycle read slots that never reached a disk."""
        return self.hits

    def accounted_bytes(self) -> Tuple[int, int]:
        """(interval bytes, prefix bytes) currently charged to the pool."""
        return self.interval.retained_bytes(), self.prefix.pinned_bytes()

    def audit(self) -> list:
        """Pin/refcount-balance anomalies, as strings.

        Pool accounting is synchronous, so these hold at any instant:
        every pool byte is explained by exactly one retained or pinned
        page, the pool never exceeds its capacity, and no retained page
        survives without a claimant.
        """
        problems = []
        interval_bytes, prefix_bytes = self.accounted_bytes()
        if self.pool.used != interval_bytes + prefix_bytes:
            problems.append(
                f"pool used {self.pool.used} != retained {interval_bytes} "
                f"+ pinned {prefix_bytes}"
            )
        if not 0 <= self.pool.used <= self.pool.capacity:
            problems.append(
                f"pool used {self.pool.used} outside [0, {self.pool.capacity}]"
            )
        unclaimed = self.interval.unclaimed_pages()
        if unclaimed:
            problems.append(f"{unclaimed} retained pages with no claimant")
        pinned_count = sum(
            len(pages) for pages in self.prefix._pinned.values()
        )
        if self.prefix.pinned_pages != pinned_count:
            problems.append(
                f"prefix pinned_pages {self.prefix.pinned_pages} != "
                f"{pinned_count} pages actually pinned"
            )
        return problems

    def snapshot(self) -> CacheSnapshot:
        return CacheSnapshot(
            hits=self.hits,
            misses=self.misses,
            prefix_hits=self.prefix.hits,
            interval_hits=self.interval.hits,
            bytes_served=self.bytes_served,
            slots_saved=self.slots_saved,
            pool_used=self.pool.used,
            pool_peak=self.pool.peak,
            pool_capacity=self.pool.capacity,
            pinned_pages=self.prefix.pinned_pages,
        )
