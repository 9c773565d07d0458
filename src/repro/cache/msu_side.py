"""The MSU side of the page cache: prefix pins and usage reports.

Built from a :class:`~repro.cache.manager.CacheConfig`, it builds the
page cache and binds it as ``Msu.cache``, shared by every disk process.
As an :class:`~repro.core.msu.parts.MsuPart` it advertises the cache
bandwidth, reports pinned prefixes, invalidates deleted files and stops
reporting when the MSU halts.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.cache.manager import CacheConfig, MsuPageCache
from repro.core.msu.msu import Msu
from repro.core.msu.parts import MsuPart, stop
from repro.net import messages as m
from repro.net.network import ControlChannel
from repro.sim import Process

__all__ = ["MsuCache"]


class MsuCache(MsuPart):
    """One MSU's prefix pinning and cache reporting."""

    def __init__(self, msu: Msu, config: CacheConfig):
        self.msu = msu
        self.cache = msu.cache = MsuPageCache(config)
        msu.cache_part = self
        self.report_proc: Optional[Process] = None
        msu.handlers[m.PinPrefix] = self.pin

    def pin(self, msg: m.PinPrefix) -> None:
        """Spawn the reads: pinning outlives the message's slot."""
        self.msu.sim.process(self._pin_prefix(msg), name=f"{self.msu.name}.pin")

    def _pin_prefix(self, msg: m.PinPrefix) -> Generator:
        """Read a hot title's opening pages into the prefix cache.

        The reads go through the file system like any other disk access,
        so pinning contends with (and is paced by) the duty cycle — a
        one-time cost paid when the Coordinator declares the title hot.
        A ``DeleteFile`` can run while a read is in flight; the pin then
        stops without pinning, so no page of a deleted file is pinned.
        """
        fs = self.msu.filesystems.get(msg.disk_id)
        if fs is None or not fs.exists(msg.content_name):
            return
        handle = fs.open(msg.content_name)
        key = (msg.disk_id, msg.content_name)
        pinned = 0
        for index in range(min(msg.pages, handle.nblocks)):
            if self.cache.prefix.is_pinned(key, index):
                continue
            data = yield from fs.read_file_block(handle, index)
            if not (fs.exists(msg.content_name)
                    and fs.open(msg.content_name) is handle):
                break  # deleted while the read was in flight
            if not self.cache.pin_prefix(key, index, data):
                break
            pinned += 1
        self.msu._trace("prefix-pin", msg.content_name, f"pages={pinned}")

    def attached(self, channel: ControlChannel) -> None:
        self.report_proc = self.msu.sim.process(
            self._report_loop(channel), name=f"{self.msu.name}.cachereport"
        )

    def halt(self, cause: str) -> None:
        """Stop reporting.  The MSU releases the halted streams' claims
        through their disk processes; prefix pins survive unless the MSU
        crashed."""
        stop(self.report_proc, cause)
        if cause == "crash":
            self.cache.clear()  # cache memory does not survive a power cut

    def inventory(self) -> dict:
        return dict(cache_bps=self.cache.config.bandwidth)

    def report(self) -> dict:
        """Pinned prefixes as ``StateReport.pins`` carries them."""
        return dict(pins=tuple(sorted(
            (disk_id, content, pages)
            for (disk_id, content), pages
            in self.cache.prefix.pinned_titles().items()
        )))

    def file_deleted(self, disk_id: str, content_name: str) -> None:
        self.cache.invalidate((disk_id, content_name))

    def _report_loop(self, channel: ControlChannel) -> Generator:
        """Periodically report cache-served bandwidth to the Coordinator."""
        msu = self.msu
        period = self.cache.config.report_period
        while msu.up and channel.open:
            yield msu.sim.timeout(period)
            if not msu.up or not channel.open:
                return
            snap = self.cache.snapshot()
            channel.send(
                msu.name,
                m.CacheReport(
                    msu.name, snap.hits, snap.misses, snap.bytes_served,
                    snap.slots_saved, snap.pool_used, snap.pool_capacity,
                ),
                nbytes=m.WIRE_BYTES,
            )
