"""The EdgeProxy node: a memory-only cache host on the delivery network.

An edge is deliberately dumb — it pins what the Coordinator tells it to
pin (:class:`~repro.net.messages.PlacePrefix` /
:class:`~repro.net.messages.EvictPrefix`), serves page ranges when told
to (:class:`~repro.net.messages.EdgeServe`) and reports what it holds
(:class:`~repro.net.messages.EdgeReport`).  All policy — popularity
tracking, placement, admission, routing — lives Coordinator-side in
:class:`~repro.edge.placement.PlacementManager`, mirroring how MSUs
never decide what to serve.

The proxy reuses the PR 1 cache vocabulary: a bounded
:class:`~repro.cache.pool.BufferPool` accounts every retained byte and a
:class:`~repro.cache.prefix.PrefixCache` holds the pinned opening pages
per title.  An edge owns no disks; a crash loses everything it holds and
it returns cold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Generator, Optional, Tuple

from repro.cache.pool import BufferPool
from repro.cache.prefix import PrefixCache
from repro.net import messages as m
from repro.net.network import Host, Network

__all__ = ["EdgeConfig", "EdgeProxy"]

#: PrefixCache keys are ``(disk_id, name)`` pairs on MSUs; an edge has no
#: disks, so every pin lives under this pseudo-disk.
EDGE_DISK = "mem"


@lru_cache(maxsize=None)
def _zero_page(page_size: int) -> bytes:
    """The one immutable page of zeros every pin and synthesized serve of
    this size shares.  Edge content is synthetic, so pages carry no data;
    the pool still charges each pin its full ``len()``."""
    return bytes(page_size)


@dataclass(frozen=True)
class EdgeConfig:
    """Shape and tuning of the edge tier.

    ``prefix_pages`` bounds each pinned prefix; together with the page
    size it sets how far into a title an edge can carry a viewer before
    the MSU tail stream must take over.  ``fetch_per_page`` paces the
    background trickle that fills a prefix after a PinPrefix decision —
    placement is deliberately not instantaneous.
    """

    n_edges: int = 1
    #: Bytes of cache memory per edge (pool budget).
    memory_budget: int = 64 * 1024 * 1024
    #: Delivery-side uplink each edge can sustain (bytes/sec); the
    #: admission zero-disk-cost lane charges edge serves against this.
    uplink_bps: float = 40e6
    #: Pages pinned per title (min with the title's length).
    prefix_pages: int = 72
    page_size: int = 16384
    #: Placement loop period (decay + rebalance), seconds.
    placement_period: float = 1.0
    #: Per-period multiplier on the popularity scores.
    decay: float = 0.6
    #: Decayed score at/above which a title is pinned on its edges.
    promote_score: float = 2.0
    #: Decayed score at/below which a pinned title is evicted.
    evict_score: float = 0.5
    report_period: float = 1.0
    #: Seconds per page for the background prefix fetch trickle.
    fetch_per_page: float = 0.002

    def __post_init__(self):
        if not (0.0 <= self.decay < 1.0):
            raise ValueError(f"decay must be in [0, 1): {self.decay}")
        if self.evict_score >= self.promote_score:
            raise ValueError(
                f"evict_score {self.evict_score} must stay below "
                f"promote_score {self.promote_score}"
            )


class EdgeProxy:
    """One edge node: pinned prefixes + paced memory serves.

    A plain :class:`~repro.net.network.Host` on the delivery network (no
    Machine — an edge models a small memory appliance, not a server with
    disks and SCSI buses), plus one control channel to the Coordinator
    over the intra-server Ethernet.
    """

    def __init__(self, sim, name: str, network: Network, config: EdgeConfig):
        self.sim = sim
        self.name = name
        self.config = config
        self.host = Host(sim, network, name)
        self.pool = BufferPool(config.memory_budget)
        self.prefix = PrefixCache(pool=self.pool,
                                  max_pages_per_title=config.prefix_pages)
        self.coordinator_channel = None
        self.down = False
        #: Bumped on crash so in-flight serve/fetch processes die silently.
        self._epoch = 0
        #: Sum of the rates of currently-running serves (bytes/sec).
        self.uplink_used = 0.0
        self.prefix_bytes_served = 0
        self.patch_bytes_served = 0
        self.hits = 0
        self.misses = 0
        self._sock = self.host.bind()

    # -- wiring ------------------------------------------------------------

    def attach_coordinator(self, channel) -> None:
        """(Re)connect to the Coordinator: hello, then serve its commands."""
        self.coordinator_channel = channel
        self.down = False
        self._hello()
        self.sim.process(self._control_loop(channel), name=f"{self.name}.ctl")
        self.sim.process(self._report_loop(channel), name=f"{self.name}.rpt")

    def _hello(self) -> None:
        self.coordinator_channel.send(
            self.name,
            m.EdgeHello(
                self.name, self.config.memory_budget, self.config.uplink_bps,
                pinned=self._pinned_tuple(),
            ),
            nbytes=m.WIRE_BYTES,
        )

    def _pinned_tuple(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted(
            (name, pages)
            for (_disk, name), pages in self.prefix.pinned_titles().items()
        ))

    # -- control plane -----------------------------------------------------

    def _control_loop(self, channel) -> Generator:
        epoch = self._epoch
        while True:
            msg = yield channel.recv(self.name)
            if msg is None or self.down or epoch != self._epoch:
                return
            if isinstance(msg, m.PlacePrefix):
                self.sim.process(self._place(msg), name=f"{self.name}.fill")
            elif isinstance(msg, m.EvictPrefix):
                self.evict(msg.content_name)
            elif isinstance(msg, m.EdgeServe):
                self.sim.process(self._serve(msg), name=f"{self.name}.serve")

    def _report_loop(self, channel) -> Generator:
        epoch = self._epoch
        period = self.config.report_period
        if period <= 0:
            return
        while True:
            yield self.sim.timeout(period)
            if self.down or epoch != self._epoch or not channel.open:
                return
            channel.send(self.name, self.report(), nbytes=m.WIRE_BYTES)

    def report(self) -> m.EdgeReport:
        return m.EdgeReport(
            self.name,
            pinned=self._pinned_tuple(),
            bytes_pinned=self.pool.used,
            uplink_used_bps=self.uplink_used,
            prefix_bytes_served=self.prefix_bytes_served,
            patch_bytes_served=self.patch_bytes_served,
            hits=self.hits,
            misses=self.misses,
        )

    # -- placement (fill / evict) ------------------------------------------

    def _place(self, msg: m.PlacePrefix) -> Generator:
        """Trickle-fetch and pin a title's opening pages (best effort).

        The fill is paced (``fetch_per_page``) to model the background
        transfer from the owning MSU; the trickle rides under admission
        granularity, so it costs no disk slot.  Budget or pool denials
        simply stop the fill — the Coordinator learns the truth from the
        next report.
        """
        epoch = self._epoch
        key = (EDGE_DISK, msg.content_name)
        for index in range(msg.pages):
            yield self.sim.timeout(self.config.fetch_per_page)
            if self.down or epoch != self._epoch:
                return
            if not self.prefix.pin(key, index, _zero_page(msg.page_size)):
                return

    def evict(self, content_name: str) -> int:
        """Drop a title's pinned prefix; returns pages freed."""
        return self.prefix.unpin((EDGE_DISK, content_name))

    def pinned_pages(self, content_name: str) -> int:
        return self.prefix.pinned_count((EDGE_DISK, content_name))

    def pinned_titles(self) -> Dict[str, int]:
        """title -> pinned page count (the invariant checkers' view)."""
        return {
            name: pages
            for (_disk, name), pages in self.prefix.pinned_titles().items()
        }

    # -- data plane --------------------------------------------------------

    def _serve(self, msg: m.EdgeServe) -> Generator:
        """Pace pages ``[start_page, end_page)`` at ``rate`` to the client.

        Pages come from the pinned prefix when present; an edge asked to
        serve something it no longer pins (a crash raced the plan)
        synthesizes the bytes anyway — the client-visible stream must
        not stall on a bookkeeping race — and counts a miss.
        """
        epoch = self._epoch
        key = (EDGE_DISK, msg.content_name)
        if self.prefix.pinned_count(key) >= msg.end_page:
            self.hits += 1
        else:
            self.misses += 1
        pace = msg.page_size / msg.rate if msg.rate > 0 else 0.0
        self.uplink_used += msg.rate
        nbytes = 0
        try:
            for index in range(msg.start_page, msg.end_page):
                data = self.prefix.lookup(key, index) or _zero_page(msg.page_size)
                yield from self._sock.send(tuple(msg.display_address), data)
                nbytes += len(data)
                if pace > 0:
                    yield self.sim.timeout(pace)
                if self.down or epoch != self._epoch:
                    return
        finally:
            if epoch == self._epoch:
                self.uplink_used = max(0.0, self.uplink_used - msg.rate)
        if msg.kind == "patch":
            self.patch_bytes_served += nbytes
        else:
            self.prefix_bytes_served += nbytes
        if self.coordinator_channel is not None and self.coordinator_channel.open:
            self.coordinator_channel.send(
                self.name,
                m.EdgeServeDone(
                    self.name, msg.group_id, msg.stream_id, nbytes, msg.kind
                ),
                nbytes=m.WIRE_BYTES,
            )

    # -- failure injection -------------------------------------------------

    def crash(self) -> None:
        """Kill the edge: pins gone, running serves die, control breaks."""
        if self.down:
            return
        self.down = True
        self._epoch += 1
        for (_disk, name) in list(self.prefix.pinned_titles()):
            self.prefix.unpin((_disk, name))
        self.uplink_used = 0.0
        if self.coordinator_channel is not None and self.coordinator_channel.open:
            self.coordinator_channel.close()
        self.coordinator_channel = None

    def recover(self) -> None:
        """Bring the edge back up, cold.  The caller re-wires the control
        channel (:meth:`attach_coordinator` sends the fresh hello)."""
        self.down = False
