"""Coordinator-side multicast channel management.

The :class:`ChannelManager` turns N play requests for the same title
into one disk stream.  Two mechanisms compose (Jayarekha & Nair;
Viennot et al.):

* **Batching** — requests for a title arriving within ``batch_window``
  are parked, then served together by a single multicast channel (one
  duty-cycle slot, one paced schedule, N fan-out destinations).
* **Patching** — a request arriving while a channel is already playing,
  within ``patch_horizon`` of its start, joins the channel immediately
  and receives the missed opening pages as a short unicast *patch*
  (served from the pinned prefix cache where possible).  When the patch
  drains the viewer has merged onto the channel and the patch charge is
  refunded.

Admission charges one disk slot plus one delivery flow per *channel*
(not per viewer) and a bounded, refundable charge per patch; the
:class:`~repro.multicast.ledger.AdmissionLedger` mirrors every grant so
tests can assert the books balance to zero once all channels drain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, List, Optional

from repro.core.admission import Allocation
from repro.core.database import ContentEntry
from repro.errors import CalliopeError
from repro.multicast.book import ChannelBook
from repro.multicast.ledger import AdmissionLedger
from repro.net import messages as m
from repro.net.network import MULTICAST_PREFIX
from repro.recovery.parts import from_image, image

__all__ = ["MulticastConfig", "ChannelManager", "ChannelRecord", "PatchJoin"]

#: Safety margin added to each patch so it overlaps the channel's
#: position at join time (duplicates are cheaper than gaps).
PATCH_MARGIN_PAGES = 1


@dataclass(frozen=True)
class MulticastConfig:
    """Tuning for batched channels and patching streams.

    ``batch_window`` must stay well under the viewers' queue patience:
    a batched client hears nothing until the window fires.  The
    ``patch_horizon`` bounds every patch — a viewer arriving later than
    this after a channel started gets a fresh channel instead.
    """

    batch_window: float = 0.5
    patch_horizon: float = 6.0


@dataclass
class PatchJoin:
    """One late join, kept for auditing patch bounds."""

    channel_id: int
    group_id: int
    offset_us: int
    patch_pages: int
    patch_us: int
    cache_covered: bool


@dataclass
class ChannelRecord:
    """Coordinator-side bookkeeping for one multicast channel."""

    channel_id: int
    content_name: str
    msu_name: str
    disk_id: str
    group_id: int     # the channel stream's own MSU-side group
    stream_id: int
    rate: float
    started_at: float
    duration_us: int
    blocks: int
    allocation: Allocation
    mcast_host: str
    #: viewer group_id -> stream_id for attached subscribers.
    subscribers: Dict[int, int] = field(default_factory=dict)
    peak_subscribers: int = 0
    viewers_total: int = 0
    released: bool = False

    def page_us(self) -> float:
        """Approximate media time per page (uniform-page model)."""
        if self.blocks <= 0:
            return 0.0
        return self.duration_us / self.blocks


@dataclass
class _BatchedRequest:
    message: m.PlayRequest
    channel: object       # the client's ControlChannel (reply path)


@dataclass
class _Batch:
    content_name: str
    requests: List[_BatchedRequest] = field(default_factory=list)


class ChannelManager(ChannelBook):
    """Batches, channels, patches and their admission bookkeeping."""

    SECTIONS = ("multicast",)
    SUBSCRIBE, MERGE, DETACH, PRIVATE = (
        "mcast-subscribe", "mcast-merge", "mcast-detach", "mcast-downgrade",
    )
    REPORTED, NOUN = "channels", "channel"

    def __init__(self, coordinator, config: Optional[MulticastConfig] = None):
        super().__init__(coordinator)
        self.config = config or MulticastConfig()
        self.ledger = AdmissionLedger()
        self._batches: Dict[str, _Batch] = {}
        #: Every patch join ever granted (tests audit the horizon bound).
        self.patch_joins: List[PatchJoin] = []
        self.channels_created = 0
        self.batched_joins = 0
        self.patched_joins = 0
        self.downgrades = 0
        self.fallbacks = 0  # requests parked when no channel was placeable
        self.edge_patched = 0  # patch joins served by an edge proxy
        self.edge_spliced = 0  # unicast prefix splices when no channel fit
        coordinator.install(m.ChannelDowngrade, self.downgrade, held=True)

    # -- the lane ----------------------------------------------------------

    def takes(self, entry: ContentEntry) -> bool:
        """Multicast serves atomic, stored titles; composites stay unicast."""
        return not entry.components and bool(entry.msu_name)

    def play(
        self, msg: m.PlayRequest, channel, session, entry: ContentEntry, port
    ) -> Generator:
        """Serve one play request via a channel; yields like ``_play``.

        Returns a ``StreamScheduled`` reply (joined an in-flight channel
        as a patcher) or ``None`` (parked in a batch — the client hears
        nothing until the window fires, exactly like the scheduling
        queue).
        """
        ctype = self.coord.types.get(entry.type_name)
        record = self._joinable_channel(entry, session.client_host)
        if record is not None:
            reply = yield from self._join_in_flight(
                record, msg, session, entry, ctype, port
            )
            if reply is not None:
                return reply
            # Patch unplaceable: fall through and batch for a new channel.
        batch = self._batches.get(entry.name)
        if batch is None:
            batch = _Batch(entry.name)
            self._batches[entry.name] = batch
            self.sim.process(self._batch_timer(batch), name="mcast.batch")
        batch.requests.append(_BatchedRequest(msg, channel))
        return None

    def _joinable_channel(
        self, entry: ContentEntry, client_host: Optional[str] = None
    ) -> Optional[ChannelRecord]:
        """The youngest in-flight channel still inside the patch horizon.

        When the client's assigned edge pins this title's prefix, the
        horizon stretches to the prefix's media time: the whole catch-up
        window then comes from edge memory, so a much older channel is
        still joinable at zero MSU cost — the mechanism that lets one
        disk stream carry an entire Zipf head of viewers.
        """
        horizon_us = self.config.patch_horizon * 1e6
        edge_pages = self._edge_prefix_pages(entry, client_host)
        best = None
        for record in self.channels.values():
            if record.content_name != entry.name or record.released:
                continue
            if record.page_us() <= 0.0:
                continue  # no duration metadata: patches cannot be bounded
            allowed_us = horizon_us
            if edge_pages > PATCH_MARGIN_PAGES:
                allowed_us = max(
                    allowed_us,
                    (edge_pages - PATCH_MARGIN_PAGES) * record.page_us(),
                )
            offset_us = (self.sim.now - record.started_at) * 1e6
            if offset_us >= record.duration_us or offset_us > allowed_us:
                continue
            if best is None or record.started_at > best.started_at:
                best = record
        return best

    def _edge_prefix_pages(
        self, entry: ContentEntry, client_host: Optional[str]
    ) -> int:
        """Pages of this title the client's assigned edge pins (0 = none)."""
        placement = self.coord.placement
        if placement is None or client_host is None:
            return 0
        view = placement.edge_for(client_host)
        if view is None:
            return 0
        return view.pinned.get(entry.name, 0)

    # -- patching (join an in-flight channel) ------------------------------

    def _join_in_flight(
        self, record: ChannelRecord, msg, session, entry, ctype, port
    ) -> Generator:
        offset_us = int((self.sim.now - record.started_at) * 1e6)
        patch_pages = 0
        if offset_us > 0:
            patch_pages = min(
                record.blocks,
                math.ceil(offset_us / record.page_us()) + PATCH_MARGIN_PAGES,
            )
        alloc = None
        cache_covered = False
        edge_name = None
        if patch_pages > 0:
            placement = self.coord.placement
            if placement is not None:
                edge_name, alloc = placement.cover_patch(
                    entry, ctype, patch_pages, session.client_host
                ) or (None, None)
            if edge_name is None:
                if offset_us > self.config.patch_horizon * 1e6:
                    # Joinable only because of the edge's extended
                    # horizon; without its coverage an MSU patch this
                    # long would break the patch bound — batch instead.
                    return None
                prefix_covered = (
                    entry.prefix_pinned
                    and patch_pages <= self.coord.prefix_pin_pages
                )
                alloc = self.coord.admission.place_patch(
                    entry, ctype, record.msu_name, record.disk_id,
                    prefix_covered=prefix_covered,
                )
                if alloc is None:
                    return None  # no room for the patch: caller batches instead
                cache_covered = alloc.cache_covered
        group, stream_id = self._viewer(
            record, msg, entry, port, alloc if edge_name is None else None
        )
        if edge_name is not None:
            # An edge serves the whole catch-up window from its pinned
            # prefix: no MSU patch stream, no disk slot, no ledger
            # charge — the serve is registered placement-side and its
            # uplink grant is refunded on EdgeServeDone, even when the
            # subscribe below is undone.
            self.edge_patched += 1
            self.coord.placement.begin_serve(
                edge_name, group.group_id, stream_id, entry,
                0, patch_pages, ctype.bandwidth_rate, "patch",
                tuple(port.address), alloc,
            )
        if not (yield from self._attach(
            record, group, stream_id, session, port,
            patch_pages if edge_name is None else 0, cache_covered,
        )):
            return None  # its MSU failed inside the hold: caller batches
        group_id = group.group_id
        self.patched_joins += 1
        if edge_name is None:
            self.patch_joins.append(
                PatchJoin(
                    record.channel_id, group_id, offset_us, patch_pages,
                    int(patch_pages * record.page_us()), cache_covered,
                )
            )
        if alloc is not None and edge_name is None:
            self._charge_patch(
                record.channel_id, group_id, alloc.bandwidth, cache_covered
            )
            self.coord._journal(
                "mcast-patch",
                {
                    "channel_id": record.channel_id,
                    "group_id": group_id,
                    "rate": alloc.bandwidth,
                    "cache_covered": cache_covered,
                },
            )
        self.coord._trace(
            "mcast-patch", entry.name,
            f"channel={record.channel_id} group={group_id} "
            f"pages={patch_pages} offset_us={offset_us} "
            f"edge={edge_name or '-'}",
        )
        return m.StreamScheduled(group_id, record.msu_name)

    # -- batching (new channels) -------------------------------------------

    def _batch_timer(self, batch: _Batch) -> Generator:
        yield self.sim.timeout(self.config.batch_window)
        yield from self._fire_batch(batch)

    def _fire_batch(self, batch: _Batch) -> Generator:
        if self.coord.dead:
            return
        self._batches.pop(batch.content_name, None)
        entry = self.coord.db.contents.get(batch.content_name)
        live = [
            req for req in batch.requests
            if self.coord.sessions.lookup(req.message.session_id) is not None
        ]
        if not live:
            return
        if entry is None:  # deleted while the batch waited
            for req in live:
                self.coord.reply(req.channel, req.message, m.RequestFailed(
                    f"unknown content {batch.content_name!r}"
                ))
            return
        ctype = self.coord.types.get(entry.type_name)
        alloc = self.coord.admission.place_channel(entry, ctype)
        if alloc is None:
            # No disk slot for a new channel.  Before parking, try an
            # edge prefix splice per viewer: an edge pinning this title's
            # prefix can carry the opening pages while a (possibly
            # cache-covered) unicast tail stream starts at the splice.
            parked = []
            for req in live:
                served = yield from self._edge_splice_play(req, entry, ctype)
                if not served:
                    parked.append(req)
            self._park(parked, entry, "no channel slot")
            return
        record = self._open_channel(entry, ctype, alloc)
        parked = []
        for req in live:
            if self.channels.get(record.channel_id) is not record:
                # The channel ended, or its MSU failed, during an earlier
                # viewer's hold: the rest wait for a new channel.
                parked.append(req)
                continue
            try:
                # The session may have closed in an earlier viewer's hold.
                session = self.coord.sessions.get(req.message.session_id)
                port = session.port(req.message.port_name)
            except CalliopeError as err:
                self.coord.reply(
                    req.channel, req.message, m.RequestFailed(str(err))
                )
                continue
            group, stream_id = self._viewer(record, req.message, entry, port)
            if not (yield from self._attach(record, group, stream_id, session, port)):
                parked.append(req)  # its MSU failed inside the hold
                continue
            self.batched_joins += 1
            self.coord.reply(
                req.channel, req.message,
                m.StreamScheduled(group.group_id, record.msu_name),
            )
        self._park(parked, entry, "channel gone")
        self.coord.db.note_played(entry.name, len(live) - len(parked))

    def _park(self, reqs: List[_BatchedRequest], entry: ContentEntry, why: str) -> None:
        """Queue batch members no channel could take, as unicast plays."""
        for req in reqs:
            self.fallbacks += 1
            self.coord.park_play(req.message, req.channel, entry)
        if reqs:
            self.coord._trace(
                "mcast-queued", entry.name, f"viewers={len(reqs)} {why}"
            )

    def _edge_splice_play(self, req, entry, ctype) -> Generator:
        """Unicast fallback with the edge carrying the prefix.

        Returns True when the viewer was scheduled: the assigned edge
        serves pages [0, splice) while the unicast lane's tail stream
        starts at the splice.  The plan comes first, so a title no edge
        holds charges no tail slot (a hit plans the same leg again).
        Any piece missing — no placement tier, no prefix plan, no tail
        slot, or the tail's MSU failing mid-schedule — returns False.
        """
        coord = self.coord
        if coord.placement is None or entry.components:
            return False
        try:
            session = coord.sessions.get(req.message.session_id)
            port = session.port(req.message.port_name)
        except CalliopeError:
            return False
        plan = coord.placement.plan_prefix(entry, ctype, session.client_host)
        if plan is None:
            return False
        group = yield from coord.unicast.schedule(session, entry, port)
        if group is None:
            return False
        self.edge_spliced += 1
        coord._trace(
            "mcast-edge-splice", entry.name,
            f"group={group.group_id} edge={plan[0]} splice={plan[1]}"
        )
        coord.reply(
            req.channel, req.message,
            m.StreamScheduled(group.group_id, group.msu_name),
        )
        return True

    def _open_channel(
        self, entry: ContentEntry, ctype, alloc: Allocation
    ) -> ChannelRecord:
        channel_id = self._next_channel
        self._next_channel += 1
        group_id = self.coord.allocate_group_id()
        stream_id = self.coord.allocate_stream_id()
        mcast_host = f"{MULTICAST_PREFIX}{alloc.msu_name}:ch{channel_id}"
        record = ChannelRecord(
            channel_id, entry.name, alloc.msu_name, alloc.disk_id,
            group_id, stream_id, ctype.bandwidth_rate, self.sim.now,
            entry.duration_us, entry.blocks, alloc, mcast_host,
        )
        self._install(record)
        self.channels_created += 1
        self.ledger.open_channel(channel_id, entry.name, alloc.bandwidth)
        self.coord._journal("mcast-open", {"channel": image(record)})
        msu_channel = self.coord._msu_channels[alloc.msu_name]
        msu_channel.send(
            self.coord.name,
            m.ChannelCreate(
                channel_id, group_id, stream_id, entry.name, alloc.disk_id,
                ctype.protocol, ctype.bandwidth_rate, ctype.variable,
                (mcast_host, 1),
            ),
            nbytes=m.WIRE_BYTES,
        )
        self.coord._trace("mcast-channel", entry.name,
                          f"channel={channel_id} msu={alloc.msu_name}")
        return record

    # -- the book's hooks --------------------------------------------------

    def _subscribe(self, record: ChannelRecord, group_id: int, stream_id: int) -> None:
        super()._subscribe(record, group_id, stream_id)
        self.ledger.note_subscriber(record.channel_id)

    def _charge_patch(
        self, channel_id: int, group_id: int, rate: float, cache_covered: bool
    ) -> None:
        """Mirror a patch charge in the ledger.  A channel that closed
        while the viewer's subscribe was in flight refunds it at once,
        as its close refunded every other patch."""
        self.ledger.charge_patch(channel_id, group_id, rate, cache_covered)
        if channel_id not in self.channels:
            self.ledger.refund_patch(channel_id, group_id)

    def _settle_patch(self, channel_id: int, group_id: int) -> bool:
        """Mirror a refunded patch charge in the ledger."""
        return self.ledger.refund_patch(channel_id, group_id)

    def _drop(self, record: ChannelRecord, forced: bool) -> None:
        """Forget a channel whose books are already settled."""
        self._forget(record)
        record.released = True
        self.ledger.close_channel(record.channel_id, forced=forced)

    # -- MSU notifications -------------------------------------------------

    def downgrade(self, msg: m.ChannelDowngrade) -> None:
        """A subscriber left its channel for a private unicast stream.

        The MSU already runs the stream; admission must follow: refund
        any outstanding patch, detach the subscriber, and charge a full
        unicast slot on the channel's disk.
        """
        record = self.channels.get(msg.channel_id)
        group = self.coord.groups.get(msg.group_id)
        if record is None or group is None:
            return
        self._detach(msg.channel_id, msg.group_id)
        self._private_slot(record, group, msg)
        self.downgrades += 1
        self.coord._trace("mcast-downgrade", f"group={msg.group_id}",
                          f"channel={msg.channel_id}")

    def close_channel(self, channel_id: int) -> None:
        record = self.channels.get(channel_id)
        if record is None:
            return
        if not record.released:
            self.coord.admission.release(record.allocation)
        self._drop(record, forced=False)
        self.coord._journal(
            "mcast-close", {"channel_id": channel_id, "forced": False}
        )
        self.coord._trace("mcast-close", record.content_name,
                          f"channel={channel_id} viewers={record.viewers_total}")

    def msu_failed(self, msu_name: str) -> None:
        """The MSU died; its channels died with it.

        The Coordinator has already zeroed the MSU's admission books
        (``release_msu``), so channel/patch charges must *not* be
        released again — the ledger force-closes instead.  Subscriber
        groups flow through the ordinary failover path and resume as
        plain unicast streams on a replica (single ``place_read``
        charge: no double billing).
        """
        for channel_id, record in list(self.channels.items()):
            if record.msu_name != msu_name:
                continue
            self._drop(record, forced=True)  # books already zeroed wholesale
            self.coord._journal(
                "mcast-close", {"channel_id": channel_id, "forced": True}
            )

    # -- statistics --------------------------------------------------------

    def occupancy(self) -> float:
        """Mean viewers per channel over all channels ever created."""
        if self.channels_created == 0:
            return 0.0
        return self.viewers_joined / self.channels_created

    def patch_ratio(self) -> float:
        """Fraction of joins that needed a patch stream."""
        if self.viewers_joined == 0:
            return 0.0
        return self.patched_joins / self.viewers_joined

    def slots_saved(self) -> int:
        """Disk slots multicast avoided: every viewer beyond the first
        per channel would have cost a unicast duty-cycle slot."""
        return max(0, self.viewers_joined - self.channels_created)

    # -- persistence (repro.recovery.parts) ---------------------------------

    def held_allocations(self) -> Iterator[Allocation]:
        """Each unreleased channel's allocation, by channel id."""
        for channel_id in sorted(self.channels):
            record = self.channels[channel_id]
            if not record.released:
                yield record.allocation

    def snapshot(self) -> dict:
        return {"multicast": {
            "next_channel": self._next_channel,
            "channels": [image(r) for _, r in sorted(self.channels.items())],
            "ledger": self.ledger.state(),
        }}

    def load(self, state: dict) -> None:
        data = state.get("multicast") or {}
        self._load_channels(data, ChannelRecord)
        self.ledger.restore(data.get("ledger") or {})

    def _off_air(self, record: ChannelRecord) -> None:
        self._drop(record, forced=True)  # it drained during the outage

    def _adopt(self, msu_name: str, row: tuple, report) -> ChannelRecord:
        channel_id, group_id, stream_id, content, disk_id, pairs = row
        entry = self.coord.db.contents.get(content)
        ctype = self.coord.types.get(entry.type_name) if entry is not None else None
        rate = ctype.bandwidth_rate if ctype is not None else 0.0
        self.ledger.open_channel(channel_id, content, rate)
        return ChannelRecord(
            channel_id=channel_id,
            content_name=content,
            msu_name=msu_name,
            disk_id=disk_id,
            group_id=group_id,
            stream_id=stream_id,
            rate=rate,
            started_at=self.sim.now,
            duration_us=entry.duration_us if entry is not None else 0,
            blocks=entry.blocks if entry is not None else 0,
            allocation=Allocation(msu_name, disk_id, rate, content_name=content),
            mcast_host=f"{MULTICAST_PREFIX}{msu_name}:ch{channel_id}",
            subscribers={gid: sid for gid, sid in pairs},
        )

    def _replay_open(self, p: dict) -> None:
        record = from_image(ChannelRecord, p["channel"])
        self._install(record)
        self.channels_created += 1
        self.ledger.open_channel(
            record.channel_id, record.content_name, record.allocation.bandwidth
        )
        self.coord.tables.claim_ids(record.group_id, record.stream_id)

    def _replayed_private(self, p: dict) -> None:
        self._detach(p["channel_id"], p["group_id"])
        self.downgrades += 1

    def _replay_close(self, p: dict) -> None:
        record = self.channels.get(p["channel_id"])
        if record is not None:
            self._drop(record, forced=p.get("forced", False))
        else:
            self.ledger.close_channel(p["channel_id"], forced=p.get("forced", False))

    REPLAY = {
        "mcast-open": _replay_open,
        SUBSCRIBE: ChannelBook._replay_subscribe,
        "mcast-patch": lambda mgr, p: mgr._charge_patch(
            p["channel_id"], p["group_id"], p["rate"], p.get("cache_covered", False)
        ),
        MERGE: ChannelBook._replay_merge,
        PRIVATE: ChannelBook._replay_private,
        DETACH: ChannelBook._replay_detach,
        "mcast-close": _replay_close,
    }
