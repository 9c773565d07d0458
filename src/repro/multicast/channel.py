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
from typing import Dict, Generator, List, Optional, Tuple

from repro.core.admission import Allocation, QueuedRequest
from repro.core.database import ContentEntry
from repro.multicast.ledger import AdmissionLedger
from repro.net import messages as m
from repro.net.network import MULTICAST_PREFIX
from repro.recovery.parts import Part, from_image, image

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
    session_id: int


@dataclass
class _Batch:
    content_name: str
    requests: List[_BatchedRequest] = field(default_factory=list)


class ChannelManager(Part):
    """Batches, channels, patches and their admission bookkeeping."""

    SECTIONS = ("multicast",)

    def __init__(self, coordinator, config: Optional[MulticastConfig] = None):
        self.coord = coordinator
        self.sim = coordinator.sim
        self.config = config or MulticastConfig()
        self.ledger = AdmissionLedger()
        #: channel_id -> live channel record.
        self.channels: Dict[int, ChannelRecord] = {}
        #: channel-stream group_id -> channel_id (owned groups).
        self._channel_groups: Dict[int, int] = {}
        #: viewer group_id -> channel_id (attached subscribers).
        self._subscriber_groups: Dict[int, int] = {}
        self._batches: Dict[str, _Batch] = {}
        self._next_channel = 1
        #: Every patch join ever granted (tests audit the horizon bound).
        self.patch_joins: List[PatchJoin] = []
        self.channels_created = 0
        self.viewers_joined = 0
        self.batched_joins = 0
        self.patched_joins = 0
        self.merges = 0
        self.downgrades = 0
        self.fallbacks = 0  # requests parked when no channel was placeable
        self.edge_patched = 0  # patch joins served by an edge proxy
        self.edge_spliced = 0  # unicast prefix splices when no channel fit
        coordinator.install(m.ChannelDowngrade, self.downgrade, held=True)

    # -- applicability -----------------------------------------------------

    def handles(self, entry: ContentEntry) -> bool:
        """Multicast serves atomic, stored titles; composites stay unicast."""
        return not entry.components and bool(entry.msu_name)

    # -- request entry point ----------------------------------------------

    def request_play(
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
        batch.requests.append(_BatchedRequest(msg, channel, msg.session_id))
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
        placement = getattr(self.coord, "placement", None)
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
            placement = getattr(self.coord, "placement", None)
            if placement is not None:
                edge_name = placement.cover_patch(
                    entry, patch_pages, ctype.bandwidth_rate,
                    session.client_host,
                )
                if edge_name is not None:
                    alloc = self.coord.admission.place_edge(
                        entry, ctype, edge_name
                    )
                    if alloc is None:
                        edge_name = None
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
        group_id, stream_id = self._attach_subscriber(
            record, msg, session, entry, port,
            alloc if edge_name is None else None,
        )
        self.patched_joins += 1
        patch_us = int(patch_pages * record.page_us())
        if edge_name is None:
            self.patch_joins.append(
                PatchJoin(
                    record.channel_id, group_id, offset_us,
                    patch_pages, patch_us, cache_covered,
                )
            )
        if alloc is not None and edge_name is None:
            self.ledger.charge_patch(
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
        if edge_name is not None:
            # An edge serves the whole catch-up window from its pinned
            # prefix: no MSU patch stream, no disk slot, no ledger
            # charge — the serve is registered placement-side and its
            # uplink grant is refunded on EdgeServeDone.
            self.edge_patched += 1
            self.coord.placement.begin_serve(
                edge_name, group_id, stream_id, entry,
                0, patch_pages, ctype.bandwidth_rate, "patch",
                tuple(port.address), alloc,
            )
        yield from self.coord.machine.cpu.execute(self.coord.SCHEDULE_CPU)
        self._send_subscribe(
            record, group_id, stream_id, session, port,
            patch_pages if edge_name is None else 0, cache_covered,
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
        from repro.failover import play_priority

        if self.coord.dead:
            return
        self._batches.pop(batch.content_name, None)
        entry = self.coord.db.contents.get(batch.content_name)
        live = [
            req for req in batch.requests
            if self.coord.sessions.lookup(req.session_id) is not None
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
            # cache-covered) unicast tail stream starts at the splice —
            # the lane that previously engaged only with multicast off.
            parked = []
            for req in live:
                served = yield from self._edge_splice_play(req, entry, ctype)
                if not served:
                    parked.append(req)
            for req in parked:
                self.fallbacks += 1
                self.coord.admission.park(
                    QueuedRequest(
                        "play", req.session_id, req.message, req.channel,
                        priority=play_priority(self.coord.db, entry),
                    )
                )
            if parked:
                self.coord._trace(
                    "mcast-queued", entry.name,
                    f"viewers={len(parked)} no channel slot"
                )
            return
        record = self._open_channel(entry, ctype, alloc)
        for req in live:
            session = self.coord.sessions.lookup(req.session_id)
            try:
                port = session.port(req.message.port_name)
            except Exception as err:
                self.coord.reply(
                    req.channel, req.message, m.RequestFailed(str(err))
                )
                continue
            group_id, stream_id = self._attach_subscriber(
                record, req.message, session, entry, port, None
            )
            self.batched_joins += 1
            yield from self.coord.machine.cpu.execute(self.coord.SCHEDULE_CPU)
            self._send_subscribe(
                record, group_id, stream_id, session, port, 0, False
            )
            self.coord.reply(
                req.channel, req.message,
                m.StreamScheduled(group_id, record.msu_name),
            )
        self.coord.db.note_played(entry.name, len(live))

    def _edge_splice_play(self, req, entry, ctype) -> Generator:
        """Unicast fallback with the edge carrying the prefix.

        Returns True when the viewer was scheduled: the assigned edge
        serves pages [0, splice) while a plain unicast tail stream (the
        same shape the no-multicast path builds) starts at the splice.
        Any piece missing — no placement tier, no prefix plan, no tail
        slot, no uplink grant, or the tail's MSU failing mid-schedule —
        returns False and the caller parks the request as before.
        """
        coord = self.coord
        if coord.placement is None or entry.components:
            return False
        session = coord.sessions.lookup(req.session_id)
        if session is None:
            return False
        try:
            port = session.port(req.message.port_name)
        except Exception:
            return False
        plan = coord.placement.plan_prefix(entry, ctype, session.client_host)
        if plan is None:
            return False
        members = [(entry, port)]
        placed = coord.place_group(members)
        if placed is None:
            return False
        edge_alloc = coord.admission.place_edge(entry, ctype, plan[0])
        if edge_alloc is None:
            coord.admission.release(placed[0])
            return False
        group = yield from coord.schedule_play(
            session, entry, members, placed, plan + (edge_alloc,)
        )
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

    # -- subscriber plumbing ----------------------------------------------

    def _attach_subscriber(
        self, record: ChannelRecord, msg, session, entry, port,
        patch_alloc: Optional[Allocation],
    ) -> Tuple[int, int]:
        from repro.core.coordinator import GroupRecord  # cycle: late import
        from repro.failover import StreamMeta

        group_id = self.coord.allocate_group_id()
        stream_id = self.coord.allocate_stream_id()
        group = GroupRecord(group_id, msg.session_id, record.msu_name)
        if patch_alloc is not None:
            group.allocations[stream_id] = patch_alloc
        group.streams[stream_id] = StreamMeta(
            entry.name, entry.type_name, tuple(port.address)
        )
        self.coord.register_group(group, session)
        self._subscribe(record, group_id, stream_id)
        self.coord._journal(
            "mcast-subscribe",
            {
                "channel_id": record.channel_id,
                "group_id": group_id,
                "stream_id": stream_id,
            },
        )
        return group_id, stream_id

    def _install(self, record: ChannelRecord) -> None:
        self.channels[record.channel_id] = record
        if not record.released:
            self._channel_groups[record.group_id] = record.channel_id
            for gid in record.subscribers:
                self._subscriber_groups[gid] = record.channel_id
        self._next_channel = max(self._next_channel, record.channel_id + 1)

    def _subscribe(self, record: ChannelRecord, group_id: int, stream_id: int) -> None:
        record.subscribers[group_id] = stream_id
        record.viewers_total += 1
        record.peak_subscribers = max(
            record.peak_subscribers, len(record.subscribers)
        )
        self._subscriber_groups[group_id] = record.channel_id
        self.ledger.note_subscriber(record.channel_id)
        self.viewers_joined += 1

    def _drop(self, record: ChannelRecord, forced: bool) -> None:
        """Forget a channel whose books are already settled."""
        self.channels.pop(record.channel_id, None)
        record.released = True
        self._channel_groups.pop(record.group_id, None)
        for group_id in record.subscribers:
            self._subscriber_groups.pop(group_id, None)
        self.ledger.close_channel(record.channel_id, forced=forced)

    def _send_subscribe(
        self, record: ChannelRecord, group_id: int, stream_id: int,
        session, port, patch_pages: int, patch_cached: bool,
    ) -> None:
        msu_channel = self.coord._msu_channels.get(record.msu_name)
        if msu_channel is None:
            return
        msu_channel.send(
            self.coord.name,
            m.ChannelSubscribe(
                record.channel_id, group_id, stream_id,
                session.client_host, tuple(port.address),
                patch_end_page=patch_pages, patch_cached=patch_cached,
            ),
            nbytes=m.WIRE_BYTES,
        )

    # -- MSU notifications -------------------------------------------------

    def patch_drained(self, msg: m.PatchDrained) -> None:
        """A joiner merged onto its channel: refund the patch charge."""
        self.coord._journal(
            "mcast-merge",
            {
                "channel_id": msg.channel_id,
                "group_id": msg.group_id,
                "stream_id": msg.stream_id,
            },
        )
        group = self.coord.groups.get(msg.group_id)
        if group is not None:
            alloc = group.allocations.pop(msg.stream_id, None)
            if alloc is not None:
                self.coord.admission.release(alloc)
        if self.ledger.refund_patch(msg.channel_id, msg.group_id):
            self.merges += 1
            self.coord._trace("mcast-merge", f"group={msg.group_id}",
                              f"channel={msg.channel_id}")

    def downgrade(self, msg: m.ChannelDowngrade) -> None:
        """A subscriber left its channel for a private unicast stream.

        The MSU already runs the stream; admission must follow: refund
        any outstanding patch, detach the subscriber, and charge a full
        unicast slot on the channel's disk (deliberately without a
        feasibility check — the viewer is already being served).
        """
        record = self.channels.get(msg.channel_id)
        group = self.coord.groups.get(msg.group_id)
        if record is None or group is None:
            return
        alloc = group.allocations.pop(msg.stream_id, None)
        if alloc is not None:
            self.coord.admission.release(alloc)
        self.ledger.refund_patch(msg.channel_id, msg.group_id)
        record.subscribers.pop(msg.group_id, None)
        self._subscriber_groups.pop(msg.group_id, None)
        entry = self.coord.db.contents.get(record.content_name)
        new_alloc = self.coord.admission.charge_direct(
            entry, record.rate, record.msu_name, record.disk_id
        )
        group.allocations[msg.stream_id] = new_alloc
        self.coord._journal(
            "mcast-downgrade",
            {
                "channel_id": msg.channel_id,
                "group_id": msg.group_id,
                "stream_id": msg.stream_id,
                "alloc": image(new_alloc),
            },
        )
        self.downgrades += 1
        self.coord._trace("mcast-downgrade", f"group={msg.group_id}",
                          f"channel={msg.channel_id}")

    def handle_terminated(self, msg: m.StreamTerminated) -> bool:
        """Route channel/subscriber terminations.

        Returns True when the message was a channel stream's own
        termination (fully handled here); False lets the Coordinator's
        default per-group path run (subscriber groups are ordinary
        groups, their bookkeeping mostly lives there).
        """
        channel_id = self._channel_groups.pop(msg.group_id, None)
        if channel_id is not None:
            self._close_channel(channel_id)
            return True
        channel_id = self._subscriber_groups.pop(msg.group_id, None)
        if channel_id is not None:
            record = self.channels.get(channel_id)
            if record is not None:
                record.subscribers.pop(msg.group_id, None)
            # The default path releases the group's allocations; mirror
            # any still-outstanding patch charge in the ledger.
            self.ledger.refund_patch(channel_id, msg.group_id)
            self.coord._journal(
                "mcast-detach",
                {"channel_id": channel_id, "group_id": msg.group_id},
            )
        return False

    def _close_channel(self, channel_id: int) -> None:
        record = self.channels.pop(channel_id, None)
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

    def protected_groups(self) -> set:
        """Channel and subscriber groups settle via multicast messages."""
        return set(self._channel_groups) | set(self._subscriber_groups)

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

    def snapshot(self) -> dict:
        return {"multicast": {
            "next_channel": self._next_channel,
            "channels": [image(r) for _, r in sorted(self.channels.items())],
            "ledger": self.ledger.state(),
        }}

    def load(self, state: dict) -> None:
        data = state.get("multicast") or {}
        self.channels.clear()
        self._channel_groups.clear()
        self._subscriber_groups.clear()
        self._next_channel = data.get("next_channel", 1)
        for channel in data.get("channels", ()):
            self._install(from_image(ChannelRecord, channel))
        self.ledger.restore(data.get("ledger") or {})

    def reconcile(self, by_msu: dict, outcome) -> None:
        """Intersect channels and subscriber sets with what MSUs serve."""
        coord = self.coord
        channels_at = {
            name: {entry[0]: entry for entry in report.channels}
            for name, report in by_msu.items()
        }
        for channel_id in sorted(self.channels):
            record = self.channels[channel_id]
            if record.msu_name not in by_msu:
                continue
            reported = channels_at[record.msu_name].get(channel_id)
            if reported is None:
                # The channel drained during the outage.
                self._drop(record, forced=True)
                outcome.channels_dropped += 1
                outcome.discrepancies.append(
                    f"{record.msu_name}: channel {channel_id} not serving; closed"
                )
                continue
            outcome.channels_kept += 1
            live_subs = {gid: sid for gid, sid in reported[5]}
            for gid in sorted(set(record.subscribers) - set(live_subs)):
                record.subscribers.pop(gid, None)
                self._subscriber_groups.pop(gid, None)
                self.ledger.refund_patch(channel_id, gid)
                outcome.subscribers_dropped += 1
                outcome.discrepancies.append(
                    f"{record.msu_name}: channel {channel_id} subscriber "
                    f"{gid} gone; detached"
                )
            for gid in sorted(set(live_subs) - set(record.subscribers)):
                record.subscribers[gid] = live_subs[gid]
                self._subscriber_groups[gid] = channel_id
                outcome.discrepancies.append(
                    f"{record.msu_name}: channel {channel_id} subscriber "
                    f"{gid} unknown; adopted"
                )

        # Channels the MSU serves that the Coordinator has no record of.
        for name in sorted(by_msu):
            for channel_id in sorted(channels_at[name]):
                if channel_id in self.channels:
                    continue
                _cid, group_id, stream_id, content, disk_id, pairs = (
                    channels_at[name][channel_id]
                )
                entry = coord.db.contents.get(content)
                ctype = coord.types.get(entry.type_name) if entry is not None else None
                rate = ctype.bandwidth_rate if ctype is not None else 0.0
                record = ChannelRecord(
                    channel_id=channel_id,
                    content_name=content,
                    msu_name=name,
                    disk_id=disk_id,
                    group_id=group_id,
                    stream_id=stream_id,
                    rate=rate,
                    started_at=coord.sim.now,
                    duration_us=entry.duration_us if entry is not None else 0,
                    blocks=entry.blocks if entry is not None else 0,
                    allocation=Allocation(name, disk_id, rate, content_name=content),
                    mcast_host=f"{MULTICAST_PREFIX}{name}:ch{channel_id}",
                    subscribers={gid: sid for gid, sid in pairs},
                )
                self._install(record)
                self.ledger.open_channel(channel_id, content, rate)
                coord.tables.claim_ids(group_id, stream_id)
                outcome.channels_adopted += 1
                outcome.discrepancies.append(
                    f"{name}: unknown channel {channel_id} ({content!r}); adopted"
                )

    def _replay_open(self, p: dict) -> None:
        record = from_image(ChannelRecord, p["channel"])
        self._install(record)
        self.channels_created += 1
        self.ledger.open_channel(
            record.channel_id, record.content_name, record.allocation.bandwidth
        )
        self.coord.tables.claim_ids(record.group_id, record.stream_id)

    def _replay_subscribe(self, p: dict) -> None:
        record = self.channels.get(p["channel_id"])
        if record is not None:
            self._subscribe(record, p["group_id"], p["stream_id"])

    def _replay_merge(self, p: dict) -> None:
        group = self.coord.groups.get(p["group_id"])
        if group is not None:
            group.allocations.pop(p["stream_id"], None)
        if self.ledger.refund_patch(p["channel_id"], p["group_id"]):
            self.merges += 1

    def _replay_downgrade(self, p: dict) -> None:
        group_id = p["group_id"]
        self.ledger.refund_patch(p["channel_id"], group_id)
        record = self.channels.get(p["channel_id"])
        if record is not None:
            record.subscribers.pop(group_id, None)
        self._subscriber_groups.pop(group_id, None)
        group = self.coord.groups.get(group_id)
        if group is not None:
            group.allocations[p["stream_id"]] = from_image(Allocation, p["alloc"])
        self.downgrades += 1

    def _replay_detach(self, p: dict) -> None:
        record = self.channels.get(p["channel_id"])
        if record is not None:
            record.subscribers.pop(p["group_id"], None)
        self._subscriber_groups.pop(p["group_id"], None)
        self.ledger.refund_patch(p["channel_id"], p["group_id"])

    def _replay_close(self, p: dict) -> None:
        record = self.channels.get(p["channel_id"])
        if record is not None:
            self._drop(record, forced=p.get("forced", False))
        else:
            self.ledger.close_channel(p["channel_id"], forced=p.get("forced", False))

    REPLAY = {
        "mcast-open": _replay_open,
        "mcast-subscribe": _replay_subscribe,
        "mcast-patch": lambda mgr, p: mgr.ledger.charge_patch(
            p["channel_id"], p["group_id"], p["rate"], p.get("cache_covered", False)
        ),
        "mcast-merge": _replay_merge,
        "mcast-downgrade": _replay_downgrade,
        "mcast-detach": _replay_detach,
        "mcast-close": _replay_close,
    }
