"""The Coordinator's live-channel manager: EPG, tuning, time shift.

One :class:`LiveManager` owns the channel lineup.  For each
:class:`ChannelSpec` an EPG process fires at the scheduled start time,
admits an ingest slot (``place_record``) plus a fan-out delivery slot on
the same MSU, and sends the MSU a single ``LiveOpen`` that wires both
ends of the channel: the broadcaster's RecordStream appending onto a
growing file and the multicast ChannelStream following its tail.

Viewers *tune* by playing the channel's content name; the manager
intercepts the play before the VoD paths see it, applies a token-bucket
surf gate (channel-surf storms must not starve the request queue), and
subscribes the viewer to the fan-out.  Rewind-live charges a bounded
unicast slot (``charge_direct``, like a channel downgrade) that is
refunded when the time-shift patch drains and the viewer re-merges.

Everything structural is journaled (``live-*`` records) and captured by
snapshots, so a restarted Coordinator re-adopts channels mid-broadcast;
reconciliation trusts the MSU's ``live_channels`` report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.core.coordinator import Coordinator
from repro.core.database import ContentEntry
from repro.core.sessions import GroupRecord, Session
from repro.multicast.book import LIVE_CHANNEL_BASE, ChannelBook
from repro.net import messages as m
from repro.net.network import MULTICAST_PREFIX
from repro.recovery.parts import from_image, image

__all__ = [
    "LIVE_CHANNEL_BASE",
    "ChannelSpec",
    "LiveConfig",
    "LiveChannelRecord",
    "LiveManager",
]

#: Ingest-admission attempts when the cluster is momentarily full, and
#: the wait between them (seconds).
OPEN_RETRIES = 5
OPEN_RETRY_DELAY = 2.0


@dataclass(frozen=True)
class ChannelSpec:
    """One EPG lineup entry: what airs, where from, and when."""

    name: str
    type_name: str
    source_host: str
    start_at: float = 0.0
    duration_seconds: float = 60.0
    #: True keeps every page (a scheduled recording that becomes VoD
    #: when the channel signs off); False rings the file and deletes it.
    record: bool = False


@dataclass(frozen=True)
class LiveConfig:
    """Knobs for the live subsystem."""

    lineup: Tuple[ChannelSpec, ...] = ()
    #: Time-shift window depth, seconds of media kept behind the live edge.
    ring_seconds: float = 30.0
    #: Token-bucket surf gate: sustained tunes/second across all viewers
    #: (0 disables the gate) and the burst it forgives.
    surf_rate: float = 0.0
    surf_burst: float = 8.0
    #: How long past its scheduled slot a channel may run before the EPG
    #: forces it off the air (a stalled broadcaster never quits cleanly).
    off_air_grace: float = 10.0


@dataclass
class LiveChannelRecord:
    """Coordinator-side state of one on-air channel."""

    channel_id: int
    content_name: str
    type_name: str
    msu_name: str
    disk_id: str
    group_id: int            # the fan-out stream's server-internal group
    stream_id: int
    ingest_group_id: int     # the broadcaster's group (RecordStream)
    ingest_stream_id: int
    rate: float
    started_at: float
    ring_blocks: int
    dvr: bool
    mcast_host: str
    source_host: str
    #: viewer group_id -> stream_id.
    subscribers: Dict[int, int] = field(default_factory=dict)
    ingest_done: bool = False
    viewers_total: int = 0
    peak_subscribers: int = 0
    rewinds: int = 0
    rewind_hits: int = 0


class LiveManager(ChannelBook):
    """EPG scheduling, surf admission, and time-shift accounting."""

    SECTIONS = ("live",)
    SUBSCRIBE, MERGE, DETACH, PRIVATE = (
        "live-tune", "live-merge", "live-detach", "live-rewind",
    )
    REPORTED, NOUN = "live_channels", "live channel"
    FIRST_CHANNEL = LIVE_CHANNEL_BASE + 1

    def __init__(self, coordinator: Coordinator, config: LiveConfig):
        super().__init__(coordinator)
        self.config = config
        self._by_name: Dict[str, int] = {}
        self._ingest_groups: Dict[int, int] = {}     # ingest gid -> cid
        #: Lineup indices whose EPG slot already fired (journaled so a
        #: restarted Coordinator does not re-open a finished broadcast).
        self.fired: Set[int] = set()
        self._surf_tokens = float(config.surf_burst)
        self._surf_last = 0.0
        # Counters (experiments / invariants read these).
        self.channels_opened = 0
        self.channels_closed = 0
        self.channels_failed = 0
        self.surf_throttled = 0
        self.rewinds = 0
        self.rewind_hits = 0
        coordinator.install(m.LiveRewound, self.rewound, held=True)
        if not getattr(coordinator, "standby", False):
            for index, spec in enumerate(config.lineup):
                self.sim.process(self._epg(index, spec), name=f"epg.{spec.name}")

    # -- EPG scheduling ------------------------------------------------------

    def activate(self) -> None:
        """Arm EPG slots on a promoted warm standby.

        Safe late: ``_epg`` re-derives its delay from ``start_at`` and
        skips indices already in ``fired`` (tailed from the old leader's
        journal), so only genuinely unfired slots open.
        """
        for index, spec in enumerate(self.config.lineup):
            if index not in self.fired:
                self.sim.process(self._epg(index, spec), name=f"epg.{spec.name}")

    def _epg(self, index: int, spec: ChannelSpec) -> Generator:
        delay = max(0.0, spec.start_at - self.sim.now)
        yield self.sim.timeout(delay)
        while self.coord.recovering:
            yield self.sim.timeout(0.5)
        if self.coord.dead or index in self.fired:
            return
        self.fired.add(index)
        self.coord._journal("live-epg", {"index": index})
        record = None
        for _attempt in range(OPEN_RETRIES):
            record = self.open_channel(spec)
            if record is not None:
                break
            yield self.sim.timeout(OPEN_RETRY_DELAY)
            if self.coord.dead or self.coord.recovering:
                return
        if record is None:
            self.channels_failed += 1
            self.coord._trace("live-failed", spec.name, "no ingest slot")
            return
        # Off-air guard: a broadcaster that stalls and never quits would
        # hold its ingest slot forever; force the sign-off after grace.
        yield self.sim.timeout(spec.duration_seconds + self.config.off_air_grace)
        current = self.channels.get(record.channel_id)
        if current is record and not current.ingest_done:
            self.coord._trace("live-force-stop", spec.name,
                              f"channel={record.channel_id}")
            self.stop_channel(record.channel_id)

    def open_channel(self, spec: ChannelSpec) -> Optional[LiveChannelRecord]:
        """Admit and open one live channel; None when the cluster is full."""
        coord = self.coord
        if spec.name in coord.db.contents or spec.name in self._by_name:
            return None  # already on the air or recorded under this name
        ctype = coord.types.get(spec.type_name)
        # A ring channel's disk footprint is bounded by the window, not
        # the broadcast length; a scheduled recording needs it all, up
        # to the forced stop at the end of the grace, plus headroom for
        # IB-tree packing (per-record headers, the slack at each page
        # end) that the raw media-rate estimate cannot see.
        estimate = (spec.duration_seconds + self.config.off_air_grace) * 1.15
        if not spec.record:
            estimate = min(estimate, 2.0 * self.config.ring_seconds)
        alloc = coord.admission.place_record(ctype, estimate)
        if alloc is None:
            return None
        msu_channel = coord._msu_channels.get(alloc.msu_name)
        if msu_channel is None:
            coord.admission.release(alloc)
            return None
        # The fan-out leg reads the tail back out: its delivery slot is
        # charged without a feasibility gate (the ingest placement just
        # proved the MSU has headroom; the duty cycle absorbs overlap).
        fan_alloc = coord.admission.charge_direct(
            None, ctype.bandwidth_rate, alloc.msu_name, alloc.disk_id
        )
        channel_id = self._next_channel
        self._next_channel += 1
        group_id = coord.allocate_group_id()
        stream_id = coord.allocate_stream_id()
        ingest_group_id = coord.allocate_group_id()
        ingest_stream_id = coord.allocate_stream_id()
        ring_blocks = 0
        if not spec.record:
            ring_blocks = coord.admission.estimate_blocks(
                ctype, self.config.ring_seconds
            )
        mcast_host = f"{MULTICAST_PREFIX}{alloc.msu_name}:live{channel_id}"
        coord.db.add_content(
            ContentEntry(spec.name, spec.type_name, alloc.msu_name, alloc.disk_id)
        )
        # Server-initiated groups carry no session.
        ingest_group = GroupRecord(ingest_group_id, 0, alloc.msu_name)
        ingest_group.allocations[ingest_stream_id] = alloc
        ingest_group.recordings[ingest_stream_id] = (spec.name, spec.type_name)
        coord.register_group(ingest_group, None)
        fan_group = GroupRecord(group_id, 0, alloc.msu_name)
        fan_group.allocations[stream_id] = fan_alloc
        coord.register_group(fan_group, None)
        record = LiveChannelRecord(
            channel_id, spec.name, spec.type_name, alloc.msu_name,
            alloc.disk_id, group_id, stream_id, ingest_group_id,
            ingest_stream_id, ctype.bandwidth_rate, self.sim.now,
            ring_blocks, spec.record, mcast_host, spec.source_host,
        )
        self._install(record)
        self.channels_opened += 1
        coord._journal("live-open", {"channel": image(record)})
        msu_channel.send(
            coord.name,
            m.LiveOpen(
                channel_id, group_id, stream_id, ingest_group_id,
                ingest_stream_id, spec.name, alloc.disk_id, ctype.protocol,
                ctype.bandwidth_rate, ctype.variable, spec.source_host,
                (mcast_host, 1), reserve_blocks=alloc.reserved_blocks,
                ring_blocks=ring_blocks,
            ),
            nbytes=m.WIRE_BYTES,
        )
        coord._trace("live-open", spec.name,
                     f"channel={channel_id} msu={alloc.msu_name} "
                     f"ring={ring_blocks} dvr={spec.record}")
        return record

    def stop_channel(self, channel_id: int) -> None:
        """Take a channel off the air (EPG slot over / operator action)."""
        record = self.channels.get(channel_id)
        if record is None:
            return
        msu_channel = self.coord._msu_channels.get(record.msu_name)
        if msu_channel is not None:
            msu_channel.send(
                self.coord.name, m.LiveStop(channel_id), nbytes=m.WIRE_BYTES
            )

    def _install(self, record: LiveChannelRecord) -> None:
        super()._install(record)
        self._by_name[record.content_name] = record.channel_id
        if not record.ingest_done:
            self._ingest_groups[record.ingest_group_id] = record.channel_id

    def _forget(self, record: LiveChannelRecord) -> None:
        super()._forget(record)
        if self._by_name.get(record.content_name) == record.channel_id:
            del self._by_name[record.content_name]
        self._ingest_groups.pop(record.ingest_group_id, None)

    # -- tuning (viewer joins) -----------------------------------------------

    def channel_for(self, content_name: str) -> Optional[LiveChannelRecord]:
        """The on-air channel broadcasting ``content_name``, if any."""
        channel_id = self._by_name.get(content_name)
        if channel_id is None:
            return None
        return self.channels.get(channel_id)

    def _take_surf_token(self) -> bool:
        if self.config.surf_rate <= 0:
            return True
        now = self.sim.now
        self._surf_tokens = min(
            float(self.config.surf_burst),
            self._surf_tokens + (now - self._surf_last) * self.config.surf_rate,
        )
        self._surf_last = now
        if self._surf_tokens >= 1.0:
            self._surf_tokens -= 1.0
            return True
        return False

    def takes(self, entry: ContentEntry) -> bool:
        """A play of an atomic title with an on-air channel is a tune."""
        return not entry.components and self.channel_for(entry.name) is not None

    def play(
        self, msg: m.PlayRequest, channel, session: Session, entry: ContentEntry, port
    ) -> Generator:
        """Subscribe one viewer to the title's channel (the tune).

        Surf-gated: past the token bucket the tune parks on the normal
        scheduling queue and retries when a stream ends — rapid join/
        leave storms drain at the configured rate instead of saturating
        the Coordinator.
        """
        coord = self.coord
        if not self._take_surf_token():
            self.surf_throttled += 1
            coord.park_play(msg, channel, entry)
            coord._trace("live-throttled", entry.name,
                         f"session={msg.session_id}")
            return None
        record = self.channel_for(entry.name)
        group, stream_id = self._viewer(record, msg, entry, port)
        if not (yield from self._attach(record, group, stream_id, session, port)):
            # Its MSU failed inside the hold: park like a throttled tune.
            coord.park_play(msg, channel, entry)
            return None
        coord._trace("live-tune", entry.name,
                     f"channel={record.channel_id} group={group.group_id}")
        return m.StreamScheduled(group.group_id, record.msu_name)

    # -- time shift (rewind charge / merge refund) ---------------------------

    def rewound(self, msg: m.LiveRewound) -> None:
        """The MSU opened a time-shift patch: charge the unicast slot."""
        record = self.channels.get(msg.channel_id)
        self.rewinds += 1
        if msg.hit:
            self.rewind_hits += 1
        if record is None:
            return
        record.rewinds += 1
        if msg.hit:
            record.rewind_hits += 1
        group = self.coord.groups.get(msg.group_id)
        if group is None:
            return
        # A newer rewind replaces a patch still draining.
        self._private_slot(record, group, msg, hit=msg.hit)
        self.coord._trace("live-rewind", record.content_name,
                          f"group={msg.group_id} pages=[{msg.start_page},"
                          f"{msg.end_page}) hit={msg.hit}")

    # -- terminations --------------------------------------------------------

    def handle_terminated(self, msg: m.StreamTerminated) -> bool:
        """An ingest's end marks it done (the default path releases its
        slot and sets the title's blocks); fan-out and viewer ends are
        the book's."""
        channel_id = self._ingest_groups.pop(msg.group_id, None)
        if channel_id is None:
            return super().handle_terminated(msg)
        record = self.channels.get(channel_id)
        if record is not None and msg.reason == "record-complete":
            record.ingest_done = True
            self.coord._journal("live-ingest-done", {"channel_id": channel_id})
        return False

    def close_channel(self, channel_id: int, forced: bool = False) -> None:
        """Tear down a finished (or failed) channel's books and content.

        ``forced`` means the MSU died: its allocations were already
        zeroed wholesale and there is no one to send a DeleteFile to.
        """
        record = self.channels.get(channel_id)
        if record is None:
            return
        self._forget(record)
        group = self.coord.groups.pop(record.group_id, None)
        if group is not None:
            if not forced:
                for alloc in group.allocations.values():
                    self.coord.admission.release(alloc)
            self.coord._journal("group-drop", {
                "group_id": record.group_id, "dropped_contents": [],
            })
        if not record.dvr:
            # A pure-live ring has no afterlife: drop the title and free
            # the resident window.  DVR channels stay as ordinary VoD.
            entry = self.coord.db.contents.get(record.content_name)
            if entry is not None and entry.active_total() == 0:
                self.coord.db.remove_content(record.content_name)
                if not forced:
                    self.coord._delete_on_msu(entry)
        self.channels_closed += 1
        self.coord._journal("live-close", {
            "channel_id": channel_id, "forced": forced,
        })
        self.coord._trace("live-close", record.content_name,
                          f"channel={channel_id} forced={forced} "
                          f"viewers={record.viewers_total}")

    def owned_groups(self) -> set:
        """The ingest groups too."""
        return super().owned_groups() | set(self._ingest_groups)

    def msu_failed(self, msu_name: str) -> None:
        """Every channel on a dead MSU went dark with it."""
        for channel_id in [
            cid for cid, rec in self.channels.items()
            if rec.msu_name == msu_name
        ]:
            self.close_channel(channel_id, forced=True)

    # -- persistence (repro.recovery.parts) ------------------------------------

    def snapshot(self) -> dict:
        return {"live": {
            "next_channel": self._next_channel,
            "fired": sorted(self.fired),
            "channels": [image(self.channels[cid]) for cid in sorted(self.channels)],
        }}

    def load(self, state: dict) -> None:
        data = state.get("live") or {}
        self._by_name.clear()
        self._ingest_groups.clear()
        self.fired = set(data.get("fired", ()))
        self._load_channels(data, LiveChannelRecord)

    def audit(self) -> List[str]:
        problems = super().audit()
        for channel_id, record in self.channels.items():
            if self._by_name.get(record.content_name) != channel_id:
                problems.append(
                    f"live channel {channel_id}: name {record.content_name!r} "
                    f"not registered back to it"
                )
        return problems

    def _off_air(self, record: LiveChannelRecord) -> None:
        # Its groups were already dropped stream by stream; closing also
        # retires a pure-live title and deletes its ring.
        self.close_channel(record.channel_id)

    def _kept(self, record: LiveChannelRecord, report, outcome) -> None:
        """An ingest that signed off while the Coordinator was dead."""
        streams = {(gid, sid) for gid, sid, _c, _d, _k, _r in report.streams}
        if (
            not record.ingest_done
            and (record.ingest_group_id, record.ingest_stream_id) not in streams
        ):
            record.ingest_done = True
            self._ingest_groups.pop(record.ingest_group_id, None)
            outcome.discrepancies.append(
                f"{record.msu_name}: live channel {record.channel_id} ingest "
                f"finished during outage"
            )

    def _adopt(self, msu_name: str, row: tuple, report) -> LiveChannelRecord:
        channel_id, group_id, stream_id, content, disk_id, rate, pairs = row
        entry = self.coord.db.contents.get(content)
        ingest_gid, ingest_sid = 0, -1
        for gid, sid, c, _d, kind, _r in sorted(report.streams):
            if kind == "record" and c == content:
                ingest_gid, ingest_sid = gid, sid
                break
        self.channels_opened += 1
        return LiveChannelRecord(
            channel_id=channel_id,
            content_name=content,
            type_name=entry.type_name if entry is not None else "",
            msu_name=msu_name,
            disk_id=disk_id,
            group_id=group_id,
            stream_id=stream_id,
            ingest_group_id=ingest_gid,
            ingest_stream_id=ingest_sid,
            rate=rate,
            started_at=self.sim.now,
            ring_blocks=0,
            dvr=False,
            mcast_host=f"{MULTICAST_PREFIX}{msu_name}:live{channel_id}",
            source_host="",
            subscribers={gid: sid for gid, sid in pairs},
            ingest_done=ingest_sid < 0,
        )

    def _replay_open(self, p: dict) -> None:
        record = from_image(LiveChannelRecord, p["channel"])
        self._install(record)
        self.channels_opened += 1
        self.coord.tables.claim_ids(
            max(record.group_id, record.ingest_group_id),
            max(record.stream_id, record.ingest_stream_id),
        )

    def _replayed_private(self, p: dict) -> None:
        hit = p.get("hit", True)
        self.rewinds += 1
        self.rewind_hits += hit
        # rewound() counts the rewind on its record as well.
        record = self.channels.get(p["channel_id"])
        if record is not None:
            record.rewinds += 1
            record.rewind_hits += hit

    def _replay_ingest_done(self, p: dict) -> None:
        record = self.channels.get(p["channel_id"])
        if record is not None:
            record.ingest_done = True
            self._ingest_groups.pop(record.ingest_group_id, None)

    def _replay_close(self, p: dict) -> None:
        # Books and content moves were journaled separately.
        record = self.channels.get(p["channel_id"])
        if record is not None:
            self._forget(record)
        self.channels_closed += 1

    REPLAY = {
        "live-epg": lambda live, p: live.fired.add(p["index"]),
        "live-open": _replay_open,
        SUBSCRIBE: ChannelBook._replay_subscribe,
        PRIVATE: ChannelBook._replay_private,
        MERGE: ChannelBook._replay_merge,
        "live-ingest-done": _replay_ingest_done,
        DETACH: ChannelBook._replay_detach,
        "live-close": _replay_close,
    }
