"""The Coordinator's one book of channels and their viewers.

A live channel is a multicast channel whose file is recorded as it
plays, so the Coordinator keeps one subscriber book for both.
:class:`ChannelBook` is the part both managers build on
(:class:`~repro.multicast.channel.ChannelManager` for VoD batching and
patching, :class:`~repro.live.manager.LiveManager` for live TV).  It owns
the channel records and two indexes, the fan-out group of each channel
and the channel of each viewer group, and implements once:

* viewer attach (:meth:`_attach` then :meth:`_join`), the same for a
  batched, a patched and a tuned viewer;
* a viewer's private unicast slot (a downgrade or a rewind) and the
  refund when its patch merges back onto the channel;
* detaching a viewer whose stream ended, and forgetting a closed
  channel's index entries;
* reconciliation of channels and viewers against the MSUs' reports, the
  groups a takeover must leave alone, and an :meth:`audit` of the
  indexes;
* journal replay of subscribe, merge, detach and private-slot records.

A subclass names its journal kinds, its snapshot section and its record
dataclass, and keeps its own admission: multicast's batches, patches
and ledger, live TV's EPG, ingest, surf gate and ring.  It also defines
``close_channel(channel_id)`` (settle a channel whose fan-out ended),
and for reconcile ``_off_air(record)`` (its channel no longer runs) and
``_adopt(msu_name, row, report)`` (the record of a reported channel the
book never saw), and for replay ``_replayed_private(payload)``.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Generator, List, Optional, Tuple

from repro.core.admission import Allocation, StreamMeta
from repro.core.sessions import GroupRecord
from repro.net import messages as m
from repro.recovery.parts import Part, from_image, image

__all__ = ["ChannelBook"]


class ChannelBook(Part):
    """Channel records, their fan-out and viewer groups, and their books."""

    #: Journal kinds of the shared records: a viewer subscribed, a patch
    #: merged back, a viewer detached, a viewer took a private slot.
    SUBSCRIBE: ClassVar[str]
    MERGE: ClassVar[str]
    DETACH: ClassVar[str]
    PRIVATE: ClassVar[str]
    #: The ``StateReport`` field listing this book's channels.
    REPORTED: ClassVar[str]
    #: What a discrepancy or an audit finding calls one channel.
    NOUN: ClassVar[str]
    FIRST_CHANNEL: ClassVar[int] = 1

    def __init__(self, coordinator):
        self.coord = coordinator
        self.sim = coordinator.sim
        #: channel_id -> the channel's record.
        self.channels: Dict[int, object] = {}
        #: fan-out group_id -> channel_id.
        self._channel_groups: Dict[int, int] = {}
        #: viewer group_id -> channel_id.
        self._subscriber_groups: Dict[int, int] = {}
        self._next_channel = self.FIRST_CHANNEL
        self.viewers_joined = 0
        self.merges = 0

    # -- records and indexes --------------------------------------------------

    def _install(self, record) -> None:
        self.channels[record.channel_id] = record
        self._channel_groups[record.group_id] = record.channel_id
        for group_id in record.subscribers:
            self._subscriber_groups[group_id] = record.channel_id
        self._next_channel = max(self._next_channel, record.channel_id + 1)

    def _forget(self, record) -> None:
        """Drop a record and every index entry that points at it."""
        self.channels.pop(record.channel_id, None)
        self._channel_groups.pop(record.group_id, None)
        for group_id in record.subscribers:
            self._subscriber_groups.pop(group_id, None)

    def _load_channels(self, data: dict, cls: type) -> None:
        self.channels.clear()
        self._channel_groups.clear()
        self._subscriber_groups.clear()
        self._next_channel = data.get("next_channel", self.FIRST_CHANNEL)
        for channel in data.get("channels", ()):
            self._install(from_image(cls, channel))

    # -- viewers --------------------------------------------------------------

    def _attach(
        self, record, msg, session, entry, port,
        alloc: Optional[Allocation] = None,
    ) -> Tuple[int, int]:
        """Register a viewer's group, subscribe it and journal it."""
        coord = self.coord
        group_id = coord.allocate_group_id()
        stream_id = coord.allocate_stream_id()
        group = GroupRecord(group_id, msg.session_id, record.msu_name)
        if alloc is not None:
            group.allocations[stream_id] = alloc
        group.streams[stream_id] = StreamMeta(
            entry.name, entry.type_name, tuple(port.address)
        )
        coord.register_group(group, session)
        self._subscribe(record, group_id, stream_id)
        coord._journal(self.SUBSCRIBE, {
            "channel_id": record.channel_id,
            "group_id": group_id,
            "stream_id": stream_id,
        })
        return group_id, stream_id

    def _join(
        self, record, group_id: int, stream_id: int, session, port,
        patch_pages: int = 0, patch_cached: bool = False,
    ) -> Generator:
        """Spend the schedule's CPU, then subscribe the viewer MSU-side."""
        coord = self.coord
        yield coord.machine.cpu.execute(coord.SCHEDULE_CPU)
        msu_channel = coord._msu_channels.get(record.msu_name)
        if msu_channel is not None:
            msu_channel.send(
                coord.name,
                m.ChannelSubscribe(
                    record.channel_id, group_id, stream_id,
                    session.client_host, tuple(port.address),
                    patch_end_page=patch_pages, patch_cached=patch_cached,
                ),
                nbytes=m.WIRE_BYTES,
            )

    def _subscribe(self, record, group_id: int, stream_id: int) -> None:
        record.subscribers[group_id] = stream_id
        record.viewers_total += 1
        record.peak_subscribers = max(
            record.peak_subscribers, len(record.subscribers)
        )
        self._subscriber_groups[group_id] = record.channel_id
        self.viewers_joined += 1

    def _detach(self, channel_id: int, group_id: int) -> None:
        record = self.channels.get(channel_id)
        if record is not None:
            record.subscribers.pop(group_id, None)
        self._subscriber_groups.pop(group_id, None)
        self._settle_patch(channel_id, group_id)

    def _settle_patch(self, channel_id: int, group_id: int) -> bool:
        """A viewer's patch ended; True counts it as a merge."""
        return True

    # -- private slots and merges ---------------------------------------------

    def _private_slot(self, record, group, msg, **extra) -> None:
        """Charge a viewer's private unicast stream on the channel's disk.

        The MSU already runs the stream, so the slot is charged without
        a feasibility check; a slot still held from an earlier private
        stream of the same viewer is released first.
        """
        admission = self.coord.admission
        stale = group.allocations.pop(msg.stream_id, None)
        if stale is not None:
            admission.release(stale)
        alloc = admission.charge_direct(
            self.coord.db.contents.get(record.content_name),
            record.rate, record.msu_name, record.disk_id,
        )
        group.allocations[msg.stream_id] = alloc
        self.coord._journal(self.PRIVATE, {
            "channel_id": msg.channel_id,
            "group_id": msg.group_id,
            "stream_id": msg.stream_id,
            "alloc": image(alloc),
            **extra,
        })

    def patch_drained(self, msg: m.PatchDrained) -> None:
        """A viewer's patch or rewind merged back: refund its slot."""
        self.coord._journal(self.MERGE, {
            "channel_id": msg.channel_id,
            "group_id": msg.group_id,
            "stream_id": msg.stream_id,
        })
        group = self.coord.groups.get(msg.group_id)
        if group is not None:
            alloc = group.allocations.pop(msg.stream_id, None)
            if alloc is not None:
                self.coord.admission.release(alloc)
        if self._settle_patch(msg.channel_id, msg.group_id):
            self.merges += 1
            self.coord._trace(self.MERGE, f"group={msg.group_id}",
                              f"channel={msg.channel_id}")

    # -- lifecycle (repro.recovery.parts) -------------------------------------

    def handle_terminated(self, msg: m.StreamTerminated) -> bool:
        """A fan-out stream's end closes its channel (fully handled
        here); a viewer's end detaches it, and the Coordinator's default
        path then releases the viewer's group."""
        channel_id = self._channel_groups.get(msg.group_id)
        if channel_id is not None:
            self.close_channel(channel_id)
            return True
        channel_id = self._subscriber_groups.get(msg.group_id)
        if channel_id is not None:
            self._detach(channel_id, msg.group_id)
            self.coord._journal(self.DETACH, {
                "channel_id": channel_id, "group_id": msg.group_id,
            })
        return False

    def protected_groups(self) -> set:
        """Fan-out and viewer groups settle via channel messages."""
        return set(self._channel_groups) | set(self._subscriber_groups)

    def reconcile(self, by_msu: dict, outcome) -> None:
        """MSU-wins: a channel its MSU no longer runs is closed, one it
        runs unrecorded is adopted, and viewer sets are intersected."""
        rows_at = {
            name: {row[0]: row for row in getattr(report, self.REPORTED)}
            for name, report in by_msu.items()
        }
        for channel_id in sorted(self.channels):
            record = self.channels[channel_id]
            if record.msu_name not in by_msu:
                continue
            where = f"{record.msu_name}: {self.NOUN} {channel_id}"
            row = rows_at[record.msu_name].get(channel_id)
            if row is None:
                self._off_air(record)
                outcome.channels_dropped += 1
                outcome.discrepancies.append(f"{where} off the air; closed")
                continue
            outcome.channels_kept += 1
            serving = dict(row[-1])
            for group_id in sorted(set(record.subscribers) - set(serving)):
                self._detach(channel_id, group_id)
                outcome.subscribers_dropped += 1
                outcome.discrepancies.append(
                    f"{where} viewer {group_id} gone; detached"
                )
            for group_id in sorted(set(serving) - set(record.subscribers)):
                record.subscribers[group_id] = serving[group_id]
                self._subscriber_groups[group_id] = channel_id
                outcome.discrepancies.append(
                    f"{where} viewer {group_id} unknown; adopted"
                )
            self._kept(record, by_msu[record.msu_name], outcome)
        for name in sorted(by_msu):
            for channel_id in sorted(set(rows_at[name]) - set(self.channels)):
                record = self._adopt(name, rows_at[name][channel_id], by_msu[name])
                self._install(record)
                self.coord.tables.claim_ids(record.group_id, record.stream_id)
                outcome.channels_adopted += 1
                outcome.discrepancies.append(
                    f"{name}: unknown {self.NOUN} {channel_id} "
                    f"({record.content_name!r}); adopted"
                )

    def _kept(self, record, report, outcome) -> None:
        """Reconcile found ``record``'s channel still running."""

    def audit(self) -> List[str]:
        """Problems where the records and both indexes disagree."""
        problems = []
        for group_id, channel_id in self._channel_groups.items():
            record = self.channels.get(channel_id)
            if record is None or record.group_id != group_id:
                problems.append(
                    f"{self.NOUN} group {group_id} maps to channel "
                    f"{channel_id} which is gone or owned by another group"
                )
        for group_id, channel_id in self._subscriber_groups.items():
            record = self.channels.get(channel_id)
            if record is None or group_id not in record.subscribers:
                problems.append(
                    f"{self.NOUN} subscriber {group_id} maps to channel "
                    f"{channel_id} which is gone or does not list it"
                )
        for channel_id, record in self.channels.items():
            if self._channel_groups.get(record.group_id) != channel_id:
                problems.append(
                    f"{self.NOUN} {channel_id}: owner group "
                    f"{record.group_id} not registered back to it"
                )
            for group_id in record.subscribers:
                if self._subscriber_groups.get(group_id) != channel_id:
                    problems.append(
                        f"{self.NOUN} {channel_id}: subscriber {group_id} "
                        f"not registered back to it"
                    )
        return problems

    # -- journal replay -------------------------------------------------------

    def _replay_subscribe(self, p: dict) -> None:
        record = self.channels.get(p["channel_id"])
        if record is not None:
            self._subscribe(record, p["group_id"], p["stream_id"])

    def _replay_merge(self, p: dict) -> None:
        group = self.coord.groups.get(p["group_id"])
        if group is not None:
            group.allocations.pop(p["stream_id"], None)
        if self._settle_patch(p["channel_id"], p["group_id"]):
            self.merges += 1

    def _replay_detach(self, p: dict) -> None:
        self._detach(p["channel_id"], p["group_id"])

    def _replay_private(self, p: dict) -> None:
        # The charge replays through its own "charge" record; this pins
        # the slot back onto the viewer's group for a later merge or end.
        group = self.coord.groups.get(p["group_id"])
        if group is not None:
            group.allocations[p["stream_id"]] = from_image(Allocation, p["alloc"])
        self._replayed_private(p)
