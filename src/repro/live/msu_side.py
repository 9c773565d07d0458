"""The MSU side of live TV: ingest, time-shift rings and rewind-live.

A live channel is a multicast channel whose file is recorded as it
plays.  :class:`MsuLive` handles ``LiveOpen`` and ``LiveStop`` and owns
``Msu.live``; the core MSU calls it for viewer VCR commands, recorded
pages and the ingest draining.  As an
:class:`~repro.core.msu.parts.MsuPart` it forgets its channels when the
MSU halts, deleting their time-shift rings with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.msu.msu import GroupState, Msu
from repro.core.msu.parts import MsuPart
from repro.core.msu.streams import PatchStream, RecordStream
from repro.net import messages as m
from repro.storage.filesystem import FileHandle

__all__ = ["LiveState", "MsuLive"]


@dataclass
class LiveState:
    """MSU-side state of one live channel's ingest + time-shift ring."""

    channel_id: int
    record: RecordStream
    handle: FileHandle
    #: Ring window size in data pages; 0 keeps every page (a scheduled
    #: recording that becomes ordinary VoD when the channel signs off).
    ring_blocks: int
    #: viewer group_id -> live-edge page noted when they paused.
    paused: Dict[int, int] = field(default_factory=dict)
    rewinds: int = 0
    rewind_hits: int = 0
    trims: int = 0
    pages_trimmed: int = 0


class MsuLive(MsuPart):
    """One MSU's live channels."""

    def __init__(self, msu: Msu):
        self.msu = msu
        msu.live_part = self
        #: Live channels layered on ``Msu.channels`` (``Msu.live``).
        self.channels: Dict[int, LiveState] = {}
        msu.live = self.channels
        #: ingest stream id -> live channel id (ring-trim dispatch).
        self._by_record: Dict[int, int] = {}
        #: content name -> disk id of each time-shift ring still on disk.
        self.rings: Dict[str, str] = {}
        msu.handlers[m.LiveOpen] = self.open
        msu.handlers[m.LiveStop] = self.stop

    def open(self, msg: m.LiveOpen) -> None:
        """Start a live channel: one ingest stream, one fan-out stream.

        The broadcaster's packets append to a growing file while the
        channel stream follows the tail (``live`` keeps it from being
        reaped when it momentarily catches the writer); viewers attach
        through the ordinary :class:`~repro.net.messages.ChannelSubscribe`
        path.  ``ring_blocks`` > 0 turns the file into a time-shift ring:
        pages older than the window are reclaimed as new ones land.
        """
        msu = self.msu
        # The broadcaster sends media to the recording's fresh port.
        record, socket = msu._new_recording(
            msg, msg.ingest_stream_id, msg.ingest_group_id
        )
        ingest_group = msu._group_for(msg.ingest_group_id, msg.source_host, 1)
        msu.multicast_part.open(msg, record.handle, live=True)
        self.channels[msg.channel_id] = LiveState(
            msg.channel_id, record, record.handle, msg.ring_blocks
        )
        self._by_record[msg.ingest_stream_id] = msg.channel_id
        if msg.ring_blocks > 0:
            self.rings[msg.content_name] = msg.disk_id
        msu._attach(record, ingest_group, msg.disk_id, socket)
        msu.streams_served += 2
        msu._trace("live-open", msg.content_name,
                   f"channel={msg.channel_id} disk={msg.disk_id} "
                   f"ring={msg.ring_blocks}")
        msu._send_ready(ingest_group, msg.ingest_stream_id, msg.content_name,
                        record_address=socket.address)

    def stop(self, msg: m.LiveStop) -> None:
        """Coordinator takes the channel off the air (EPG slot over)."""
        live = self.channels.get(msg.channel_id)
        if live is None or live.record.finishing:
            return
        live.record.begin_finish()
        self.msu._kick_disk_for(live.record)

    def on_page_written(self, stream: RecordStream) -> None:
        """A recorded page landed: reclaim ring pages past the window.

        Never trims under an active reader: the duty cycle bumps a
        reader's ``next_page`` before its read completes, so the floor
        stays two pages below the slowest tail-follower on this handle.
        """
        live = self.channels.get(self._by_record.get(stream.stream_id))
        if live is None or live.ring_blocks <= 0:
            return
        handle = live.handle
        if handle.live_span <= live.ring_blocks:
            return
        floor = handle.nblocks - live.ring_blocks
        proc = self.msu._stream_disk.get(stream.stream_id)
        if proc is None:
            return
        for reader in proc.play_streams:
            if reader.handle is handle:
                floor = min(floor, max(0, reader.next_page - 2))
        if floor <= handle.trimmed:
            return
        freed = proc.fs.trim_file_front(handle, floor)
        if freed:
            live.trims += 1
            live.pages_trimmed += freed
            if self.msu.cache is not None:
                self.msu.cache.invalidate((proc.disk_id, handle.name))

    def ingest_drained(self, stream: RecordStream) -> None:
        """A live ingest signed off: the fan-out stream stops following
        the tail and drains to the (now final) end of file."""
        ch = self.msu.channels.get(self._by_record.pop(stream.stream_id, None))
        if ch is None:
            return
        ch.stream.live = False
        self.msu._kick_disk_for(ch.stream)
        self.msu.iop.wakeup.set()

    def apply_vcr(self, group: GroupState, live: LiveState,
                  msg: m.VcrCommand) -> None:
        """Pause-live / rewind-live for one viewer of a live channel.

        The shared fan-out never pauses; the viewer's time shift rides a
        bounded unicast patch over the ring window (multicast's patch
        machinery), after which they live on the multicast again.
        """
        msu = self.msu
        ch = msu.channels.get(live.channel_id)
        entry = ch.subscribers.get(group.group_id) if ch is not None else None
        if entry is None:
            return
        stream_id, address = entry
        handle = live.handle
        edge = handle.nblocks
        if msg.command == m.VCR_PAUSE:
            live.paused[group.group_id] = edge
            msu._trace("live-pause", f"group={group.group_id}",
                       f"channel={live.channel_id} page={edge}")
            return
        if msg.command == m.VCR_PLAY:
            want = live.paused.pop(group.group_id, None)
            if want is None:
                return
        elif msg.command == m.VCR_REWIND:
            base = live.paused.pop(group.group_id, edge)
            started = live.record.started
            elapsed = max(1e-9, msu.sim.now - (started or msu.sim.now))
            pages_per_sec = edge / elapsed
            want = base - max(1, int(msg.position_seconds * pages_per_sec))
        else:
            return  # seek/scan have no meaning against a growing tail
        if edge == 0:
            return
        hit = want >= handle.trimmed
        start = min(max(want, handle.trimmed), edge)
        if start >= edge:
            return  # nothing missed (paused for under a page's worth)
        live.rewinds += 1
        live.rewind_hits += hit
        # A newer time shift replaces any patch still draining.
        msu._end_patches(group)
        patch = PatchStream(
            stream_id, group.group_id,
            msu.filesystems[ch.disk_id].open(ch.content_name),
            ch.stream.protocol, ch.stream.rate, address, msu.ibtree_config,
            end_page=edge, channel_id=live.channel_id, start_page=start,
        )
        msu._attach(patch, group, ch.disk_id)
        msu.streams_served += 1
        msu._tell_coordinator(
            m.LiveRewound(live.channel_id, group.group_id, stream_id,
                          start, edge, hit=hit)
        )
        msu._trace("live-rewind", f"group={group.group_id}",
                   f"channel={live.channel_id} pages=[{start},{edge}) "
                   f"hit={hit}")

    def forget(self, channel_id: Optional[int]) -> None:
        """Drop a closing channel's live-channel bookkeeping, if any."""
        live = self.channels.pop(channel_id, None)
        if live is not None:
            self._by_record.pop(live.record.stream_id, None)

    def file_deleted(self, disk_id: str, content_name: str) -> None:
        if self.rings.get(content_name) == disk_id:
            del self.rings[content_name]

    def halt(self, cause: str) -> None:
        """Forget every live channel and delete every ring.

        A pure-live ring has no afterlife, and the Coordinator that would
        send its ``DeleteFile`` has written the channel off (or will, when
        it sees the halt), including one whose fan-out drained while the
        MSU was cut off from it.  A trimmed ring is never persisted
        (``FileSystem._serialize``), so no metadata sync follows.
        """
        self.channels.clear()
        self._by_record.clear()
        for content_name, disk_id in sorted(self.rings.items()):
            self.msu.unlink(disk_id, content_name)
