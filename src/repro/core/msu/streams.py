"""Per-stream MSU state: double buffers, schedules, positions (§2.2.1, §2.3).

A playback stream owns two page buffers: the network process sends from
the *front* buffer while the disk process loads the *back* one; when the
front drains the two swap.  A recording stream owns an IB-tree writer and
a queue of completed pages awaiting their disk slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.net.protocols import ProtocolModule
from repro.storage.filesystem import FileHandle
from repro.storage.ibtree import IBTreeConfig, IBTreeReader, IBTreeWriter, PacketRecord

__all__ = [
    "StreamState", "LoadedPage", "PlayStream", "ChannelStream", "PatchStream",
    "RecordStream", "RateVariant",
]


class StreamState(enum.Enum):
    """Playback life cycle."""

    LOADING = "loading"  # waiting for the first buffer / post-seek refill
    PLAYING = "playing"
    PAUSED = "paused"
    DONE = "done"


class RateVariant(enum.Enum):
    """Which file of the rate family is playing (§2.3.1)."""

    NORMAL = "normal"
    FAST_FORWARD = "fast-forward"
    FAST_BACKWARD = "fast-backward"


@dataclass
class LoadedPage:
    """One parsed data page sitting in an MSU memory buffer."""

    page_index: int
    records: List[PacketRecord]
    next_record: int = 0

    @property
    def exhausted(self) -> bool:
        return self.next_record >= len(self.records)

    def peek(self) -> Optional[PacketRecord]:
        """The next unsent record, if any."""
        if self.exhausted:
            return None
        return self.records[self.next_record]

    def advance(self) -> None:
        self.next_record += 1


class PlayStream:
    """One playback stream: a file, two buffers and a schedule anchor."""

    #: Stream-kind flags, overridden by the multicast subclasses so the
    #: IOP/MSU paths can branch without isinstance checks.
    is_channel = False
    is_patch = False
    #: Multicast channel this stream belongs to (channel/patch streams).
    channel_id: Optional[int] = None

    def __init__(
        self,
        stream_id: int,
        group_id: int,
        handle: FileHandle,
        protocol: ProtocolModule,
        rate: float,
        display_address: Tuple[str, int],
        config: IBTreeConfig = IBTreeConfig(),
    ):
        self.stream_id = stream_id
        self.group_id = group_id
        self.handle = handle
        self.protocol = protocol
        self.rate = rate
        self.display_address = display_address
        self.config = config
        self.state = StreamState.LOADING
        self.variant = RateVariant.NORMAL
        #: The normal-rate file; ``handle`` may point at a fast-scan
        #: companion after a rate switch (§2.3.1).
        self.normal_handle = handle
        #: (page_index, record_index) to start from after a seek.
        self.skip_on_page: Optional[Tuple[int, int]] = None
        #: True while a seek is walking the IB-tree: blocks refills so the
        #: disk process cannot reload the old position meanwhile.
        self.seeking = False
        #: sim time corresponding to delivery offset 0 of the current file.
        self.anchor: Optional[float] = None
        self.pause_started: Optional[float] = None
        self.next_page = 0  # next page index the disk process should load
        self.buffers: Deque[LoadedPage] = deque()  # front = buffers[0]
        self.refill_wanted = True
        self.position_us = 0  # delivery offset of the last record sent
        self.packets_sent = 0
        self.epoch = 0  # bumped by seeks/switches to drop in-flight reads
        #: True while the file is still being appended (live ingest): the
        #: stream follows the growing tail and must not be reaped as
        #: finished when it momentarily catches up with the writer.
        self.live = False

    # -- buffer protocol (network side) -----------------------------------

    @property
    def double_buffered(self) -> bool:
        """True while both buffers are resident."""
        return len(self.buffers) >= 2

    def front(self) -> Optional[LoadedPage]:
        """The page currently being transmitted."""
        while self.buffers and self.buffers[0].exhausted:
            self.buffers.popleft()
            self.refill_wanted = True
        return self.buffers[0] if self.buffers else None

    def peek_record(self) -> Optional[PacketRecord]:
        """Next record to send, if a buffer is resident."""
        page = self.front()
        return page.peek() if page is not None else None

    def deadline(self, record: PacketRecord) -> float:
        """Absolute send deadline for ``record``."""
        if self.anchor is None:
            raise RuntimeError("stream has no anchor yet")
        return self.anchor + record.delivery_us / 1e6

    @property
    def at_end(self) -> bool:
        """All pages read and all records sent."""
        if self.live:
            # A live tail-follower is only idle, never finished; the MSU
            # clears ``live`` once the ingest drains, and the stream then
            # ends at the true end of file.
            return False
        return self.next_page >= self.handle.nblocks and self.front() is None

    # -- buffer protocol (disk side) ----------------------------------------

    def wants_page(self) -> bool:
        """Whether the disk process should load another page."""
        return (
            self.state is not StreamState.DONE
            and not self.seeking
            and len(self.buffers) < 2
            and self.next_page < self.handle.nblocks
        )

    def attach_page(self, epoch: int, page_index: int, records: List[PacketRecord]) -> None:
        """Disk process delivers a parsed page (dropped if from a stale epoch)."""
        if epoch != self.epoch:
            return
        page = LoadedPage(page_index, records)
        if self.skip_on_page is not None and self.skip_on_page[0] == page_index:
            page.next_record = self.skip_on_page[1]
            self.skip_on_page = None
        self.buffers.append(page)

    # -- schedule control -----------------------------------------------------

    def start(self, now: float, first_delivery_us: int) -> None:
        """Anchor the schedule so the first record is due now."""
        self.anchor = now - first_delivery_us / 1e6
        self.state = StreamState.PLAYING

    def pause(self, now: float) -> None:
        self.state = StreamState.PAUSED
        self.pause_started = now

    def resume(self, now: float) -> None:
        if self.state is not StreamState.PAUSED:
            # A "play" can land while the stream is LOADING (mid-seek, or
            # right after a channel downgrade) or already playing/done.
            # Only PAUSED streams have a schedule to restart; promoting a
            # LOADING stream here would hand the IOP a PLAYING stream
            # with no anchor.
            return
        if self.anchor is None:
            # Paused before the first buffer anchored the schedule (e.g.
            # right after a channel downgrade): back to LOADING, and the
            # IOP anchors it once buffered, as for any fresh stream.
            self.pause_started = None
            self.state = StreamState.LOADING
            return
        if self.pause_started is not None:
            self.anchor += now - self.pause_started
            self.pause_started = None
        self.state = StreamState.PLAYING

    def flush_buffers(self) -> None:
        """Drop loaded pages (seek / rate switch) and invalidate reads."""
        self.buffers.clear()
        self.epoch += 1
        self.refill_wanted = True

    def reader(self) -> IBTreeReader:
        """An IB-tree reader over the current file."""
        return IBTreeReader(self.handle, self.config)


class ChannelStream(PlayStream):
    """A multicast channel's shared stream: one schedule, many receivers.

    ``display_address`` is a multicast group address; the network fans
    each packet out to every subscribed member.  Subscribers join and
    leave without touching the schedule anchor — the whole point is that
    one duty-cycle slot and one paced schedule serve all of them.
    """

    is_channel = True

    def __init__(self, *args, channel_id: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        self.channel_id = channel_id
        #: viewer group_id -> (stream_id, unicast display address).
        self.subscribers: Dict[int, Tuple[int, Tuple[str, int]]] = {}
        #: Set on the first subscribe, so an emptied channel can be told
        #: apart from one whose subscribers have not attached yet.
        self.ever_subscribed = False
        #: Per-subscriber delivery accounting: one count per (packet,
        #: subscriber) pair actually fanned out.
        self.fanout_packets = 0

    def subscribe(
        self, group_id: int, stream_id: int, address: Tuple[str, int]
    ) -> None:
        self.subscribers[group_id] = (stream_id, address)
        self.ever_subscribed = True

    def unsubscribe(self, group_id: int) -> None:
        self.subscribers.pop(group_id, None)

    @property
    def idle(self) -> bool:
        """Every subscriber left after at least one had joined."""
        return self.ever_subscribed and not self.subscribers


class PatchStream(PlayStream):
    """A joiner's bounded unicast patch: pages ``[start_page, end_page)``.

    Ends as soon as the missed window has been delivered — the viewer
    then lives entirely on the multicast channel it subscribed to.  A
    late VoD joiner patches the opening prefix (``start_page`` 0); a
    rewound live viewer patches a slice of the time-shift ring and
    re-merges with the live fan-out the same way.
    """

    is_patch = True

    def __init__(
        self, *args, end_page: int = 0, channel_id: int = 0,
        start_page: int = 0, **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.channel_id = channel_id
        self.end_page = min(max(1, end_page), self.handle.nblocks)
        if start_page > 0:
            # Clamp into the resident window of a ring-trimmed file.
            self.next_page = min(
                max(start_page, self.handle.trimmed), self.end_page
            )

    def wants_page(self) -> bool:
        return (
            self.state is not StreamState.DONE
            and not self.seeking
            and len(self.buffers) < 2
            and self.next_page < self.end_page
        )

    @property
    def at_end(self) -> bool:
        return self.next_page >= self.end_page and self.front() is None


class RecordStream:
    """One recording stream: a protocol context, a writer, pending pages."""

    def __init__(
        self,
        stream_id: int,
        group_id: int,
        handle: FileHandle,
        protocol: ProtocolModule,
        config: IBTreeConfig = IBTreeConfig(),
    ):
        self.stream_id = stream_id
        self.group_id = group_id
        self.handle = handle
        self.protocol = protocol
        self.config = config
        self.writer = IBTreeWriter(config)
        self.context: Dict = protocol.new_context()
        self.started: Optional[float] = None
        self.pending_pages: Deque[bytes] = deque()
        self.finishing = False
        self.finished = False
        self._final_root: Optional[Tuple[int, int, int]] = None
        self.packets_received = 0
        self.last_delivery_us = 0

    def accept(self, payload: bytes, now: float) -> None:
        """Record one arriving packet (assigns its delivery time)."""
        if self.started is None:
            self.started = now
        arrival_us = int((now - self.started) * 1e6)
        kind = self.protocol.classify(payload, self.context)
        delivery_us = self.protocol.delivery_time_us(payload, arrival_us, self.context)
        # Guard against clock skew between header timestamps and arrivals:
        # delivery offsets are non-decreasing in the IB-tree.
        delivery_us = max(delivery_us, self.last_delivery_us)
        self.last_delivery_us = delivery_us
        page = self.writer.feed(PacketRecord(delivery_us, payload, kind))
        self.packets_received += 1
        if page is not None:
            self.pending_pages.append(page)

    def begin_finish(self) -> None:
        """Client quit: emit trailer pages and mark for completion."""
        if self.finishing:
            return
        self.finishing = True
        pages, root = self.writer.finish()
        self.pending_pages.extend(pages)
        # The root references the trailer pages just queued; it is only
        # installed once they are actually on disk (commit_root), so a
        # crash mid-drain never leaves metadata pointing past EOF.
        self._final_root = root

    def commit_root(self) -> None:
        """Install the tree root: every page it references is on disk."""
        self.handle.root = self._final_root

    def abort(self) -> None:
        """No space for the remaining pages: truncate the recording here.

        The pages already on disk stay readable; the root is withheld
        (it would reference pages that never landed) and the normal
        drain path completes the stream as a short recording.
        """
        self.finishing = True
        self.pending_pages.clear()
        self._final_root = None

    @property
    def drained(self) -> bool:
        """True once every page has been handed to the disk process."""
        return self.finishing and not self.pending_pages
