"""The Multimedia Storage Unit: hardware, file systems, processes (§2.3).

An MSU is one PC with disks, an interface to the intra-server network and
an interface to the high-speed delivery network.  It runs a disk process
per disk, a network process (IOP) for the delivery interface, and a
central control process handling RPCs from the Coordinator and VCR
commands from clients.

The MSU also exposes the *administrative interface* of §2.3.1 (the
``admin_*`` methods): pre-loading content and installing the offline
fast-forward / fast-backward companion files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Set

from repro.cache.manager import CacheConfig, MsuPageCache
from repro.core.msu.disk_process import DiskProcess
from repro.core.msu.network_process import NetworkProcess
from repro.core.msu.streams import (
    ChannelStream,
    PatchStream,
    PlayStream,
    RateVariant,
    RecordStream,
    StreamState,
)
from repro.core.msu.vcr import seek_stream, switch_variant
from repro.errors import StorageError, VCRError
from repro.hardware.machine import Machine
from repro.hardware.params import FDDI, MachineParams
from repro.net import messages as m
from repro.net.network import ControlChannel, Host, Network
from repro.net.protocols import ProtocolRegistry, default_registry
from repro.sim import Simulator
from repro.storage.filesystem import FileHandle, MsuFileSystem
from repro.storage.ibtree import IBTreeConfig, IBTreeWriter, PacketRecord
from repro.storage.layout import SpanVolume, StripedVolume
from repro.storage.raw_disk import RawDisk

__all__ = ["Msu", "GroupState", "ChannelState"]


@dataclass
class GroupState:
    """One stream group: members sharing VCR control (§2.2)."""

    group_id: int
    client_host: str
    expected: int
    channel: Optional[ControlChannel] = None
    play_streams: List[PlayStream] = field(default_factory=list)
    record_streams: List[RecordStream] = field(default_factory=list)
    finished: Set[int] = field(default_factory=set)
    quitting: bool = False
    #: Multicast channel this group subscribes to, if any.
    channel_id: Optional[int] = None

    @property
    def members(self) -> int:
        return len(self.play_streams) + len(self.record_streams)

    @property
    def all_done(self) -> bool:
        return self.members > 0 and len(self.finished) >= self.members


@dataclass
class ChannelState:
    """MSU-side state of one multicast channel."""

    channel_id: int
    stream: ChannelStream
    group: GroupState      # the channel stream's own (server-internal) group
    disk_id: str
    content_name: str
    mcast_host: str
    #: viewer group_id -> (stream_id, unicast display address).
    subscribers: Dict[int, tuple] = field(default_factory=dict)


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


class Msu:
    """One Multimedia Storage Unit."""

    DATA_PORT = 4000

    def __init__(
        self,
        sim: Simulator,
        name: str,
        delivery_net: Network,
        machine_params: Optional[MachineParams] = None,
        seed: int = 0,
        protocols: Optional[ProtocolRegistry] = None,
        ibtree_config: IBTreeConfig = IBTreeConfig(),
        client_channel_factory: Optional[Callable] = None,
        striped: bool = False,
        cache_config: Optional[CacheConfig] = None,
        heartbeat_period: float = 0.0,
    ):
        self.sim = sim
        self.name = name
        params = machine_params or MachineParams(name=name)
        if params.name != name:
            params = MachineParams(
                name=name, disk=params.disk, scsi=params.scsi, memory=params.memory,
                cpu=params.cpu, timer=params.timer,
                disks_per_hba=params.disks_per_hba, ram_bytes=params.ram_bytes,
            )
        self.machine = Machine(sim, params, seed=seed)
        self.nic = self.machine.add_nic(FDDI)
        self.host = Host(sim, delivery_net, name, machine=self.machine, nic=self.nic)
        self.protocols = protocols or default_registry()
        self.ibtree_config = ibtree_config
        #: cluster-supplied: (client_host, group_id) -> ControlChannel.
        self.client_channel_factory = client_channel_factory
        # Per-disk file systems (the paper's MSU does not stripe, §2.3.3);
        # ``striped=True`` builds the §2.3.3 alternative: one file system
        # whose consecutive blocks land on "adjacent" disks, served by a
        # single duty cycle covering all disks.
        self.striped = striped
        # Optional interval/prefix page cache (extension): one pool shared
        # by every disk process; None reproduces the paper's no-cache MSU.
        self.cache = MsuPageCache(cache_config) if cache_config is not None else None
        self.filesystems: Dict[str, MsuFileSystem] = {}
        self.disk_processes: Dict[str, DiskProcess] = {}
        if striped:
            raws = [RawDisk(drive) for drive in self.machine.disks]
            fs = MsuFileSystem(
                StripedVolume(raws, ibtree_config.data_page_size)
            )
            disk_id = f"{name}.striped"
            self.filesystems[disk_id] = fs
            self.disk_processes[disk_id] = DiskProcess(
                sim, fs, disk_id,
                on_page_loaded=self._on_page_loaded,
                on_record_drained=self._on_record_drained,
                on_page_written=self._on_page_written,
                cache=self.cache,
            )
        else:
            for drive in self.machine.disks:
                raw = RawDisk(drive)
                fs = MsuFileSystem(SpanVolume(raw, ibtree_config.data_page_size))
                self.filesystems[drive.name] = fs
                self.disk_processes[drive.name] = DiskProcess(
                    sim, fs, drive.name,
                    on_page_loaded=self._on_page_loaded,
                    on_record_drained=self._on_record_drained,
                    on_page_written=self._on_page_written,
                    cache=self.cache,
                )
        self.data_socket = self.host.bind(self.DATA_PORT)
        self.iop = NetworkProcess(
            sim, self.data_socket, self.machine.timer,
            on_stream_done=self._on_play_done,
        )
        self.iop.disk_kick = self._kick_disk_for
        self.groups: Dict[int, GroupState] = {}
        #: Active multicast channels, by channel id.
        self.channels: Dict[int, ChannelState] = {}
        #: Live channels layered on top of ``channels``, by channel id.
        self.live: Dict[int, LiveState] = {}
        #: ingest stream id -> live channel id (ring-trim dispatch).
        self._live_by_record: Dict[int, int] = {}
        self._stream_disk: Dict[int, DiskProcess] = {}
        self._stream_group: Dict[int, GroupState] = {}
        self.coordinator_channel: Optional[ControlChannel] = None
        self.up = True
        self.streams_served = 0
        #: Streams restarted mid-file by a failover ResumePlay.
        self.streams_resumed = 0
        #: Seconds between Heartbeat messages to the Coordinator
        #: (0 disables them: the paper's TCP-break detection only).
        self.heartbeat_period = heartbeat_period
        #: Optional structured event log (repro.metrics.tracing.Tracer).
        self.tracer = None
        self._cache_report_proc = None
        self._heartbeat_proc = None

    def _trace(self, category: str, subject, detail: str = "") -> None:
        if self.tracer is not None:
            self.tracer.record(self.name, category, subject, detail)

    # -- wiring callbacks -------------------------------------------------------

    def _on_page_loaded(self, stream: PlayStream) -> None:
        self.iop.wakeup.set()

    def _kick_disk_for(self, stream) -> None:
        proc = self._stream_disk.get(stream.stream_id)
        if proc is not None:
            proc.wakeup.set()

    # -- coordinator control channel ----------------------------------------------

    def attach_coordinator(self, channel: ControlChannel) -> None:
        """Connect to the Coordinator and announce disks (§2.2 MsuHello)."""
        stale = self.coordinator_channel
        if stale is not None and stale is not channel and stale.open:
            stale.close()  # a restarted Coordinator replaces the old link
        self.coordinator_channel = channel
        disks = tuple(
            (disk_id, fs.allocator.free_blocks)
            for disk_id, fs in sorted(self.filesystems.items())
        )
        cache_bps = self.cache.config.bandwidth if self.cache is not None else 0.0
        channel.send(
            self.name, m.MsuHello(self.name, disks, cache_bps=cache_bps),
            nbytes=m.WIRE_BYTES,
        )
        self.sim.process(self._control_loop(), name=f"{self.name}.ctl")
        if self.cache is not None:
            self._cache_report_proc = self.sim.process(
                self._cache_report_loop(channel), name=f"{self.name}.cachereport"
            )
        if self.heartbeat_period > 0:
            self._heartbeat_proc = self.sim.process(
                self._heartbeat_loop(channel), name=f"{self.name}.heartbeat"
            )

    def _control_loop(self) -> Generator:
        channel = self.coordinator_channel
        while True:
            msg = yield channel.recv(self.name)
            if msg is None:
                # A stale channel replaced during rejoin closes late; only
                # a break on the *current* channel is a Coordinator loss.
                # The MSU survives it: streams keep playing unsupervised
                # until a restarted Coordinator re-attaches and reconciles.
                if self.up and self.coordinator_channel is channel:
                    self.coordinator_channel = None
                return
            if not self.up or self.coordinator_channel is not channel:
                # A frozen machine processes nothing: a request that raced
                # with a hang is lost with the rest of the MSU's state, or
                # else the MSU would install streams (e.g. a failover
                # ResumePlay) while officially dead and still hold them
                # after rejoining — the same group alive on two MSUs.
                return
            if isinstance(msg, m.ReportState):
                channel.send(self.name, self.state_report(), nbytes=m.WIRE_BYTES)
            elif isinstance(msg, m.ScheduleRead):
                self._schedule_read(msg)
            elif isinstance(msg, m.ChannelCreate):
                self._create_channel(msg)
            elif isinstance(msg, m.ChannelSubscribe):
                self._channel_subscribe(msg)
            elif isinstance(msg, m.LiveOpen):
                self._open_live(msg)
            elif isinstance(msg, m.LiveStop):
                self._stop_live(msg)
            elif isinstance(msg, m.ResumePlay):
                self._resume_play(msg)
            elif isinstance(msg, m.ScheduleRecord):
                self._schedule_record(msg)
            elif isinstance(msg, m.PinPrefix):
                if self.cache is not None:
                    self.sim.process(
                        self._pin_prefix(msg), name=f"{self.name}.pin"
                    )
            elif isinstance(msg, m.DeleteFile):
                fs = self.filesystems.get(msg.disk_id)
                if fs is not None and fs.exists(msg.content_name):
                    fs.delete(msg.content_name)
                    if self.cache is not None:
                        self.cache.invalidate((msg.disk_id, msg.content_name))
                    # Deletes are durable: a remount must not resurrect
                    # a torn-down live ring as an orphan file.
                    self.sim.process(
                        fs.sync_metadata(), name=f"{self.name}.sync"
                    )

    def state_report(self) -> m.StateReport:
        """Answer a restarted Coordinator's ``ReportState`` probe.

        Everything the MSU is serving *right now*: active streams by
        group (channel-own groups excluded — they travel as channels),
        multicast channels with their subscriber sets, pinned prefixes,
        and allocator free-block truth.  Recovery treats this as
        authoritative (MSU-wins reconciliation).
        """
        disks = tuple(
            (disk_id, fs.allocator.free_blocks)
            for disk_id, fs in sorted(self.filesystems.items())
        )
        cache_bps = self.cache.config.bandwidth if self.cache is not None else 0.0
        channel_groups = {ch.group.group_id for ch in self.channels.values()}
        streams = []
        for group_id in sorted(self.groups):
            group = self.groups[group_id]
            if group_id in channel_groups:
                continue
            for stream in group.play_streams:
                if stream.stream_id in group.finished:
                    continue
                proc = self._stream_disk.get(stream.stream_id)
                streams.append((
                    group_id, stream.stream_id, stream.handle.name,
                    proc.disk_id if proc is not None else "",
                    "patch" if stream.is_patch else "play", stream.rate,
                ))
            for stream in group.record_streams:
                if stream.stream_id in group.finished:
                    continue
                proc = self._stream_disk.get(stream.stream_id)
                streams.append((
                    group_id, stream.stream_id, stream.handle.name,
                    proc.disk_id if proc is not None else "",
                    "record", 0.0,
                ))
        channels = []
        live_channels = []
        for channel_id in sorted(self.channels):
            ch = self.channels[channel_id]
            members = tuple(sorted(
                (gid, sid) for gid, (sid, _addr) in ch.subscribers.items()
            ))
            if channel_id in self.live:
                # Live channels travel in their own field: the multicast
                # reconciler must not adopt them as VoD channels.
                live_channels.append((
                    channel_id, ch.group.group_id, ch.stream.stream_id,
                    ch.content_name, ch.disk_id, ch.stream.rate, members,
                ))
                continue
            channels.append((
                channel_id, ch.group.group_id, ch.stream.stream_id,
                ch.content_name, ch.disk_id, members,
            ))
        pins = ()
        if self.cache is not None:
            pins = tuple(sorted(
                (disk_id, content, pages)
                for (disk_id, content), pages
                in self.cache.prefix.pinned_titles().items()
            ))
        return m.StateReport(
            self.name, disks=disks, cache_bps=cache_bps,
            streams=tuple(streams), channels=tuple(channels), pins=pins,
            live_channels=tuple(live_channels),
        )

    # -- page-cache plumbing (extension) ----------------------------------------------

    def _pin_prefix(self, msg: m.PinPrefix) -> Generator:
        """Read a hot title's opening pages into the prefix cache.

        The reads go through the file system like any other disk access,
        so pinning contends with (and is paced by) the duty cycle — a
        one-time cost paid when the Coordinator declares the title hot.
        """
        fs = self.filesystems.get(msg.disk_id)
        if fs is None or not fs.exists(msg.content_name):
            return
        handle = fs.open(msg.content_name)
        key = (msg.disk_id, msg.content_name)
        pinned = 0
        for index in range(min(msg.pages, handle.nblocks)):
            if self.cache.prefix.is_pinned(key, index):
                continue
            data = yield from fs.read_file_block(handle, index)
            if not self.cache.pin_prefix(key, index, data):
                break
            pinned += 1
        self._trace("prefix-pin", msg.content_name, f"pages={pinned}")

    def _cache_report_loop(self, channel: ControlChannel) -> Generator:
        """Periodically report cache-served bandwidth to the Coordinator."""
        period = self.cache.config.report_period
        while self.up and channel.open:
            yield self.sim.timeout(period)
            if not self.up or not channel.open:
                return
            snap = self.cache.snapshot()
            channel.send(
                self.name,
                m.CacheReport(
                    self.name, snap.hits, snap.misses, snap.bytes_served,
                    snap.slots_saved, snap.pool_used, snap.pool_capacity,
                ),
                nbytes=m.WIRE_BYTES,
            )

    def _heartbeat_loop(self, channel: ControlChannel) -> Generator:
        """Beat periodically, carrying every playback stream's position.

        The position (current buffered page and media time) is what lets
        the Coordinator's migrator resume the stream on a replica with a
        bounded gap instead of restarting it from the beginning.
        """
        seq = 0
        while self.up and channel.open:
            positions = tuple(
                (
                    stream.group_id,
                    stream.stream_id,
                    stream.buffers[0].page_index
                    if stream.buffers else max(0, stream.next_page - 1),
                    stream.position_us,
                )
                for stream in self.iop.play_streams
            )
            # Channel subscribers ride the shared stream: report each at
            # the channel's position (everything before it has been
            # delivered to them via patch + fan-out), *after* the raw
            # stream entries so a subscriber's channel position overrides
            # its patch stream's — a migration resumes from the channel
            # front, not from inside the already-delivered prefix.
            for ch in self.channels.values():
                page = (
                    ch.stream.buffers[0].page_index
                    if ch.stream.buffers else max(0, ch.stream.next_page - 1)
                )
                positions += tuple(
                    (group_id, stream_id, page, ch.stream.position_us)
                    for group_id, (stream_id, _addr) in sorted(
                        ch.subscribers.items()
                    )
                )
            seq += 1
            channel.send(
                self.name, m.Heartbeat(self.name, seq, positions),
                nbytes=m.WIRE_BYTES,
            )
            yield self.sim.timeout(self.heartbeat_period)

    # -- scheduling (RPCs from the Coordinator) --------------------------------------

    def _group_for(self, group_id: int, client_host: str, expected: int) -> GroupState:
        group = self.groups.get(group_id)
        if group is None:
            group = GroupState(group_id, client_host, expected)
            self.groups[group_id] = group
            if self.client_channel_factory is not None:
                group.channel = self.client_channel_factory(client_host, group_id)
                self.sim.process(
                    self._vcr_loop(group), name=f"{self.name}.vcr{group_id}"
                )
        return group

    def _schedule_read(self, msg: m.ScheduleRead) -> None:
        # start_page > 0: an edge proxy serves the opening pages, the
        # MSU tail stream picks up at the splice.
        self._install_play(msg, start_page=msg.start_page, label="play")

    def _resume_play(self, msg: m.ResumePlay) -> None:
        """Pick up a migrated stream from its last reported position."""
        self.streams_resumed += 1
        self._install_play(
            msg, start_page=msg.start_page, start_us=msg.start_us, label="resume"
        )

    def _install_play(
        self, msg, start_page: int = 0, start_us: int = 0, label: str = "play"
    ) -> None:
        fs = self.filesystems[msg.disk_id]
        handle = fs.open(msg.content_name)
        stream = PlayStream(
            msg.stream_id, msg.group_id, handle,
            self.protocols.get(msg.protocol), msg.rate, msg.display_address,
            self.ibtree_config,
        )
        if start_page:
            # Clamp into the file so a stream that died at its very last
            # page still loads something and terminates normally.
            stream.next_page = max(0, min(start_page, handle.nblocks - 1))
        if start_us:
            stream.position_us = start_us
        group = self._group_for(msg.group_id, msg.client_host, msg.group_size)
        group.play_streams.append(stream)
        self._stream_disk[msg.stream_id] = self.disk_processes[msg.disk_id]
        self._stream_group[msg.stream_id] = group
        self.disk_processes[msg.disk_id].add_play(stream)
        self.iop.add_play(stream)
        self.streams_served += 1
        self._trace(label, msg.content_name,
                    f"group={msg.group_id} stream={msg.stream_id} disk={msg.disk_id}")
        if group.channel is not None:
            group.channel.send(
                self.name,
                m.StreamReady(
                    msg.group_id, self.name, msg.stream_id, msg.content_name,
                    group_size=group.expected,
                ),
                nbytes=m.WIRE_BYTES,
            )

    def _schedule_record(self, msg: m.ScheduleRecord) -> None:
        fs = self.filesystems[msg.disk_id]
        handle = fs.create(msg.content_name, "", reserve_blocks=msg.reserve_blocks)
        stream = RecordStream(
            msg.stream_id, msg.group_id, handle,
            self.protocols.get(msg.protocol), self.ibtree_config,
        )
        socket = self.host.bind()  # a fresh port for this recording
        group = self._group_for(msg.group_id, msg.client_host, msg.group_size)
        group.record_streams.append(stream)
        self._stream_disk[msg.stream_id] = self.disk_processes[msg.disk_id]
        self._stream_group[msg.stream_id] = group
        self.disk_processes[msg.disk_id].add_record(stream)
        self.iop.add_record(stream, socket)
        self.streams_served += 1
        self._trace("record", msg.content_name,
                    f"group={msg.group_id} stream={msg.stream_id} disk={msg.disk_id}")
        if group.channel is not None:
            group.channel.send(
                self.name,
                m.StreamReady(
                    msg.group_id, self.name, msg.stream_id, msg.content_name,
                    group_size=group.expected, record_address=socket.address,
                ),
                nbytes=m.WIRE_BYTES,
            )

    # -- multicast channels (extension) -----------------------------------------------

    def _create_channel(self, msg: m.ChannelCreate) -> None:
        """Open one shared disk stream whose packets go to a group address."""
        fs = self.filesystems[msg.disk_id]
        handle = fs.open(msg.content_name)
        stream = ChannelStream(
            msg.stream_id, msg.group_id, handle,
            self.protocols.get(msg.protocol), msg.rate,
            tuple(msg.mcast_address), self.ibtree_config,
            channel_id=msg.channel_id,
        )
        # A server-internal group: no client host, no VCR connection.
        group = GroupState(msg.group_id, "", 1)
        self.groups[msg.group_id] = group
        group.play_streams.append(stream)
        self._stream_disk[msg.stream_id] = self.disk_processes[msg.disk_id]
        self._stream_group[msg.stream_id] = group
        self.channels[msg.channel_id] = ChannelState(
            msg.channel_id, stream, group, msg.disk_id,
            msg.content_name, msg.mcast_address[0],
        )
        self.disk_processes[msg.disk_id].add_play(stream)
        self.iop.add_play(stream)
        self.streams_served += 1
        self._trace("channel", msg.content_name,
                    f"channel={msg.channel_id} group={msg.group_id} "
                    f"disk={msg.disk_id}")

    def _channel_subscribe(self, msg: m.ChannelSubscribe) -> None:
        """Attach a viewer to a channel, with an optional patch stream."""
        ch = self.channels.get(msg.channel_id)
        group = self._group_for(msg.group_id, msg.client_host, 1)
        if ch is None:
            # The channel completed between scheduling and arrival; tell
            # everyone so neither side waits on a ghost subscription.
            if group.channel is not None:
                group.channel.send(
                    self.name,
                    m.StreamReady(msg.group_id, self.name, msg.stream_id),
                    nbytes=m.WIRE_BYTES,
                )
                group.channel.send(
                    self.name, m.EndOfStream(msg.group_id, msg.stream_id),
                    nbytes=m.WIRE_BYTES,
                )
            self._notify_terminated(group, msg.stream_id, "channel-gone")
            self._close_subscriber_group(group, msg.stream_id)
            return
        address = tuple(msg.display_address)
        group.channel_id = msg.channel_id
        ch.subscribers[msg.group_id] = (msg.stream_id, address)
        ch.stream.subscribe(msg.group_id, msg.stream_id, address)
        self.host.network.join_group(ch.mcast_host, address)
        self._stream_group[msg.stream_id] = group
        if msg.patch_end_page > 0:
            fs = self.filesystems[ch.disk_id]
            patch = PatchStream(
                msg.stream_id, msg.group_id, fs.open(ch.content_name),
                ch.stream.protocol, ch.stream.rate, address,
                self.ibtree_config,
                end_page=msg.patch_end_page, channel_id=msg.channel_id,
            )
            group.play_streams.append(patch)
            self._stream_disk[msg.stream_id] = self.disk_processes[ch.disk_id]
            self.disk_processes[ch.disk_id].add_play(patch)
            self.iop.add_play(patch)
        self.streams_served += 1
        self._trace("subscribe", ch.content_name,
                    f"channel={msg.channel_id} group={msg.group_id} "
                    f"patch={msg.patch_end_page}")
        if group.channel is not None:
            group.channel.send(
                self.name,
                m.StreamReady(
                    msg.group_id, self.name, msg.stream_id, ch.content_name,
                    group_size=group.expected,
                ),
                nbytes=m.WIRE_BYTES,
            )

    def _detach_subscriber(self, group: GroupState) -> Optional[int]:
        """Drop a group's channel membership; returns its stream id.

        Closes the channel early ("channel-idle") when the last
        subscriber leaves — nobody is listening to the fan-out anymore.
        """
        channel_id, group.channel_id = group.channel_id, None
        ch = self.channels.get(channel_id) if channel_id is not None else None
        if ch is None:
            return None
        entry = ch.subscribers.pop(group.group_id, None)
        if entry is None:
            return None
        stream_id, address = entry
        ch.stream.unsubscribe(group.group_id)
        self.host.network.leave_group(ch.mcast_host, address)
        if ch.channel_id in self.live:
            self.live[ch.channel_id].paused.pop(group.group_id, None)
        if ch.stream.idle and not ch.stream.live:
            # A live channel stays on the air with zero viewers — the
            # next surfer tunes straight in; only VoD channels close
            # when their audience is gone.
            self._close_channel(ch, "channel-idle")
        return stream_id

    def _close_channel(self, ch: ChannelState, reason: str) -> None:
        """Tear down a channel stream and report its termination."""
        self.channels.pop(ch.channel_id, None)
        self._forget_live(ch.channel_id)
        stream = ch.stream
        stream.state = StreamState.DONE
        self.iop.remove(stream)
        proc = self._stream_disk.pop(stream.stream_id, None)
        if proc is not None:
            proc.remove(stream)
        self.groups.pop(ch.group.group_id, None)
        self._stream_group.pop(stream.stream_id, None)
        self._notify_terminated(ch.group, stream.stream_id, reason)
        self._trace("channel-close", ch.content_name,
                    f"channel={ch.channel_id} reason={reason} "
                    f"fanout={stream.fanout_packets}")

    def _close_subscriber_group(
        self, group: GroupState, stream_id: Optional[int] = None
    ) -> None:
        """Forget a subscriber group (its streams are already gone)."""
        self.groups.pop(group.group_id, None)
        if stream_id is not None:
            self._stream_group.pop(stream_id, None)
        if group.channel is not None and group.channel.open:
            group.channel.close()

    def _forget_live(self, channel_id: Optional[int]) -> None:
        """Drop a closing channel's live-channel bookkeeping, if any."""
        live = self.live.pop(channel_id, None)
        if live is not None:
            self._live_by_record.pop(live.record.stream_id, None)

    def _channel_complete(self, stream: ChannelStream) -> None:
        """The channel played its file to the end: finish every viewer."""
        ch = self.channels.pop(stream.channel_id, None)
        self._forget_live(stream.channel_id)
        if ch is None:
            return
        self.groups.pop(ch.group.group_id, None)
        self._stream_group.pop(stream.stream_id, None)
        for sub_group_id in sorted(ch.subscribers):
            sub_stream_id, address = ch.subscribers[sub_group_id]
            self.host.network.leave_group(ch.mcast_host, address)
            sub_group = self.groups.get(sub_group_id)
            if sub_group is None:
                continue
            sub_group.channel_id = None
            # A patch still draining this late cannot outrun its channel
            # usefully; the server tears it down with the channel.
            for patch in list(sub_group.play_streams):
                patch.state = StreamState.DONE
                self.iop.remove(patch)
                proc = self._stream_disk.pop(patch.stream_id, None)
                if proc is not None:
                    proc.remove(patch)
                sub_group.play_streams.remove(patch)
            if sub_group.channel is not None:
                sub_group.channel.send(
                    self.name, m.EndOfStream(sub_group_id, sub_stream_id),
                    nbytes=m.WIRE_BYTES,
                )
            self._notify_terminated(sub_group, sub_stream_id, "end-of-stream")
            self._close_subscriber_group(sub_group, sub_stream_id)
        self._notify_terminated(ch.group, stream.stream_id, "channel-complete")
        self._trace("channel-complete", ch.content_name,
                    f"channel={ch.channel_id} viewers={len(ch.subscribers)} "
                    f"fanout={stream.fanout_packets}")

    def _downgrade_subscriber(self, group: GroupState) -> Optional[PlayStream]:
        """Swap a subscriber's channel membership for a private stream.

        Used when a VCR command (pause/seek/scan) needs a schedule of the
        viewer's own.  The unicast stream picks up at the channel's
        current position; the Coordinator is told so admission can move
        the viewer's charge from patch/channel to a full unicast slot.
        """
        ch = self.channels.get(group.channel_id)
        if ch is None or group.group_id not in ch.subscribers:
            group.channel_id = None
            return None
        stream_id, address = ch.subscribers[group.group_id]
        position_us = ch.stream.position_us
        front = ch.stream.front()
        resume_page = (
            front.page_index if front is not None
            else min(ch.stream.next_page, ch.stream.handle.nblocks - 1)
        )
        # Tear down any still-active patch; the private stream replaces it.
        for patch in list(group.play_streams):
            patch.state = StreamState.DONE
            self.iop.remove(patch)
            proc = self._stream_disk.pop(patch.stream_id, None)
            if proc is not None:
                proc.remove(patch)
            group.play_streams.remove(patch)
        self._detach_subscriber(group)
        fs = self.filesystems[ch.disk_id]
        stream = PlayStream(
            stream_id, group.group_id, fs.open(ch.content_name),
            ch.stream.protocol, ch.stream.rate, address,
            self.ibtree_config,
        )
        stream.next_page = max(0, resume_page)
        stream.position_us = position_us
        group.play_streams.append(stream)
        self._stream_disk[stream_id] = self.disk_processes[ch.disk_id]
        self._stream_group[stream_id] = group
        self.disk_processes[ch.disk_id].add_play(stream)
        self.iop.add_play(stream)
        if self.coordinator_channel is not None:
            self.coordinator_channel.send(
                self.name,
                m.ChannelDowngrade(
                    ch.channel_id, group.group_id, stream_id, position_us
                ),
                nbytes=m.WIRE_BYTES,
            )
        self._trace("downgrade", ch.content_name,
                    f"channel={ch.channel_id} group={group.group_id} "
                    f"page={stream.next_page}")
        return stream

    # -- live channels (extension) ------------------------------------------------

    def _open_live(self, msg: m.LiveOpen) -> None:
        """Start a live channel: one ingest stream, one fan-out stream.

        The broadcaster's packets append to a growing file while the
        channel stream follows the tail (``live`` keeps it from being
        reaped when it momentarily catches the writer); viewers attach
        through the ordinary :class:`~repro.net.messages.ChannelSubscribe`
        path.  ``ring_blocks`` > 0 turns the file into a time-shift ring:
        pages older than the window are reclaimed as new ones land.
        """
        fs = self.filesystems[msg.disk_id]
        handle = fs.create(msg.content_name, "", reserve_blocks=msg.reserve_blocks)
        record = RecordStream(
            msg.ingest_stream_id, msg.ingest_group_id, handle,
            self.protocols.get(msg.protocol), self.ibtree_config,
        )
        socket = self.host.bind()  # the broadcaster sends media here
        ingest_group = self._group_for(msg.ingest_group_id, msg.source_host, 1)
        ingest_group.record_streams.append(record)
        self._stream_disk[msg.ingest_stream_id] = self.disk_processes[msg.disk_id]
        self._stream_group[msg.ingest_stream_id] = ingest_group
        stream = ChannelStream(
            msg.stream_id, msg.group_id, handle,
            self.protocols.get(msg.protocol), msg.rate,
            tuple(msg.mcast_address), self.ibtree_config,
            channel_id=msg.channel_id,
        )
        stream.live = True
        group = GroupState(msg.group_id, "", 1)  # server-internal fan-out group
        self.groups[msg.group_id] = group
        group.play_streams.append(stream)
        self._stream_disk[msg.stream_id] = self.disk_processes[msg.disk_id]
        self._stream_group[msg.stream_id] = group
        self.channels[msg.channel_id] = ChannelState(
            msg.channel_id, stream, group, msg.disk_id,
            msg.content_name, msg.mcast_address[0],
        )
        self.live[msg.channel_id] = LiveState(
            msg.channel_id, record, handle, msg.ring_blocks
        )
        self._live_by_record[msg.ingest_stream_id] = msg.channel_id
        self.disk_processes[msg.disk_id].add_record(record)
        self.disk_processes[msg.disk_id].add_play(stream)
        self.iop.add_record(record, socket)
        self.iop.add_play(stream)
        self.streams_served += 2
        self._trace("live-open", msg.content_name,
                    f"channel={msg.channel_id} disk={msg.disk_id} "
                    f"ring={msg.ring_blocks}")
        if ingest_group.channel is not None:
            ingest_group.channel.send(
                self.name,
                m.StreamReady(
                    msg.ingest_group_id, self.name, msg.ingest_stream_id,
                    msg.content_name, record_address=socket.address,
                ),
                nbytes=m.WIRE_BYTES,
            )

    def _stop_live(self, msg: m.LiveStop) -> None:
        """Coordinator takes the channel off the air (EPG slot over)."""
        live = self.live.get(msg.channel_id)
        if live is None or live.record.finishing:
            return
        live.record.begin_finish()
        self._kick_record(live.record)

    def _on_page_written(self, stream: RecordStream) -> None:
        """A recorded page landed: reclaim ring pages past the window.

        Never trims under an active reader: the duty cycle bumps a
        reader's ``next_page`` before its read completes, so the floor
        stays two pages below the slowest tail-follower on this handle.
        """
        channel_id = self._live_by_record.get(stream.stream_id)
        if channel_id is None:
            return
        live = self.live.get(channel_id)
        if live is None or live.ring_blocks <= 0:
            return
        handle = live.handle
        if handle.live_span <= live.ring_blocks:
            return
        floor = handle.nblocks - live.ring_blocks
        proc = self._stream_disk.get(stream.stream_id)
        if proc is not None:
            for reader in proc.play_streams:
                if reader.handle is handle:
                    floor = min(floor, max(0, reader.next_page - 2))
        if floor <= handle.trimmed or proc is None:
            return
        freed = proc.fs.trim_file_front(handle, floor)
        if freed:
            live.trims += 1
            live.pages_trimmed += freed
            if self.cache is not None:
                self.cache.invalidate((proc.disk_id, handle.name))

    def _apply_live_vcr(self, group: GroupState, live: LiveState,
                        msg: m.VcrCommand) -> None:
        """Pause-live / rewind-live for one viewer of a live channel.

        The shared fan-out never pauses; the viewer's time shift rides a
        bounded unicast patch over the ring window (PR 3's patch/merge
        machinery), after which they live on the multicast again.
        """
        ch = self.channels.get(live.channel_id)
        if ch is None:
            return
        entry = ch.subscribers.get(group.group_id)
        if entry is None:
            return
        stream_id, address = entry
        handle = live.handle
        edge = handle.nblocks
        if msg.command == m.VCR_PAUSE:
            live.paused[group.group_id] = edge
            self._trace("live-pause", f"group={group.group_id}",
                        f"channel={live.channel_id} page={edge}")
            return
        if msg.command == m.VCR_PLAY:
            base = live.paused.pop(group.group_id, None)
            if base is None:
                return
            want = base
        elif msg.command == m.VCR_REWIND:
            base = live.paused.pop(group.group_id, edge)
            started = live.record.started
            elapsed = max(1e-9, self.sim.now - (started or self.sim.now))
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
        if hit:
            live.rewind_hits += 1
        # A newer time shift replaces any patch still draining.
        for patch in list(group.play_streams):
            patch.state = StreamState.DONE
            self.iop.remove(patch)
            proc = self._stream_disk.pop(patch.stream_id, None)
            if proc is not None:
                proc.remove(patch)
            group.play_streams.remove(patch)
        fs = self.filesystems[ch.disk_id]
        patch = PatchStream(
            stream_id, group.group_id, fs.open(ch.content_name),
            ch.stream.protocol, ch.stream.rate, address,
            self.ibtree_config,
            end_page=edge, channel_id=live.channel_id, start_page=start,
        )
        group.play_streams.append(patch)
        self._stream_disk[stream_id] = self.disk_processes[ch.disk_id]
        self.disk_processes[ch.disk_id].add_play(patch)
        self.iop.add_play(patch)
        self.streams_served += 1
        if self.coordinator_channel is not None:
            self.coordinator_channel.send(
                self.name,
                m.LiveRewound(
                    live.channel_id, group.group_id, stream_id,
                    start, edge, hit=hit,
                ),
                nbytes=m.WIRE_BYTES,
            )
        self._trace("live-rewind", f"group={group.group_id}",
                    f"channel={live.channel_id} pages=[{start},{edge}) "
                    f"hit={hit}")

    # -- VCR handling --------------------------------------------------------------

    def _vcr_loop(self, group: GroupState) -> Generator:
        # Commands apply one at a time in arrival order, as they would off
        # a TCP connection: a QUIT landing in the same instant as a PLAY
        # must not overtake it, and a seek finishes before what follows.
        while True:
            msg = yield group.channel.recv(self.name)
            if msg is None:
                return
            if not isinstance(msg, m.VcrCommand):
                continue
            if msg.command == m.VCR_QUIT:
                self._quit_group(group)
                return
            try:
                yield from self._apply_vcr(group, msg)
            except VCRError as err:
                # One bad command (a scan with no companion file) fails
                # alone; the connection keeps serving the group.
                self._trace("vcr-error", f"group={group.group_id}", str(err))

    def _apply_vcr(self, group: GroupState, msg: m.VcrCommand) -> Generator:
        now = self.sim.now
        self._trace("vcr", f"group={group.group_id}", msg.command)
        if group.channel_id is not None and group.channel_id in self.live:
            # Live viewers never downgrade: pause-live and rewind-live
            # ride the time-shift ring while the fan-out keeps flowing.
            self._apply_live_vcr(group, self.live[group.channel_id], msg)
            self.iop.wakeup.set()
            return
        if group.channel_id is not None:
            # A shared channel cannot pause/seek/scan for one viewer:
            # leave it for a private unicast stream, then apply the
            # command to that stream as usual.
            self._downgrade_subscriber(group)
        if msg.command == m.VCR_PAUSE:
            for stream in group.play_streams:
                stream.pause(now)
        elif msg.command == m.VCR_PLAY:
            for stream in group.play_streams:
                stream.resume(now)
        elif msg.command == m.VCR_SEEK:
            target_us = int(msg.position_seconds * 1e6)
            for stream in group.play_streams:
                yield from seek_stream(stream, target_us)
                self._kick_disk_for(stream)
        elif msg.command in (m.VCR_FAST_FORWARD, m.VCR_FAST_BACKWARD, m.VCR_NORMAL):
            variant = {
                m.VCR_FAST_FORWARD: RateVariant.FAST_FORWARD,
                m.VCR_FAST_BACKWARD: RateVariant.FAST_BACKWARD,
                m.VCR_NORMAL: RateVariant.NORMAL,
            }[msg.command]
            for stream in group.play_streams:
                fs = self._fs_of_stream(stream)
                yield from switch_variant(stream, fs, variant)
                self._kick_disk_for(stream)
        self.iop.wakeup.set()

    def _fs_of_stream(self, stream) -> MsuFileSystem:
        proc = self._stream_disk[stream.stream_id]
        return proc.fs

    def _quit_group(self, group: GroupState) -> None:
        self._trace("vcr", f"group={group.group_id}", "quit")
        group.quitting = True
        notified: Set[int] = set()
        for stream in list(group.play_streams):
            stream.state = StreamState.DONE
            self.iop.remove(stream)
            proc = self._stream_disk.pop(stream.stream_id, None)
            if proc is not None:
                proc.remove(stream)
            self._notify_terminated(group, stream.stream_id, "quit")
            notified.add(stream.stream_id)
            group.finished.add(stream.stream_id)
        for stream in list(group.record_streams):
            stream.begin_finish()
            self._kick_record(stream)
        if group.channel_id is not None:
            # A channel subscriber: detach from the fan-out (closing the
            # channel early if nobody is left listening) and report the
            # subscription's end unless its patch stream already did.
            stream_id = self._detach_subscriber(group)
            if stream_id is not None and stream_id not in notified:
                self._notify_terminated(group, stream_id, "quit")
            self._close_subscriber_group(group, stream_id)
            return
        self._maybe_close_group(group)

    def _kick_record(self, stream: RecordStream) -> None:
        proc = self._stream_disk.get(stream.stream_id)
        if proc is not None:
            proc.wakeup.set()

    # -- completion paths -------------------------------------------------------------

    def _notify_terminated(
        self, group: GroupState, stream_id: int, reason: str, blocks: int = 0
    ) -> None:
        if self.coordinator_channel is not None:
            self.coordinator_channel.send(
                self.name,
                m.StreamTerminated(group.group_id, stream_id, reason, blocks),
                nbytes=m.WIRE_BYTES,
            )

    def _on_play_done(self, stream: PlayStream) -> None:
        """IOP reached end of file for a playback stream."""
        if stream.is_channel:
            proc = self._stream_disk.pop(stream.stream_id, None)
            if proc is not None:
                proc.remove(stream)
            self._channel_complete(stream)
            return
        group = self._stream_group.get(stream.stream_id)
        proc = self._stream_disk.pop(stream.stream_id, None)
        if proc is not None:
            proc.remove(stream)
        if group is None:
            return
        if stream.is_patch:
            # The missed prefix has been delivered: the viewer now lives
            # entirely on its channel.  Tell the Coordinator so the patch
            # charge is refunded; the group itself stays alive.
            if stream in group.play_streams:
                group.play_streams.remove(stream)
            if self.coordinator_channel is not None:
                self.coordinator_channel.send(
                    self.name,
                    m.PatchDrained(
                        stream.channel_id, group.group_id, stream.stream_id
                    ),
                    nbytes=m.WIRE_BYTES,
                )
            self._trace("patch-drained", f"stream={stream.stream_id}",
                        f"channel={stream.channel_id} group={group.group_id}")
            return
        if group.channel is not None:
            group.channel.send(
                self.name, m.EndOfStream(group.group_id, stream.stream_id),
                nbytes=m.WIRE_BYTES,
            )
        self._notify_terminated(group, stream.stream_id, "end-of-stream")
        self._trace("end-of-stream", f"stream={stream.stream_id}",
                    f"group={group.group_id} packets={stream.packets_sent}")
        group.finished.add(stream.stream_id)
        self._maybe_close_group(group)

    def _on_record_drained(self, stream: RecordStream) -> None:
        """Disk process flushed a finishing recording's last page."""
        channel_id = self._live_by_record.pop(stream.stream_id, None)
        if channel_id is not None:
            # Live ingest signed off: the fan-out stream stops being a
            # tail-follower and drains to the (now final) end of file.
            ch = self.channels.get(channel_id)
            if ch is not None:
                ch.stream.live = False
                self._kick_disk_for(ch.stream)
                self.iop.wakeup.set()
        group = self._stream_group.get(stream.stream_id)
        handle = stream.handle
        handle.duration_us = stream.last_delivery_us
        fs = handle.fs
        returned = fs.finish_recording(handle)
        self.iop.remove(stream)
        self._stream_disk.pop(stream.stream_id, None)
        self.sim.process(fs.sync_metadata(), name=f"{self.name}.sync")
        if group is None:
            return
        if group.channel is not None:
            group.channel.send(
                self.name, m.EndOfStream(group.group_id, stream.stream_id),
                nbytes=m.WIRE_BYTES,
            )
        self._notify_terminated(
            group, stream.stream_id, "record-complete", blocks=len(handle.blocks)
        )
        self._trace("record-complete", handle.name,
                    f"blocks={len(handle.blocks)} returned={returned}")
        group.finished.add(stream.stream_id)
        self._maybe_close_group(group)

    def _maybe_close_group(self, group: GroupState) -> None:
        if group.all_done and group.group_id in self.groups:
            del self.groups[group.group_id]
            for stream in group.play_streams + group.record_streams:
                self._stream_group.pop(stream.stream_id, None)
            if group.channel is not None and group.channel.open:
                group.channel.close()

    def _drop_channels(self) -> None:
        """Forget every channel and its fan-out memberships (crash/hang)."""
        for ch in self.channels.values():
            for _group_id, (_stream_id, address) in ch.subscribers.items():
                self.host.network.leave_group(ch.mcast_host, address)
        self.channels.clear()
        self.live.clear()
        self._live_by_record.clear()

    # -- crash injection ------------------------------------------------------------------

    def crash(self) -> None:
        """Kill the MSU: all processes stop, every connection breaks.

        The Coordinator sees the control-channel break and marks the MSU
        down (§2.2); clients see their VCR connections close mid-stream.
        Disk contents survive — :meth:`repro.core.cluster.CalliopeCluster.
        rejoin_msu` brings the machine back with its files intact.
        """
        self._trace("crash", self.name)
        self.up = False
        if self.coordinator_channel is not None and self.coordinator_channel.open:
            self.coordinator_channel.close()
        for group in list(self.groups.values()):
            if group.channel is not None and group.channel.open:
                group.channel.close()
        for disk_proc in self.disk_processes.values():
            if disk_proc._proc.is_alive:
                disk_proc._proc.interrupt("crash")
        if self.iop._proc.is_alive:
            self.iop._proc.interrupt("crash")
        if self._cache_report_proc is not None and self._cache_report_proc.is_alive:
            self._cache_report_proc.interrupt("crash")
        if self._heartbeat_proc is not None and self._heartbeat_proc.is_alive:
            self._heartbeat_proc.interrupt("crash")
        if self.cache is not None:
            self.cache.clear()  # cache memory does not survive a power cut
        self._drop_channels()
        self.groups.clear()
        self._stream_disk.clear()
        self._stream_group.clear()
        self.iop.play_streams.clear()
        self.iop.record_streams.clear()
        for disk_proc in self.disk_processes.values():
            disk_proc.play_streams.clear()
            disk_proc.record_streams.clear()

    def hang(self) -> None:
        """Freeze the MSU silently: processes stop, connections stay up.

        The failure mode :meth:`crash` cannot model — a wedged kernel
        whose TCP connections linger.  The Coordinator gets no break
        signal; only the heartbeat monitor notices the silence.  Streams
        and state are lost exactly as in a crash, and :meth:`reboot` /
        :meth:`repro.core.cluster.CalliopeCluster.rejoin_msu` recover it
        the same way.
        """
        self._trace("hang", self.name)
        self.up = False
        for disk_proc in self.disk_processes.values():
            if disk_proc._proc.is_alive:
                disk_proc._proc.interrupt("hang")
        if self.iop._proc.is_alive:
            self.iop._proc.interrupt("hang")
        if self._cache_report_proc is not None and self._cache_report_proc.is_alive:
            self._cache_report_proc.interrupt("hang")
        if self._heartbeat_proc is not None and self._heartbeat_proc.is_alive:
            self._heartbeat_proc.interrupt("hang")
        self._drop_channels()
        self.groups.clear()
        self._stream_disk.clear()
        self._stream_group.clear()
        self.iop.play_streams.clear()
        self.iop.record_streams.clear()
        for disk_proc in self.disk_processes.values():
            disk_proc.play_streams.clear()
            disk_proc.record_streams.clear()

    def reboot(self) -> None:
        """Restart the device processes after a crash (file systems kept)."""
        if self.up:
            return
        self.up = True
        for disk_proc in self.disk_processes.values():
            if not disk_proc._proc.is_alive:
                disk_proc._proc = self.sim.process(
                    disk_proc.run(), name=f"diskproc:{disk_proc.disk_id}"
                )
        if not self.iop._proc.is_alive:
            self.iop._proc = self.sim.process(self.iop.run(), name="iop")

    # -- administrative interface (§2.3.1) ------------------------------------------------

    def admin_load(
        self,
        disk_id: str,
        name: str,
        content_type: str,
        packets,
        duration_us: Optional[int] = None,
    ) -> FileHandle:
        """Pre-load content outside the measured interval (no sim time).

        ``packets`` is an iterable of
        :class:`~repro.media.content.SourcePacket`-compatible tuples.
        """
        fs = self.filesystems[disk_id]
        handle = fs.create(name, content_type)
        writer = IBTreeWriter(self.ibtree_config)
        last_us = 0
        for packet in packets:
            delivery_us, payload = packet[0], packet[1]
            kind = packet[2] if len(packet) > 2 else 0
            page = writer.feed(PacketRecord(delivery_us, payload, kind))
            last_us = delivery_us
            if page is not None:
                fs.append_block_sync(handle, page)
        pages, root = writer.finish()
        for page in pages:
            fs.append_block_sync(handle, page)
        handle.root = root
        handle.duration_us = duration_us if duration_us is not None else last_us
        return handle

    def admin_link_fast_scan(
        self, disk_id: str, name: str, ff_name: str = "", fb_name: str = ""
    ) -> None:
        """Associate fast-forward / fast-backward companions with content."""
        fs = self.filesystems[disk_id]
        handle = fs.open(name)
        if ff_name:
            if not fs.exists(ff_name):
                raise StorageError(f"fast-forward file {ff_name!r} not loaded")
            handle.fast_forward = ff_name
        if fb_name:
            if not fs.exists(fb_name):
                raise StorageError(f"fast-backward file {fb_name!r} not loaded")
            handle.fast_backward = fb_name

    def admin_sync_all(self) -> Generator:
        """Simulation process: flush every file system's metadata (§2.3.3).

        The metadata is small enough to cache entirely in memory; this
        writes it to each volume's reserved region so a power cycle can
        :meth:`admin_remount` it.
        """
        for disk_id in sorted(self.filesystems):
            yield from self.filesystems[disk_id].sync_metadata()

    def admin_remount(self) -> Generator:
        """Simulation process: re-read all metadata from disk (power cycle).

        Rebuilds each file system from its volume's serialized metadata —
        the in-memory state is discarded, exactly as a reboot would.  The
        disk processes are re-pointed at the fresh file systems.
        """
        for disk_id in sorted(self.filesystems):
            volume = self.filesystems[disk_id].volume
            mounted = yield from MsuFileSystem.mount(volume)
            self.filesystems[disk_id] = mounted
            self.disk_processes[disk_id].fs = mounted

    def disk_ids(self) -> List[str]:
        """The MSU's disk identifiers, sorted."""
        return sorted(self.filesystems)

    def free_blocks(self, disk_id: str) -> int:
        """Unreserved free blocks on one disk."""
        return self.filesystems[disk_id].allocator.free_blocks
