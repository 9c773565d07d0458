"""The Multimedia Storage Unit: hardware, file systems, processes (§2.3).

An MSU is one PC with disks, an interface to the intra-server network and
an interface to the high-speed delivery network.  It runs a disk process
per disk, a network process (IOP) for the delivery interface, and a
central control process handling RPCs from the Coordinator and VCR
commands from clients.

The control process dispatches Coordinator messages through
:attr:`Msu.handlers`; the ``msu_side`` modules of multicast, live and
cache install their handlers there; the lifecycle paths walk them in
:attr:`Msu.parts` (DESIGN §3).

The MSU also exposes the *administrative interface* of §2.3.1 (the
``admin_*`` methods): pre-loading content and installing the offline
fast-forward / fast-backward companion files.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Set

from repro.core.msu.disk_process import DiskProcess
from repro.core.msu.network_process import NetworkProcess
from repro.core.msu.parts import MsuPart, stop
from repro.core.msu.streams import (
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
from repro.net.network import ControlChannel, Host, Network, UdpSocket
from repro.net.protocols import ProtocolRegistry, default_registry
from repro.sim import Simulator
from repro.storage.filesystem import FileHandle, MsuFileSystem
from repro.storage.ibtree import IBTreeConfig, IBTreeWriter, PacketRecord
from repro.storage.layout import SpanVolume, StripedVolume
from repro.storage.raw_disk import RawDisk

__all__ = ["Msu", "GroupState"]


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
    #: Multicast channel this group subscribes to, if any.
    channel_id: Optional[int] = None

    @property
    def members(self) -> int:
        return len(self.play_streams) + len(self.record_streams)

    @property
    def all_done(self) -> bool:
        return self.members > 0 and len(self.finished) >= self.members


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
        parts: Sequence[Callable[["Msu"], MsuPart]] = (),
        heartbeat_period: float = 0.0,
    ):
        self.sim = sim
        self.name = name
        params = dataclasses.replace(machine_params or MachineParams(), name=name)
        self.machine = Machine(sim, params, seed=seed)
        self.nic = self.machine.add_nic(FDDI)
        self.host = Host(sim, delivery_net, name, machine=self.machine, nic=self.nic)
        self.protocols = protocols or default_registry()
        self.ibtree_config = ibtree_config
        #: cluster-supplied: (client_host, group_id) -> ControlChannel.
        self.client_channel_factory = client_channel_factory
        #: Coordinator message class -> handler, called inline in arrival
        #: order by the control process.  Subsystem parts add their own.
        self.handlers: Dict[type, Callable] = {
            m.ReportState: self._report_state,
            m.ScheduleRead: self._schedule_read,
            m.ResumePlay: self._resume_play,
            m.ScheduleRecord: self._schedule_record,
            m.DeleteFile: self._delete_file,
        }
        # Each part binds its own attributes when built: the multicast
        # part ``multicast_part`` and ``channels``, the live part
        # ``live_part`` and ``live``, the cache part ``cache_part`` and
        # ``cache``.  These defaults are the ones the core reads.
        self.live_part = None
        #: Live channels layered on multicast channels, by channel id.
        self.live: Dict[int, object] = {}
        #: Interval/prefix page cache shared by every disk process; None
        #: reproduces the paper's no-cache MSU (§2.3.3).
        self.cache = None
        #: The installed parts, walked in this order (repro.core.msu.parts).
        self.parts: List[MsuPart] = [build(self) for build in parts]
        # Per-disk file systems (the paper's MSU does not stripe, §2.3.3);
        # ``striped=True`` builds the §2.3.3 alternative: one file system
        # whose consecutive blocks land on "adjacent" disks, served by a
        # single duty cycle covering all disks.
        self.striped = striped
        page = ibtree_config.data_page_size
        if striped:
            raws = [RawDisk(drive) for drive in self.machine.disks]
            volumes = {f"{name}.striped": StripedVolume(raws, page)}
        else:
            volumes = {
                drive.name: SpanVolume(RawDisk(drive), page)
                for drive in self.machine.disks
            }
        self.filesystems: Dict[str, MsuFileSystem] = {}
        self.disk_processes: Dict[str, DiskProcess] = {}
        for disk_id, volume in volumes.items():
            fs = MsuFileSystem(volume)
            self.filesystems[disk_id] = fs
            self.disk_processes[disk_id] = DiskProcess(
                sim, fs, disk_id,
                on_page_loaded=self._on_page_loaded,
                on_record_drained=self._on_record_drained,
                on_page_written=(
                    self.live_part.on_page_written
                    if self.live_part is not None else None
                ),
                cache=self.cache,
            )
        self.data_socket = self.host.bind(self.DATA_PORT)
        self.iop = NetworkProcess(
            sim, self.data_socket, self.machine.timer,
            on_stream_done=self._on_play_done,
        )
        self.iop.disk_kick = self._kick_disk_for
        self.groups: Dict[int, GroupState] = {}
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
        channel.send(
            self.name, m.MsuHello(self.name, **self._inventory()),
            nbytes=m.WIRE_BYTES,
        )
        self.sim.process(self._control_loop(), name=f"{self.name}.ctl")
        for part in self.parts:
            part.attached(channel)
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
            # A kind nobody installed is dropped, as a cacheless MSU
            # drops PinPrefix.
            handler = self.handlers.get(type(msg))
            if handler is not None:
                handler(msg)

    def _tell_coordinator(self, message) -> None:
        if self.coordinator_channel is not None:
            self.coordinator_channel.send(self.name, message, nbytes=m.WIRE_BYTES)

    def _report_state(self, msg: m.ReportState) -> None:
        self._tell_coordinator(self.state_report())

    def _inventory(self) -> dict:
        """Free blocks per disk and the parts' fields (MsuHello, StateReport)."""
        disks = sorted(self.filesystems.items())
        fields = dict(
            disks=tuple((disk_id, fs.allocator.free_blocks) for disk_id, fs in disks),
        )
        for part in self.parts:
            fields.update(part.inventory())
        return fields

    def state_report(self) -> m.StateReport:
        """Answer a restarted Coordinator's ``ReportState`` probe.

        Everything the MSU is serving *right now*: active streams by
        group (channel streams excluded — they travel as channels),
        allocator free-block truth, every file's size, and each part's
        fields (multicast channels with their subscriber sets, pinned
        prefixes).  Recovery treats this as authoritative (MSU-wins
        reconciliation).
        """
        streams = []
        for group_id in sorted(self.groups):
            group = self.groups[group_id]
            for stream in group.play_streams + group.record_streams:
                if stream.stream_id in group.finished or stream.is_channel:
                    continue
                proc = self._stream_disk.get(stream.stream_id)
                kind, rate = (
                    ("record", 0.0) if isinstance(stream, RecordStream)
                    else ("patch" if stream.is_patch else "play", stream.rate)
                )
                streams.append((
                    group_id, stream.stream_id, stream.handle.name,
                    proc.disk_id if proc is not None else "", kind, rate,
                ))
        files = tuple(
            (disk_id, handle.name, len(handle.blocks))
            for disk_id, fs in sorted(self.filesystems.items())
            for handle in fs.list_files()
        )
        fields = self._inventory()
        for part in self.parts:
            fields.update(part.report())
        return m.StateReport(
            self.name, streams=tuple(streams), files=files, **fields
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
                (stream.group_id, stream.stream_id, stream.resume_page,
                 stream.position_us)
                for stream in self.iop.play_streams
            )
            # Channel subscribers ride the shared stream: their entries
            # come *after* the raw stream entries so a subscriber's
            # channel position overrides its patch stream's.
            for part in self.parts:
                positions += part.positions()
            seq += 1
            channel.send(
                self.name, m.Heartbeat(self.name, seq, positions),
                nbytes=m.WIRE_BYTES,
            )
            yield self.sim.timeout(self.heartbeat_period)

    # -- stream plumbing (shared with the subsystem parts) ---------------------------

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

    def _server_group(self, group_id: int) -> GroupState:
        """A server-internal group: no client host, no VCR connection."""
        group = GroupState(group_id, "", 1)
        self.groups[group_id] = group
        return group

    def _attach(self, stream, group: GroupState, disk_id: str,
                socket: Optional[UdpSocket] = None) -> None:
        """Add ``stream`` to ``group``, its disk's duty cycle and the IOP
        (a recording with the ``socket`` its media arrives on)."""
        proc = self.disk_processes[disk_id]
        self._stream_disk[stream.stream_id] = proc
        self._stream_group[stream.stream_id] = group
        if isinstance(stream, RecordStream):
            group.record_streams.append(stream)
            proc.add_record(stream)
            self.iop.add_record(stream, socket)
        else:
            group.play_streams.append(stream)
            proc.add_play(stream)
            self.iop.add_play(stream)

    def _stop_stream(self, stream: PlayStream) -> None:
        """Take a playback stream off the IOP and its disk's duty cycle."""
        stream.state = StreamState.DONE
        self.iop.remove(stream)
        proc = self._stream_disk.pop(stream.stream_id, None)
        if proc is not None:
            proc.remove(stream)

    def _end_patches(self, group: GroupState) -> None:
        """Stop every stream a channel subscriber still has (its patches)."""
        for patch in list(group.play_streams):
            self._stop_stream(patch)
            group.play_streams.remove(patch)

    def _send_ready(self, group: GroupState, stream_id: int,
                    content_name: str = "", **fields) -> None:
        """Greet ``group``'s client: VCR commands for the stream may begin."""
        self._tell_client(group, m.StreamReady(
            group.group_id, self.name, stream_id, content_name, **fields
        ))

    def _send_end(self, group: GroupState, stream_id: int) -> None:
        self._tell_client(group, m.EndOfStream(group.group_id, stream_id))

    def _tell_client(self, group: GroupState, message) -> None:
        if group.channel is not None:
            group.channel.send(self.name, message, nbytes=m.WIRE_BYTES)

    def _close_group(self, group: GroupState, *stream_ids: Optional[int]) -> None:
        """Forget a group whose streams are gone; close its client link."""
        self.groups.pop(group.group_id, None)
        for stream_id in stream_ids:
            self._stream_group.pop(stream_id, None)
        if group.channel is not None and group.channel.open:
            group.channel.close()

    # -- scheduling (RPCs from the Coordinator) --------------------------------------

    def _schedule_read(self, msg: m.ScheduleRead) -> None:
        # start_page > 0: an edge proxy serves the opening pages, the
        # MSU tail stream picks up at the splice.
        self._install_play(msg, "play")

    def _resume_play(self, msg: m.ResumePlay) -> None:
        """Pick up a migrated stream from its last reported position."""
        self.streams_resumed += 1
        self._install_play(msg, "resume", start_us=msg.start_us)

    def _install_play(self, msg, label: str, start_us: int = 0) -> None:
        handle = self.filesystems[msg.disk_id].open(msg.content_name)
        stream = PlayStream(
            msg.stream_id, msg.group_id, handle,
            self.protocols.get(msg.protocol), msg.rate, msg.display_address,
            self.ibtree_config,
        )
        if msg.start_page:
            # Clamp into the file so a stream that died at its very last
            # page still loads something and terminates normally.
            stream.next_page = max(0, min(msg.start_page, handle.nblocks - 1))
        if start_us:
            stream.position_us = start_us
        group = self._group_for(msg.group_id, msg.client_host, msg.group_size)
        self._attach(stream, group, msg.disk_id)
        self.streams_served += 1
        self._trace(label, msg.content_name,
                    f"group={msg.group_id} stream={msg.stream_id} disk={msg.disk_id}")
        self._send_ready(group, msg.stream_id, msg.content_name,
                         group_size=group.expected)

    def _new_recording(self, msg, stream_id: int, group_id: int):
        """Create ``msg``'s file; returns its recording stream and a fresh
        port for the media (ScheduleRecord, LiveOpen)."""
        handle = self.filesystems[msg.disk_id].create(
            msg.content_name, "", reserve_blocks=msg.reserve_blocks
        )
        stream = RecordStream(
            stream_id, group_id, handle,
            self.protocols.get(msg.protocol), self.ibtree_config,
        )
        return stream, self.host.bind()

    def _schedule_record(self, msg: m.ScheduleRecord) -> None:
        stream, socket = self._new_recording(msg, msg.stream_id, msg.group_id)
        group = self._group_for(msg.group_id, msg.client_host, msg.group_size)
        self._attach(stream, group, msg.disk_id, socket)
        self.streams_served += 1
        self._trace("record", msg.content_name,
                    f"group={msg.group_id} stream={msg.stream_id} disk={msg.disk_id}")
        self._send_ready(group, msg.stream_id, msg.content_name,
                         group_size=group.expected, record_address=socket.address)

    def _delete_file(self, msg: m.DeleteFile) -> None:
        fs = self.filesystems.get(msg.disk_id)
        if fs is None or not fs.exists(msg.content_name):
            return
        self.unlink(msg.disk_id, msg.content_name)
        # Deletes are durable: a remount must not resurrect a torn-down
        # live ring as an orphan file.
        self.sim.process(fs.sync_metadata(), name=f"{self.name}.sync")

    def unlink(self, disk_id: str, content_name: str) -> None:
        """Remove a stored file in memory and tell the parts."""
        self.filesystems[disk_id].delete(content_name)
        for part in self.parts:
            part.file_deleted(disk_id, content_name)

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
        if group.channel_id in self.live:
            # Live viewers never downgrade: pause-live and rewind-live
            # ride the time-shift ring while the fan-out keeps flowing.
            self.live_part.apply_vcr(group, self.live[group.channel_id], msg)
            self.iop.wakeup.set()
            return
        if group.channel_id is not None:
            # A shared channel cannot pause/seek/scan for one viewer:
            # leave it for a private unicast stream, then apply the
            # command to that stream as usual.
            self.multicast_part.downgrade(group)
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
            variant = RateVariant(msg.command)  # the commands name the files
            for stream in group.play_streams:
                fs = self._stream_disk[stream.stream_id].fs
                yield from switch_variant(stream, fs, variant)
                self._kick_disk_for(stream)
        self.iop.wakeup.set()

    def _quit_group(self, group: GroupState) -> None:
        self._trace("vcr", f"group={group.group_id}", "quit")
        notified: Set[int] = set()
        for stream in list(group.play_streams):
            self._stop_stream(stream)
            self._notify_terminated(group, stream.stream_id, "quit")
            notified.add(stream.stream_id)
            group.finished.add(stream.stream_id)
        for stream in list(group.record_streams):
            stream.begin_finish()
            self._kick_disk_for(stream)
        if group.channel_id is not None:
            # A channel subscriber: detach from the fan-out (closing the
            # channel early if nobody is left listening) and report the
            # subscription's end unless its patch stream already did.
            stream_id = self.multicast_part.detach(group)
            if stream_id is not None and stream_id not in notified:
                self._notify_terminated(group, stream_id, "quit")
            self._close_group(group, stream_id)
            return
        self._maybe_close_group(group)

    # -- completion paths -------------------------------------------------------------

    def _notify_terminated(
        self, group: GroupState, stream_id: int, reason: str, blocks: int = 0
    ) -> None:
        self._tell_coordinator(
            m.StreamTerminated(group.group_id, stream_id, reason, blocks)
        )

    def _on_play_done(self, stream: PlayStream) -> None:
        """IOP reached end of file for a playback stream."""
        group = self._stream_group.get(stream.stream_id)
        proc = self._stream_disk.pop(stream.stream_id, None)
        if proc is not None:
            proc.remove(stream)
        if stream.is_channel:
            self.multicast_part.complete(stream)
            return
        if group is None:
            return
        if stream.is_patch:
            self.multicast_part.patch_drained(stream, group)
            return
        self._trace("end-of-stream", f"stream={stream.stream_id}",
                    f"group={group.group_id} packets={stream.packets_sent}")
        self._stream_ended(group, stream.stream_id, "end-of-stream")

    def _on_record_drained(self, stream: RecordStream) -> None:
        """Disk process flushed a finishing recording's last page."""
        if self.live_part is not None:
            self.live_part.ingest_drained(stream)
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
        self._trace("record-complete", handle.name,
                    f"blocks={len(handle.blocks)} returned={returned}")
        self._stream_ended(
            group, stream.stream_id, "record-complete", len(handle.blocks)
        )

    def _stream_ended(
        self, group: GroupState, stream_id: int, reason: str, blocks: int = 0
    ) -> None:
        """Tell the client and the Coordinator; close the group if done."""
        self._send_end(group, stream_id)
        self._notify_terminated(group, stream_id, reason, blocks)
        group.finished.add(stream_id)
        self._maybe_close_group(group)

    def _maybe_close_group(self, group: GroupState) -> None:
        if group.all_done and group.group_id in self.groups:
            self._close_group(group, *(
                s.stream_id for s in group.play_streams + group.record_streams
            ))

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
        links = [self.coordinator_channel] + [g.channel for g in self.groups.values()]
        for link in links:
            if link is not None and link.open:
                link.close()
        self._halt("crash")

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
        self._halt("hang")

    def _halt(self, cause: str) -> None:
        """Stop every process and forget every stream (crash, hang, reboot)."""
        for disk_proc in self.disk_processes.values():
            disk_proc.halt(cause)
        self.iop.halt(cause)
        for part in self.parts:
            part.halt(cause)
        stop(self._heartbeat_proc, cause)
        self.groups.clear()
        self._stream_disk.clear()
        self._stream_group.clear()

    def reboot(self) -> None:
        """Restart a failed MSU with fresh device processes (file systems kept).

        A partitioned MSU kept serving while the Coordinator wrote its
        streams off; the Coordinator resumes them after the rejoin, so
        the reboot halts whatever still runs before starting afresh.
        """
        if self.up:
            return
        self._halt("reboot")
        self.up = True
        # The halt's interrupts land later in this instant, so the old
        # processes may still look alive: start new ones regardless.
        for disk_proc in self.disk_processes.values():
            disk_proc.start()
        self.iop.start()

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
