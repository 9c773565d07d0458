"""The MSU network process (IOP): paced sending and recording (§2.3, §3.2).

One process drives the delivery NIC.  On each wakeup it

1. drains arriving recording packets from the record sockets, assigning
   delivery times through the stream's protocol module;
2. starts any stream group whose members all have their first buffer
   (group members anchor together so composite streams stay in sync, §2.2);
3. sends every packet whose deadline has passed, earliest deadline first,
   recording lateness against the schedule (the Graph 1/2 metric).  The
   next due packet comes off an earliest-deadline heap of the playing
   streams, so picking it costs O(log n) in the number of streams;
4. sleeps until the next deadline — quantized to the 10 ms FreeBSD timer
   (§2.2.1) — or until the disk process or control process signals.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Generator, List, Optional

from repro.core.msu.parts import stop
from repro.core.msu.queues import Signal
from repro.core.msu.streams import PlayStream, RecordStream, StreamState
from repro.storage.ibtree import KIND_CONTROL
from repro.hardware.timer import SystemTimer
from repro.metrics.lateness import LatenessCollector
from repro.net.network import UdpSocket
from repro.sim import Simulator
from repro.units import us

__all__ = ["NetworkProcess"]

#: Extra MSU bookkeeping cost per data packet sent (stream lookup, schedule
#: check, buffer advance).  Calibrated so MSU goodput is ~90 % of the
#: baseline ttcp path (§3.2.1): the send path saturates between 23 and 24
#: 1.5 Mbit/s streams, which is where Graph 1 collapses.
MSU_PACKET_OVERHEAD = us(140.0)

#: How often the IOP polls record sockets while a recording is active.
RECORD_POLL = 0.002


class NetworkProcess:
    """The I/O process for one MSU delivery interface.

    The send loop keeps its playing streams in an earliest-deadline heap
    of ``(deadline, list position, stream, record)`` entries; equal
    deadlines go to the earlier stream in :attr:`play_streams`.  The heap
    is rebuilt at the top of every loop pass and whenever
    :attr:`wakeup` has been set since the last rebuild.  Between
    rebuilds an entry can only go stale *later*: the stream was sent
    from, stopped playing, or lost its buffers.  A stale entry is re-keyed
    or dropped when it reaches the top of the heap.

    That relies on one contract, which a sleeping IOP needs anyway:
    everything that gives a stream a new or earlier deadline calls
    ``wakeup.set()``.  Those are a page landing in a buffer
    (``Msu._on_page_loaded``), every VCR command, :meth:`add_play`,
    :meth:`remove` and :meth:`release_starts`.  Group starts happen in
    the loop itself, before the rebuild.
    """

    def __init__(
        self,
        sim: Simulator,
        socket: UdpSocket,
        timer: SystemTimer,
        on_stream_done: Optional[Callable] = None,
    ):
        self.sim = sim
        self.socket = socket
        self.timer = timer
        self.wakeup = Signal(sim, name="iop")
        self.play_streams: List[PlayStream] = []
        self.record_streams: List[RecordStream] = []
        self._record_sockets: Dict[int, UdpSocket] = {}  # stream_id -> socket
        self.collector = LatenessCollector("msu")
        #: Experiment hook: while True, buffered streams stay LOADING; call
        #: :meth:`release_starts` to anchor everything at one instant (the
        #: paper's synchronized-start variable-rate test, §3.2.2).
        self.hold_starts = False
        #: Called with (stream,) when a playback stream reaches end of file.
        self.on_stream_done = on_stream_done
        #: Called with (stream,) whenever a record stream made a page.
        self.disk_kick: Optional[Callable] = None
        self.packets_sent = 0
        self._due: List[tuple] = []  # the earliest-deadline heap
        self._due_sets = -1  # wakeup.set_count at the last rebuild
        self.start()

    def start(self) -> None:
        """Start a fresh send loop (construction and MSU reboot)."""
        self._proc = self.sim.process(self.run(), name="iop")

    def halt(self, cause: str) -> None:
        """Stop the send loop and forget every stream (the MSU halted)."""
        stop(self._proc, cause)
        self.play_streams.clear()
        self.record_streams.clear()

    # -- stream management -------------------------------------------------

    def add_play(self, stream: PlayStream) -> None:
        """Register a playback stream (starts once its group is buffered)."""
        self.play_streams.append(stream)
        self.wakeup.set()

    def add_record(self, stream: RecordStream, socket: UdpSocket) -> None:
        """Register a recording stream and the socket its media arrives on."""
        self.record_streams.append(stream)
        self._record_sockets[stream.stream_id] = socket
        socket.notify = self.wakeup.set
        self.wakeup.set()

    def remove(self, stream) -> None:
        """Detach a finished or cancelled stream."""
        if stream in self.play_streams:
            self.play_streams.remove(stream)
        if stream in self.record_streams:
            self.record_streams.remove(stream)
            sock = self._record_sockets.pop(stream.stream_id, None)
            if sock is not None:
                sock.notify = None
        # Re-arm the loop: it may be sleeping toward the removed stream's
        # deadline (a stale target) or parked waiting on it alone.
        self.wakeup.set()

    # -- group start synchronization ----------------------------------------------

    def _group_members(self, group_id: int) -> List[PlayStream]:
        return [s for s in self.play_streams if s.group_id == group_id]

    def _stream_ready(self, stream: PlayStream) -> bool:
        if stream.seeking or stream.front() is None:
            return False
        return stream.double_buffered or stream.next_page >= stream.handle.nblocks

    def release_starts(self, stagger=None) -> None:
        """Start every held group at one instant (experiment hook).

        ``stagger`` optionally maps stream_id -> seconds to delay that
        stream's schedule; with no stagger all schedules align exactly
        (the paper's synchronized variable-rate test, §3.2.2).
        """
        self.hold_starts = False
        self._maybe_start_groups()
        if stagger:
            for stream in self.play_streams:
                offset = stagger.get(stream.stream_id, 0.0)
                if stream.anchor is not None and offset > 0:
                    stream.anchor += offset
        self.wakeup.set()

    def all_loaded(self) -> bool:
        """True when every stream has its opening buffers resident."""
        return all(self._stream_ready(s) for s in self.play_streams)

    def _maybe_start_groups(self) -> None:
        if self.hold_starts:
            return
        loading_groups = {
            s.group_id for s in self.play_streams if s.state is StreamState.LOADING
        }
        for group_id in loading_groups:
            members = self._group_members(group_id)
            # A group anchors only when every member is (re)loading and
            # buffered — a half-seeked group must not re-anchor early.
            if all(
                m.state is StreamState.LOADING and self._stream_ready(m)
                for m in members
            ):
                for member in members:
                    record = member.peek_record()
                    first_us = record.delivery_us if record else 0
                    member.start(self.sim.now, first_us)

    # -- recording ingest ----------------------------------------------------------

    def _drain_recordings(self) -> None:
        for stream in list(self.record_streams):
            sock = self._record_sockets.get(stream.stream_id)
            if sock is None:
                continue
            while True:
                dgram = sock.try_recv()
                if dgram is None:
                    break
                stream.accept(dgram.payload, self.sim.now)
            if stream.pending_pages and self.disk_kick is not None:
                self.disk_kick(stream)

    # -- transmission ------------------------------------------------------------

    def _rebuild_due(self) -> None:
        self._due_sets = self.wakeup.set_count
        due = []
        for position, stream in enumerate(self.play_streams):
            if stream.state is StreamState.PLAYING:
                record = stream.peek_record()
                if record is not None:
                    due.append((stream.deadline(record), position, stream, record))
        heapq.heapify(due)
        self._due = due

    def _next_due(self):
        """The heap entry ``(deadline, position, stream, record)`` due first.

        None when no playing stream has a buffered record.
        """
        if self.wakeup.set_count != self._due_sets:
            self._rebuild_due()
        due = self._due
        while due:
            entry = due[0]
            stream = entry[2]
            record = (
                stream.peek_record()
                if stream.state is StreamState.PLAYING else None
            )
            if record is entry[3]:
                return entry
            if record is None:
                heapq.heappop(due)
            else:
                heapq.heapreplace(
                    due, (stream.deadline(record), entry[1], stream, record)
                )
        return None

    def _reap_finished(self) -> None:
        for stream in list(self.play_streams):
            if stream.state is StreamState.PLAYING and stream.at_end:
                stream.state = StreamState.DONE
                self.remove(stream)
                if self.on_stream_done is not None:
                    self.on_stream_done(stream)

    def run(self) -> Generator:
        """The IOP main loop."""
        while True:
            self._drain_recordings()
            self._maybe_start_groups()
            self._rebuild_due()
            # Send everything due, earliest deadline first.  The entry
            # stays on the heap: the next _next_due re-keys it, reading
            # the stream's next record in the instant this send ends.
            while True:
                due = self._next_due()
                if due is None or due[0] > self.sim.now + 1e-9:
                    break
                deadline, _position, stream, record = due
                yield self.sim.timeout(MSU_PACKET_OVERHEAD)
                destination = stream.display_address
                if (
                    record.kind == KIND_CONTROL
                    and stream.protocol.playback_ports() > 1
                ):
                    # Interleaved control messages demultiplex back onto
                    # the protocol's control port (§2.3.2: "On output,
                    # the opposite process is performed").
                    destination = (destination[0], destination[1] + 1)
                yield from self.socket.send(destination, record.payload)
                self.collector.record(deadline, self.sim.now)
                stream.position_us = record.delivery_us
                stream.packets_sent += 1
                self.packets_sent += 1
                if stream.is_channel:
                    # One send, many receivers: account each fan-out copy
                    # against the channel (per-subscriber accounting).
                    stream.fanout_packets += len(stream.subscribers)
                page = stream.front()
                if page is not None:
                    page.advance()
                    if page.exhausted and self.disk_kick is not None:
                        # Buffers swap: the drained one must refill while
                        # the other transmits (double buffering, §2.2.1).
                        self.disk_kick(stream)
            self._reap_finished()
            # Figure out when to wake next.
            nxt = self._next_due()
            target = nxt[0] if nxt is not None else None
            if self.record_streams:
                poll = self.sim.now + RECORD_POLL
                target = poll if target is None else min(target, poll)
            wake_event = self.wakeup.wait()
            if target is None:
                yield wake_event
            else:
                tick = self.timer.next_tick_at_or_after(target)
                delay = max(0.0, tick - self.sim.now)
                yield self.sim.any_of([wake_event, self.sim.timeout(delay)])
