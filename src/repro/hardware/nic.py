"""Network-interface model (FDDI delivery side, Ethernet control side).

The transmit path follows the paper's data-path arithmetic (§3.2.3): a
packet costs a fixed CPU overhead (plus the two-HBA I/O stall when the
pathology is active), a user-to-mbuf copy at 18 MB/s, a checksum read at
53 MB/s and a DMA read at 53 MB/s, then serializes onto the line.  A full
output queue produces ENOBUFS and the sender backs off briefly and retries,
exactly as FreeBSD/ttcp behave (§3.1).

The line is a single-claimant FIFO server, so it needs no process: each
frame's start and departure are computed when it is enqueued
(``start = max(now, line_free)``, ``depart = start + hold``), and the
transmit counters catch up with the clock whenever they are read.  A
frame therefore counts as sent once the clock reaches its departure,
which a ``sim.run()`` without ``until`` may stop short of: read the
counters after ``run(until=...)``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generator

from repro.hardware.params import NicParams
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.machine import Machine

__all__ = ["NetworkInterface"]


class NetworkInterface:
    """One NIC: host send/receive path plus a line-rate transmit queue."""

    def __init__(self, sim: Simulator, machine: "Machine", params: NicParams):
        self.sim = sim
        self.machine = machine
        self.params = params
        self.name = params.name
        #: Frames not yet departed, in line order: (start, depart, nbytes, hold).
        self._frames: deque = deque()
        self._line_free = 0.0
        # statistics (the transmit half settles lazily, see _settle)
        self._packets_sent = 0
        self._bytes_sent = 0
        self._line_busy_time = 0.0
        self.packets_received = 0
        self.bytes_received = 0
        self.enobufs_count = 0
        self._last_activity = -float("inf")

    #: A NIC counts as "active" for contention purposes this long after its
    #: last packet (one scheduler quantum's worth of driver state).
    ACTIVITY_WINDOW = 0.05

    def _settle(self) -> None:
        """Count every frame whose departure the clock has reached."""
        frames = self._frames
        now = self.sim.now
        while frames and frames[0][1] <= now:
            _, depart, nbytes, hold = frames.popleft()
            self._line_busy_time += hold
            self._packets_sent += 1
            self._bytes_sent += nbytes
            self._last_activity = max(self._last_activity, depart)

    @property
    def packets_sent(self) -> int:
        """Frames that finished serializing onto the line."""
        self._settle()
        return self._packets_sent

    @property
    def bytes_sent(self) -> int:
        """Payload bytes of the frames in :attr:`packets_sent`."""
        self._settle()
        return self._bytes_sent

    @property
    def line_busy_time(self) -> float:
        """Seconds the line spent serializing those frames."""
        self._settle()
        return self._line_busy_time

    @property
    def recently_active(self) -> bool:
        """True if this NIC moved a packet within ACTIVITY_WINDOW seconds."""
        self._settle()
        return (self.sim.now - self._last_activity) < self.ACTIVITY_WINDOW

    def _backlog(self) -> int:
        """Frames queued behind the line: those that have not started yet."""
        now = self.sim.now
        waiting = 0
        for start, _, _, _ in reversed(self._frames):
            if start <= now:
                break
            waiting += 1
        return waiting

    # -- host transmit path -------------------------------------------------

    def udp_send(self, nbytes: int) -> Generator:
        """Full host send path for one UDP packet of ``nbytes`` payload.

        Holds the CPU through protocol processing, copy and checksum (so
        interrupts and other senders queue behind it), then DMAs the packet
        to the interface and enqueues it for line transmission.
        """
        if nbytes <= 0:
            raise ValueError(f"non-positive packet size {nbytes}")
        cpu = self.machine.cpu
        memory = self.machine.memory
        req = yield from cpu.claim()
        start = self.sim.now
        try:
            self._last_activity = self.sim.now
            stall = cpu.io_stall_time()
            outstanding = self.machine.outstanding_commands()
            stall += cpu.params.packet_disk_penalty * outstanding
            yield self.sim.timeout(cpu.params.udp_send_overhead + stall)
            yield memory.copy(nbytes)  # user space -> kernel mbuf
            yield memory.read(nbytes)  # UDP checksum
        finally:
            cpu.release(req, busy=self.sim.now - start)
        # Interface output queue: full queue -> ENOBUFS, back off, retry.
        while self._backlog() >= self.params.txq_depth:
            self.enobufs_count += 1
            yield self.sim.timeout(self.params.enobufs_backoff)
        yield memory.dma_read(nbytes)  # device bus-master read
        self._settle()
        begin = max(self.sim.now, self._line_free)
        wire_bytes = nbytes + self.params.header_bytes
        hold = wire_bytes / self.params.line_rate + self.params.frame_overhead
        self._line_free = begin + hold
        self._frames.append((begin, self._line_free, nbytes, hold))

    def udp_receive(self, nbytes: int) -> Generator:
        """Host receive path: device DMA write, checksum, copy to user."""
        if nbytes <= 0:
            raise ValueError(f"non-positive packet size {nbytes}")
        cpu = self.machine.cpu
        memory = self.machine.memory
        yield memory.dma_write(nbytes)  # device -> mbuf
        req = yield from cpu.claim()
        start = self.sim.now
        try:
            stall = cpu.io_stall_time()
            yield self.sim.timeout(cpu.params.udp_recv_overhead + stall)
            yield memory.read(nbytes)  # checksum verify
            yield memory.copy(nbytes)  # mbuf -> user space
        finally:
            cpu.release(req, busy=self.sim.now - start)
        self.packets_received += 1
        self.bytes_received += nbytes

    def throughput(self, elapsed: float) -> float:
        """Payload bytes/sec sent since construction over ``elapsed``."""
        return self.bytes_sent / elapsed if elapsed > 0 else 0.0
