"""Network-interface model (FDDI delivery side, Ethernet control side).

The transmit path follows the paper's data-path arithmetic (§3.2.3): a
packet costs a fixed CPU overhead (plus the two-HBA I/O stall when the
pathology is active), a user-to-mbuf copy at 18 MB/s, a checksum read at
53 MB/s and a DMA read at 53 MB/s, then serializes onto the line.  A full
output queue produces ENOBUFS and the sender backs off briefly and retries,
exactly as FreeBSD/ttcp behave (§3.1).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.hardware.params import NicParams
from repro.sim import Simulator, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.machine import Machine

__all__ = ["NetworkInterface"]


class NetworkInterface:
    """One NIC: host send/receive path plus a line-rate transmit drain."""

    def __init__(self, sim: Simulator, machine: "Machine", params: NicParams):
        self.sim = sim
        self.machine = machine
        self.params = params
        self.name = params.name
        self._txq: deque = deque()
        self._tx_wakeup = Store(sim, name=f"{params.name}.txq")
        #: Called as ``on_transmit(payload, nbytes)`` when a frame finishes
        #: serializing; the net layer wires this to the simulated wire.
        self.on_transmit: Optional[Callable[[Any, int], None]] = None
        # statistics
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_received = 0
        self.bytes_received = 0
        self.enobufs_count = 0
        self.line_busy_time = 0.0
        self._last_activity = -float("inf")
        sim.process(self._tx_drain(), name=f"{params.name}.tx")

    #: A NIC counts as "active" for contention purposes this long after its
    #: last packet (one scheduler quantum's worth of driver state).
    ACTIVITY_WINDOW = 0.05

    @property
    def recently_active(self) -> bool:
        """True if this NIC moved a packet within ACTIVITY_WINDOW seconds."""
        return (self.sim.now - self._last_activity) < self.ACTIVITY_WINDOW

    @property
    def queue_pressure(self) -> bool:
        """True while the output queue is half full or more.

        Coarsened senders consult this before batching: a loaded interface
        means contention, and the pacing contract (DESIGN.md §13) requires
        falling back to per-packet scheduling under contention.
        """
        return len(self._txq) * 2 >= self.params.txq_depth

    # -- host transmit path -------------------------------------------------

    def udp_send(self, nbytes: int, payload: Any = None) -> Generator:
        """Full host send path for one UDP packet of ``nbytes`` payload.

        Holds the CPU through protocol processing, copy and checksum (so
        interrupts and other senders queue behind it), then DMAs the packet
        to the interface and enqueues it for line transmission.
        """
        if nbytes <= 0:
            raise ValueError(f"non-positive packet size {nbytes}")
        cpu = self.machine.cpu
        memory = self.machine.memory
        start = self.sim.now
        req = cpu.try_acquire()
        try:
            if req is None:
                req = cpu.acquire()
                yield req
            self._last_activity = self.sim.now
            stall = cpu.io_stall_time()
            outstanding = self.machine.outstanding_commands()
            stall += cpu.params.packet_disk_penalty * outstanding
            yield self.sim.timeout(cpu.params.udp_send_overhead + stall)
            yield from memory.copy(nbytes)  # user space -> kernel mbuf
            yield from memory.read(nbytes)  # UDP checksum
        finally:
            cpu.release(req, busy=self.sim.now - start)
        # Interface output queue: full queue -> ENOBUFS, back off, retry.
        while len(self._txq) >= self.params.txq_depth:
            self.enobufs_count += 1
            yield self.sim.timeout(self.params.enobufs_backoff)
        yield from memory.dma_read(nbytes)  # device bus-master read
        self._txq.append((payload, nbytes))
        self._tx_wakeup.put(True)

    def udp_send_burst(self, chunks) -> Generator:
        """Host send path for a burst of UDP packets in one CPU hold.

        ``chunks`` is a list of ``(payload, nbytes)`` pairs.  The coarsened
        pacing contract (DESIGN.md §13): the burst pays the same aggregate
        cost as the per-packet path — n protocol overheads, n packets'
        copy/checksum/DMA bytes — but holds the CPU once and wakes once,
        so a steady-state stream costs O(1) events per batch instead of
        O(events) per packet.  Queue-pressure check happens up front; a
        burst that would overflow the output queue backs off whole.
        """
        if not chunks:
            return
        total = 0
        for _, nbytes in chunks:
            if nbytes <= 0:
                raise ValueError(f"non-positive packet size {nbytes}")
            total += nbytes
        cpu = self.machine.cpu
        memory = self.machine.memory
        n = len(chunks)
        start = self.sim.now
        req = cpu.try_acquire()
        try:
            if req is None:
                req = cpu.acquire()
                yield req
            self._last_activity = self.sim.now
            stall = cpu.io_stall_time()
            outstanding = self.machine.outstanding_commands()
            stall += cpu.params.packet_disk_penalty * outstanding
            yield self.sim.sleep(n * (cpu.params.udp_send_overhead + stall))
            yield from memory.copy(total)  # user space -> kernel mbufs
            yield from memory.read(total)  # UDP checksums
        finally:
            cpu.release(req, busy=self.sim.now - start)
        while len(self._txq) + n > self.params.txq_depth:
            self.enobufs_count += 1
            yield self.sim.sleep(self.params.enobufs_backoff)
        yield from memory.dma_read(total)  # device bus-master reads
        self._txq.extend(chunks)
        self._tx_wakeup.put(True)

    def udp_receive(self, nbytes: int) -> Generator:
        """Host receive path: device DMA write, checksum, copy to user."""
        if nbytes <= 0:
            raise ValueError(f"non-positive packet size {nbytes}")
        cpu = self.machine.cpu
        memory = self.machine.memory
        yield from memory.dma_write(nbytes)  # device -> mbuf
        start = self.sim.now
        req = cpu.try_acquire()
        try:
            if req is None:
                req = cpu.acquire()
                yield req
            stall = cpu.io_stall_time()
            yield self.sim.timeout(cpu.params.udp_recv_overhead + stall)
            yield from memory.read(nbytes)  # checksum verify
            yield from memory.copy(nbytes)  # mbuf -> user space
        finally:
            cpu.release(req, busy=self.sim.now - start)
        self.packets_received += 1
        self.bytes_received += nbytes

    # -- line side ------------------------------------------------------------

    def _tx_drain(self) -> Generator:
        while True:
            yield self._tx_wakeup.get()
            while self._txq:
                batch = self.sim.effective_batch()
                if batch > 1 and len(self._txq) > 1:
                    # Coarsened drain: serialize up to ``batch`` queued
                    # frames under one wakeup.  Line time is the exact sum
                    # of the per-frame holds; the frames just land at the
                    # end of the burst instead of one hold apart.
                    frames = [
                        self._txq.popleft()
                        for _ in range(min(batch, len(self._txq)))
                    ]
                    hold = sum(
                        (nb + self.params.header_bytes) / self.params.line_rate
                        + self.params.frame_overhead
                        for _, nb in frames
                    )
                    yield self.sim.sleep(hold)
                    self._last_activity = self.sim.now
                    self.line_busy_time += hold
                    for payload, nbytes in frames:
                        self.packets_sent += 1
                        self.bytes_sent += nbytes
                        if self.on_transmit is not None:
                            self.on_transmit(payload, nbytes)
                    continue
                payload, nbytes = self._txq.popleft()
                wire_bytes = nbytes + self.params.header_bytes
                hold = wire_bytes / self.params.line_rate + self.params.frame_overhead
                yield self.sim.sleep(hold)
                self._last_activity = self.sim.now
                self.line_busy_time += hold
                self.packets_sent += 1
                self.bytes_sent += nbytes
                if self.on_transmit is not None:
                    self.on_transmit(payload, nbytes)

    def throughput(self, elapsed: float) -> float:
        """Payload bytes/sec sent since construction over ``elapsed``."""
        return self.bytes_sent / elapsed if elapsed > 0 else 0.0
