"""Hosts, sockets, datagram networks and control channels.

Calliope's topology (§2): a low-bandwidth intra-server Ethernet carries
Coordinator/MSU control traffic over TCP; a high-bandwidth delivery
network (FDDI) carries real-time data to clients over UDP, plus one TCP
control connection per active stream for VCR commands.

A :class:`Host` may own a simulated :class:`~repro.hardware.machine.Machine`
(MSUs and the Coordinator do), in which case packets pay the full host
send/receive path on that machine's NIC; plain client hosts pay only wire
latency (client CPUs are outside the paper's measurement scope).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.hardware.machine import Machine
from repro.hardware.nic import NetworkInterface
from repro.sim import Simulator, Store

__all__ = [
    "Datagram", "UdpSocket", "Host", "Network", "ControlChannel",
    "MULTICAST_PREFIX", "is_multicast",
]

Address = Tuple[str, int]  # (host name, port)

#: Host names starting with this prefix are multicast group addresses:
#: they name a delivery group on the network, not a registered host.
MULTICAST_PREFIX = "mcast:"


def is_multicast(address: Address) -> bool:
    """True when ``address`` names a multicast group, not a host."""
    return address[0].startswith(MULTICAST_PREFIX)


@dataclass(frozen=True)
class Datagram:
    """One UDP datagram on a simulated wire."""

    src: Address
    dst: Address
    payload: bytes
    sent_at: float = 0.0


class UdpSocket:
    """A bound UDP endpoint: a mailbox of received datagrams."""

    def __init__(self, sim: Simulator, host: "Host", port: int):
        self.sim = sim
        self.host = host
        self.port = port
        self._mailbox = Store(sim, name=f"{host.name}:{port}")
        self.received = 0
        self.dropped = 0
        #: Optional callback invoked on every delivery (e.g. IOP wakeup).
        self.notify: Optional[Callable[[], None]] = None
        #: Optional consumer of every datagram, called in the arrival's own
        #: slot instead of filling the mailbox (a client display port).
        self.sink: Optional[Callable[[Datagram], None]] = None

    @property
    def address(self) -> Address:
        """The (host, port) this socket is bound to."""
        return (self.host.name, self.port)

    def recv(self):
        """Event that fires with the next :class:`Datagram`."""
        return self._mailbox.get()

    def try_recv(self) -> Optional[Datagram]:
        """Non-blocking receive."""
        return self._mailbox.try_get()

    def pending(self) -> int:
        """Datagrams waiting in the mailbox."""
        return len(self._mailbox)

    def send(self, dst: Address, payload: bytes) -> Generator:
        """Send a datagram (full host path if this host has a machine).

        ``yield from sock.send(...)``: the network's send path itself, so
        the socket adds no generator frame to the sender's stack.
        """
        host = self.host
        return host.network.send(
            Datagram((host.name, self.port), dst, payload, host.sim.now)
        )

    def close(self) -> None:
        """Unbind the socket; further arrivals are dropped."""
        self.host.unbind(self.port)


class Host:
    """A named endpoint on a network, optionally backed by a Machine NIC."""

    def __init__(
        self,
        sim: Simulator,
        network: "Network",
        name: str,
        machine: Optional[Machine] = None,
        nic: Optional[NetworkInterface] = None,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.machine = machine
        self.nic = nic
        self._sockets: Dict[int, UdpSocket] = {}
        self._next_port = 5000
        network._register(self)

    def bind(self, port: Optional[int] = None) -> UdpSocket:
        """Create a UDP socket on ``port`` (or an ephemeral one)."""
        if port is None:
            while self._next_port in self._sockets:
                self._next_port += 1
            port = self._next_port
            self._next_port += 1
        if port in self._sockets:
            raise ProtocolError(f"{self.name}: port {port} already bound")
        sock = UdpSocket(self.sim, self, port)
        self._sockets[port] = sock
        return sock

    def unbind(self, port: int) -> None:
        """Release a bound port."""
        self._sockets.pop(port, None)

    def socket_on(self, port: int) -> Optional[UdpSocket]:
        """The socket bound to ``port``, if any."""
        return self._sockets.get(port)


class Network:
    """A datagram network: latency + optional jitter between hosts.

    ``send`` is a simulation process: it pays the sender's host path (NIC
    send on machine-backed hosts), then the wire latency, then the
    receiver's host path, then deposits into the destination mailbox.
    Unknown destinations are silently dropped (UDP semantics).

    A multicast send draws every member's wire delay in member order and
    schedules one arrival per distinct delay, carrying all the members
    that share it; without jitter that is one queue entry per send,
    whatever the group size.  Delivery order is the same as with one
    entry per member: such entries would sit back to back at one instant
    with nothing able to run between them, and whatever a delivery
    schedules runs after the last copy either way.  Partition, host and
    socket checks run per member at arrival.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "net0",
        latency: float = 0.0005,
        jitter: float = 0.0,
        loss_rate: float = 0.0,
        seed: int = 5,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ProtocolError(f"loss rate {loss_rate} outside [0, 1)")
        self.sim = sim
        self.name = name
        self.latency = latency
        self.jitter = jitter
        self.loss_rate = loss_rate
        self._rng = np.random.default_rng(seed)
        self._hosts: Dict[str, Host] = {}
        self._groups: Dict[str, set] = {}
        #: Hosts cut off from the wire (a partition fault): datagrams to
        #: or from a partitioned host drop silently, UDP-style.
        self._partitioned: set = set()
        self.datagrams_carried = 0
        self.datagrams_lost = 0
        self.datagrams_partitioned = 0
        self.bytes_carried = 0
        #: Datagrams sent to a multicast group (counted once per send).
        self.multicast_carried = 0
        #: Per-member copies fanned out at delivery (the shared-ring model:
        #: one set of wire bytes, one receive path per listening member).
        self.multicast_copies = 0

    def _register(self, host: Host) -> None:
        if host.name in self._hosts:
            raise ProtocolError(f"duplicate host {host.name!r} on {self.name}")
        self._hosts[host.name] = host

    def join_group(self, group: str, member: Address) -> None:
        """Subscribe ``member`` (a unicast socket address) to ``group``."""
        if not group.startswith(MULTICAST_PREFIX):
            raise ProtocolError(f"{group!r} is not a multicast group name")
        self._groups.setdefault(group, set()).add(tuple(member))

    def leave_group(self, group: str, member: Address) -> None:
        """Unsubscribe ``member`` from ``group`` (no-op when absent)."""
        members = self._groups.get(group)
        if members is None:
            return
        members.discard(tuple(member))
        if not members:
            del self._groups[group]

    def group_members(self, group: str) -> Tuple[Address, ...]:
        """Current members of ``group`` (deterministic order)."""
        return tuple(sorted(self._groups.get(group, ())))

    def partition(self, host_name: str) -> None:
        """Cut ``host_name`` off the wire: its traffic drops both ways."""
        self._partitioned.add(host_name)

    def heal(self, host_name: str) -> None:
        """Reconnect a partitioned host (no-op when not partitioned)."""
        self._partitioned.discard(host_name)

    def is_partitioned(self, host_name: str) -> bool:
        """True while ``host_name`` is cut off by :meth:`partition`."""
        return host_name in self._partitioned

    def _wire_delay(self) -> float:
        if self.jitter > 0:
            return self.latency + float(self._rng.uniform(0.0, self.jitter))
        return self.latency

    def send(self, dgram: Datagram) -> Generator:
        """Carry one datagram end to end (see class docstring)."""
        src_host = self._hosts.get(dgram.src[0])
        if src_host is not None and src_host.nic is not None:
            yield from src_host.nic.udp_send(max(1, len(dgram.payload)))
        self.datagrams_carried += 1
        self.bytes_carried += len(dgram.payload)
        if dgram.src[0] in self._partitioned:
            self.datagrams_partitioned += 1
            return
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.datagrams_lost += 1  # dropped on the wire (UDP semantics)
            return
        if is_multicast(dgram.dst):
            # Shared-ring fan-out: the wire carries the bytes once; every
            # subscribed member runs its own receive path.  The datagram
            # keeps the group destination, as IP multicast does, so a
            # receiver can tell a channel flow from a unicast patch flow.
            self.multicast_carried += 1
            members = self.group_members(dgram.dst[0])
            self.multicast_copies += len(members)
            arrivals: Dict[float, List[Address]] = {}
            for member in members:
                arrivals.setdefault(self._wire_delay(), []).append(member)
            for delay, dests in arrivals.items():
                self.sim.schedule(delay, self._arrive, dgram, tuple(dests))
            return
        self.sim.schedule(self._wire_delay(), self._arrive, dgram, (dgram.dst,))

    def _arrive(self, dgram: Datagram, dests: Tuple[Address, ...]) -> None:
        for dest in dests:
            if dest[0] in self._partitioned:
                self.datagrams_partitioned += 1
                continue
            host = self._hosts.get(dest[0])
            if host is None:
                continue
            if host.nic is not None:
                self.sim.process(
                    self._receive_path(host, dgram, dest[1]), name="rx"
                )
            else:
                self._deliver(host, dgram, dest[1])

    def _receive_path(self, host: Host, dgram: Datagram, port: int) -> Generator:
        yield from host.nic.udp_receive(max(1, len(dgram.payload)))
        self._deliver(host, dgram, port)

    def _deliver(self, host: Host, dgram: Datagram, port: int) -> None:
        sock = host.socket_on(port)
        if sock is None:
            return  # no listener: dropped, as UDP does
        if sock.sink is not None:
            sock.sink(dgram)
        else:
            sock._mailbox.put(dgram)
        sock.received += 1
        if sock.notify is not None:
            sock.notify()


class ControlChannel:
    """A TCP-like duplex control connection between two endpoints.

    In-order, reliable, with per-message wire latency.  ``close`` wakes the
    peer with a ``None`` message — the Coordinator detects MSU failures by
    exactly this "break in the TCP connection" (§2.2).
    """

    def __init__(self, sim: Simulator, a: str, b: str, latency: float = 0.001,
                 network: Optional[Network] = None):
        self.sim = sim
        self.latency = latency
        self.network = network
        self.ends = (a, b)
        self._mailboxes = {a: Store(sim, name=f"chan:{a}"), b: Store(sim, name=f"chan:{b}")}
        self.open = True
        self.messages_carried = 0
        self.bytes_carried = 0
        #: Optional hook called with (sender_end, message) for accounting.
        self.on_message: Optional[Callable[[str, Any], None]] = None

    def _peer(self, end: str) -> str:
        a, b = self.ends
        if end == a:
            return b
        if end == b:
            return a
        raise ProtocolError(f"{end!r} is not an end of this channel")

    def send(self, sender: str, message: Any, nbytes: int = 128) -> None:
        """Send ``message`` to the peer of ``sender`` (fire and forget)."""
        if not self.open:
            return  # writes on a broken connection vanish
        peer = self._peer(sender)
        self.messages_carried += 1
        self.bytes_carried += nbytes
        if self.network is not None:
            self.network.bytes_carried += nbytes
            self.network.datagrams_carried += 1
        if self.on_message is not None:
            self.on_message(sender, message)
        self.sim.schedule(self.latency, self._mailboxes[peer].deliver, message)

    def recv(self, end: str):
        """Event firing with the next message for ``end`` (None = break)."""
        self._peer(end)  # validates the end name
        return self._mailboxes[end].get()

    def close(self) -> None:
        """Break the connection; both ends see a ``None`` wake-up."""
        if not self.open:
            return
        self.open = False
        for box in self._mailboxes.values():
            self.sim.schedule(self.latency, box.deliver, None)
