"""A Calliope client application (§2.1).

Wraps the whole client lifecycle: open a session with the Coordinator,
register display ports (UDP sockets with names and types), request plays
and recordings, drive VCR commands over the per-group MSU control
connection, and collect receive statistics per port.

All request methods are simulation processes (``yield from client.play(...)``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.cluster import CalliopeCluster
from repro.errors import CalliopeError
from repro.net import messages as m
from repro.net.network import ControlChannel, Datagram, Host, UdpSocket, is_multicast
from repro.sim import Event, Simulator

__all__ = ["Client", "PortStats", "GroupView"]


@dataclass
class PortStats:
    """Receive-side accounting for one display port.

    Every arrival is kept, as two flat columns (time, size) rather than
    a tuple per packet: a port on a long run receives hundreds of
    thousands of packets, and a boxed tuple costs ~10x the 12 bytes the
    columns do (DESIGN.md §13.8).
    """

    packets: int = 0
    bytes: int = 0
    first_arrival: Optional[float] = None
    last_arrival: Optional[float] = None
    #: Payload bytes, kept only when the port captures (tests/decoders).
    payloads: Optional[List[bytes]] = None
    _times: array = field(default_factory=lambda: array("d"), init=False, repr=False)
    _sizes: array = field(default_factory=lambda: array("I"), init=False, repr=False)

    @property
    def arrivals(self) -> List[Tuple[float, int]]:
        """Every arrival as ``(time, nbytes)``, in arrival order (a copy)."""
        return list(zip(self._times, self._sizes))

    def note(self, now: float, nbytes: int, payload: Optional[bytes] = None) -> None:
        self.packets += 1
        self.bytes += nbytes
        if self.first_arrival is None:
            self.first_arrival = now
        self.last_arrival = now
        self._times.append(now)
        self._sizes.append(nbytes)
        if self.payloads is not None and payload is not None:
            self.payloads.append(payload)


class _Port:
    """Client side of a display port: a named, typed socket.

    Two-port protocols (RTP, §2.3.2) also own a control socket on the
    next port number, where the MSU demultiplexes interleaved control
    messages on playback.
    """

    def __init__(self, name: str, type_name: str, socket: Optional[UdpSocket]):
        self.name = name
        self.type_name = type_name
        self.socket = socket
        self.control_socket: Optional[UdpSocket] = None
        self.stats = PortStats()
        self.control_stats = PortStats()
        #: Data that arrived via a multicast channel (group destination).
        self.channel_stats = PortStats()
        #: Data that arrived as plain unicast — a whole stream, or the
        #: bounded patch that fills in a late joiner's missed prefix.
        self.unicast_stats = PortStats()
        self.component_ports: Tuple[str, ...] = ()


class GroupView:
    """Client-side view of one scheduled stream group."""

    def __init__(self, sim: Simulator, group_id: int):
        self.group_id = group_id
        self.channel: Optional[ControlChannel] = None
        self.msu_name = ""
        self.ready_streams: Dict[int, m.StreamReady] = {}
        self.ended_streams: set = set()
        self.ready_event = Event(sim, name=f"group{group_id}.ready")
        self.done_event = Event(sim, name=f"group{group_id}.done")
        self.closed = False
        #: Set when the client gave up on a queued request before it was
        #: scheduled: the group is quit the moment control arrives.
        self.abandoned = False
        #: Times this group was moved to another MSU by failover.
        self.migrations = 0
        #: Set by quit(): a broken VCR channel is then expected, not a
        #: failure worth waiting out reconnect retries for.
        self.quit_requested = False

    def record_addresses(self) -> Dict[str, Tuple[str, int]]:
        """content name -> MSU address to send recorded media to."""
        return {
            r.content_name: r.record_address
            for r in self.ready_streams.values()
            if r.record_address is not None
        }


class Client:
    """One client program and its display ports."""

    def __init__(
        self,
        sim: Simulator,
        cluster: CalliopeCluster,
        name: str,
        reconnect_retries: int = 0,
        reconnect_backoff: float = 0.5,
    ):
        self.sim = sim
        self.cluster = cluster
        self.name = name
        #: How many backoff rounds to wait for a replacement VCR channel
        #: after a break before declaring the group done (0 reproduces
        #: the pre-failover behavior: any break ends the group).
        self.reconnect_retries = reconnect_retries
        self.reconnect_backoff = reconnect_backoff
        self.host = Host(sim, cluster.delivery_net, name)
        self.channel = cluster.connect_client(name)
        cluster.register_vcr_listener(name, self._on_vcr_channel)
        self.session_id: Optional[int] = None
        self.ports: Dict[str, _Port] = {}
        self.groups: Dict[int, GroupView] = {}
        # Replies are matched to requests by id, so concurrent viewers can
        # share this one Coordinator connection safely (queued requests
        # answer out of order, §2.2).
        self._pending_rpcs: Dict[int, Event] = {}
        self._next_rpc = 1
        self.sim.process(self._route_replies(), name=f"{name}.rpc")

    # -- RPC plumbing ---------------------------------------------------------

    def _rid(self) -> int:
        self._next_rpc += 1
        return self._next_rpc

    def _route_replies(self) -> Generator:
        while True:
            reply = yield self.channel.recv(self.name)
            if reply is None:
                for event in self._pending_rpcs.values():
                    if not event.triggered:
                        event.fail(CalliopeError("coordinator connection closed"))
                self._pending_rpcs.clear()
                return
            if isinstance(reply, m.StreamMigrated):
                self._on_migrated(reply)
                continue
            event = self._pending_rpcs.pop(getattr(reply, "request_id", 0), None)
            if event is not None and not event.triggered:
                event.succeed(reply)

    def _on_migrated(self, notice: m.StreamMigrated) -> None:
        """Failover moved one of our groups; note the new home MSU."""
        view = self.groups.get(notice.group_id)
        if view is None:
            return
        view.msu_name = notice.msu_name
        view.migrations += 1

    def _send_rpc(self, message) -> Event:
        if not self.channel.open:
            # A send into a closed channel silently vanishes; the caller
            # would block forever on a reply that can never come.
            raise CalliopeError("coordinator connection closed")
        event = Event(self.sim, name=f"rpc{message.request_id}")
        self._pending_rpcs[message.request_id] = event
        self.channel.send(self.name, message, nbytes=m.WIRE_BYTES)
        return event

    def _rpc(self, message) -> Generator:
        reply = yield self._send_rpc(message)
        if isinstance(reply, m.RequestFailed):
            raise CalliopeError(reply.reason)
        return reply

    # -- VCR channel arrival ---------------------------------------------------

    def _on_vcr_channel(self, group_id: int, channel: ControlChannel, msu_end: str) -> None:
        view = self.groups.get(group_id)
        if view is None:
            view = GroupView(self.sim, group_id)
            self.groups[group_id] = view
        view.channel = channel
        self.sim.process(self._vcr_listener(view), name=f"{self.name}.vcr{group_id}")
        if view.abandoned:
            self.quit(group_id)

    def _vcr_listener(self, view: GroupView) -> Generator:
        channel = view.channel
        while True:
            msg = yield channel.recv(self.name)
            if msg is None:
                if (
                    self.reconnect_retries > 0
                    and not view.quit_requested
                    and not view.done_event.triggered
                ):
                    # Failover may be migrating the group: wait (with
                    # backoff) for a replacement channel before giving up.
                    self.sim.process(
                        self._await_reconnect(view, channel),
                        name=f"{self.name}.reconnect{view.group_id}",
                    )
                    return
                view.closed = True
                if not view.done_event.triggered:
                    view.done_event.succeed()
                return
            if isinstance(msg, m.StreamReady):
                view.msu_name = msg.msu_name
                view.ready_streams[msg.stream_id] = msg
                if (
                    len(view.ready_streams) >= msg.group_size
                    and not view.ready_event.triggered
                ):
                    view.ready_event.succeed()
            elif isinstance(msg, m.EndOfStream):
                view.ended_streams.add(msg.stream_id)
                if (
                    view.ready_streams
                    and view.ended_streams >= set(view.ready_streams)
                    and not view.done_event.triggered
                ):
                    view.done_event.succeed()

    def _await_reconnect(self, view: GroupView, old_channel) -> Generator:
        """Retry loop: has a migrated MSU replaced our VCR channel yet?

        The cluster hands replacement channels to :meth:`_on_vcr_channel`
        (which spawns a fresh listener), so this only needs to notice the
        swap — or give up after the configured retries and declare the
        group done, as an unrecovered break always did.
        """
        backoff = self.reconnect_backoff
        for _ in range(self.reconnect_retries):
            yield self.sim.timeout(backoff)
            backoff *= 2.0
            if view.quit_requested or view.done_event.triggered:
                return
            if view.channel is not old_channel and view.channel.open:
                return  # migrated: the new channel's listener took over
        view.closed = True
        if not view.done_event.triggered:
            view.done_event.succeed()

    # -- session -----------------------------------------------------------------

    def open_session(self, customer: str = "user") -> Generator:
        """Establish the Coordinator session."""
        reply = yield from self._rpc(m.OpenSession(customer, request_id=self._rid()))
        self.session_id = reply.session_id
        return self.session_id

    def close_session(self) -> None:
        """Drop the session (Coordinator deallocates our ports, §2.1)."""
        if self.session_id is not None:
            self.channel.send(
                self.name, m.CloseSession(self.session_id), nbytes=m.WIRE_BYTES
            )
            self.session_id = None

    def list_contents(self) -> Generator:
        """Fetch the table of contents; returns (name, type) pairs."""
        reply = yield from self._rpc(
            m.ListContents(self.session_id, request_id=self._rid())
        )
        return list(reply.items)

    # -- display ports -----------------------------------------------------------------

    def register_port(
        self, port_name: str, type_name: str, capture_payloads: bool = False
    ) -> Generator:
        """Create a socket, register it, and account what arrives on it.

        ``capture_payloads`` keeps every received payload in the port's
        stats — the software-decoder case, at memory cost.
        """
        socket = self.host.bind()
        try:
            yield from self._rpc(
                m.RegisterPort(
                    self.session_id, port_name, type_name, socket.address,
                    request_id=self._rid(),
                )
            )
        except CalliopeError:
            socket.close()
            raise
        port = _Port(port_name, type_name, socket)
        if capture_payloads:
            port.stats.payloads = []
            port.control_stats.payloads = []
        # Two-port protocols (RTP) listen for control traffic one port up.
        try:
            ctype = self.cluster.coordinator.types.get(type_name)
            module_ports = (
                self.cluster.msus[0].protocols.get(ctype.protocol).playback_ports()
                if self.cluster.msus else 1
            )
        except Exception:
            module_ports = 1
        if module_ports > 1:
            port.control_socket = self.host.bind(socket.port + 1)
            port.control_socket.sink = lambda dgram: port.control_stats.note(
                self.sim.now, len(dgram.payload), dgram.payload
            )
        self.ports[port_name] = port
        socket.sink = lambda dgram: self._on_data(port, dgram)
        return port

    def register_composite_port(
        self, port_name: str, type_name: str, component_ports: Sequence[str]
    ) -> Generator:
        """Compose previously-registered ports into a composite port."""
        yield from self._rpc(
            m.RegisterCompositePort(
                self.session_id, port_name, type_name, tuple(component_ports),
                request_id=self._rid(),
            )
        )
        port = _Port(port_name, type_name, None)
        port.component_ports = tuple(component_ports)
        self.ports[port_name] = port
        return port

    def close_port(self, port_name: str) -> None:
        """Unregister locally and release the port's sockets."""
        port = self.ports.pop(port_name, None)
        if port is None:
            return
        if port.socket is not None:
            port.socket.close()
        if port.control_socket is not None:
            port.control_socket.close()

    def _on_data(self, port: _Port, dgram: Datagram) -> None:
        """A display port's sink: account one datagram as it arrives."""
        now, nbytes = self.sim.now, len(dgram.payload)
        port.stats.note(now, nbytes, dgram.payload)
        # A late joiner receives its patch (unicast) and the channel (group
        # destination) simultaneously; keep the flows apart so playback
        # can splice them in order.
        flow = port.channel_stats if is_multicast(dgram.dst) else port.unicast_stats
        flow.note(now, nbytes)

    # -- play / record ---------------------------------------------------------------------

    def play(self, content_name: str, port_name: str) -> Generator:
        """Request playback; returns the GroupView once scheduled.

        Blocks while the request sits in the Coordinator's scheduling
        queue (§2.2); use :meth:`play_with_timeout` to abandon instead.
        """
        reply = yield from self._rpc(
            m.PlayRequest(
                self.session_id, content_name, port_name, request_id=self._rid()
            )
        )
        return self._group_view(reply)

    def play_with_timeout(
        self, content_name: str, port_name: str, timeout: float
    ) -> Generator:
        """Request playback, abandoning after ``timeout`` seconds queued.

        Returns the GroupView, or None when patience ran out.  A stream
        the Coordinator schedules after abandonment is quit immediately.
        """
        message = m.PlayRequest(
            self.session_id, content_name, port_name, request_id=self._rid()
        )
        event = self._send_rpc(message)
        index, value = yield self.sim.any_of([event, self.sim.timeout(timeout)])
        if index == 0:
            if isinstance(value, m.RequestFailed):
                raise CalliopeError(value.reason)
            return self._group_view(value)
        event.add_callback(self._quit_late_schedule)
        return None

    def _quit_late_schedule(self, event) -> None:
        """A reply arrived for an abandoned play: release it."""
        try:
            reply = event.value
        except Exception:
            return
        if isinstance(reply, m.StreamScheduled):
            view = self._group_view(reply)
            view.abandoned = True
            if view.channel is not None:
                self.quit(view.group_id)

    def record(
        self,
        content_name: str,
        type_name: str,
        port_name: str,
        estimate_seconds: float,
    ) -> Generator:
        """Request a recording; returns the GroupView once scheduled."""
        reply = yield from self._rpc(
            m.RecordRequest(
                self.session_id, content_name, type_name, port_name,
                estimate_seconds, request_id=self._rid(),
            )
        )
        return self._group_view(reply)

    def _group_view(self, reply: m.StreamScheduled) -> GroupView:
        view = self.groups.get(reply.group_id)
        if view is None:
            view = GroupView(self.sim, reply.group_id)
            self.groups[reply.group_id] = view
        view.msu_name = reply.msu_name
        return view

    # -- VCR ------------------------------------------------------------------------------

    def vcr(self, group_id: int, command: str, position_seconds: float = 0.0) -> None:
        """Issue a VCR command on a group's control connection."""
        view = self.groups.get(group_id)
        if view is None or view.channel is None:
            raise CalliopeError(f"no control connection for group {group_id}")
        view.channel.send(
            self.name, m.VcrCommand(group_id, command, position_seconds),
            nbytes=m.WIRE_BYTES,
        )

    def quit(self, group_id: int) -> None:
        """Terminate a group (§2.1's "quit")."""
        view = self.groups.get(group_id)
        if view is not None:
            view.quit_requested = True
        self.vcr(group_id, m.VCR_QUIT)

    def wait_ready(self, view: GroupView) -> Generator:
        """Wait until the MSU's control connection says StreamReady."""
        if not view.ready_event.triggered:
            yield view.ready_event
        return view

    def wait_done(self, view: GroupView) -> Generator:
        """Wait for end of stream (or channel close) on every member."""
        if not view.done_event.triggered:
            yield view.done_event
        return view

    # -- recording source ---------------------------------------------------------------------

    def send_stream(
        self,
        port_name: str,
        dest: Tuple[str, int],
        packets: Sequence,
        start_at: Optional[float] = None,
    ) -> Generator:
        """Transmit ``packets`` (SourcePacket sequence) on their schedule."""
        port = self.ports[port_name]
        if port.socket is None:
            raise CalliopeError(f"port {port_name!r} has no socket (composite?)")
        origin = self.sim.now if start_at is None else start_at
        for packet in packets:
            due = origin + packet[0] / 1e6
            if due > self.sim.now:
                yield self.sim.timeout(due - self.sim.now)
            yield from port.socket.send(dest, packet[1])
