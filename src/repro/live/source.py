"""The broadcaster: a feed host pushing one live channel's media.

Unlike VoD recording (client-initiated, §2.1), a live channel's ingest
is *server-initiated*: the EPG opens the channel and the MSU dials the
broadcaster's VCR channel with a ``StreamReady`` carrying the record
address.  The source then paces its packets onto that address in real
time and signs off with ``VCR_QUIT`` — exactly the quit path a
recording client uses, so the MSU's drain/finish machinery is reused
unchanged.

A source can be *stalled* (chaos: ``live_ingest_stall``): the feed goes
silent for a window and then resumes, shifted — the channel's fan-out
idles at the tail meanwhile, and viewers simply receive nothing new,
which is what a dead satellite uplink looks like.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence, Tuple

from repro.net import messages as m
from repro.net.network import ControlChannel, Host
from repro.sim import Simulator

__all__ = ["LiveSource"]


class LiveSource:
    """One feed host: answers MSU dial-ins for its channels' ingest."""

    def __init__(self, sim: Simulator, cluster, host_name: str):
        self.sim = sim
        self.cluster = cluster
        self.host_name = host_name
        self.host = Host(sim, cluster.delivery_net, host_name)
        #: content name -> packet schedule to broadcast when dialed.
        self._feeds: dict = {}
        self.packets_sent = 0
        self.broadcasts_started = 0
        self.broadcasts_finished = 0
        #: (stall_at_seconds_into_feed, stall_seconds) or None.
        self.stall_window: Optional[Tuple[float, float]] = None
        self.stalls = 0
        cluster.register_vcr_listener(host_name, self._on_vcr_channel)

    def add_feed(self, content_name: str, packets: Sequence) -> None:
        """Arm a packet schedule for one lineup entry's content name."""
        self._feeds[content_name] = packets

    def stall(self, at_seconds: float, for_seconds: float) -> None:
        """Arm one feed stall: go silent ``for_seconds`` at ``at_seconds``."""
        self.stall_window = (at_seconds, for_seconds)

    # -- MSU dial-in ---------------------------------------------------------

    def _on_vcr_channel(
        self, group_id: int, channel: ControlChannel, msu_end: str
    ) -> None:
        self.sim.process(
            self._broadcast(group_id, channel),
            name=f"{self.host_name}.feed{group_id}",
        )

    def _broadcast(self, group_id: int, channel: ControlChannel) -> Generator:
        ready = None
        while True:
            msg = yield channel.recv(self.host_name)
            if msg is None:
                return  # channel torn down before the feed started
            if isinstance(msg, m.StreamReady) and msg.record_address is not None:
                ready = msg
                break
            if isinstance(msg, m.EndOfStream):
                return
        packets = self._feeds.get(ready.content_name)
        if packets is None:
            # Nothing armed for this title: sign off immediately so the
            # channel completes as an empty broadcast instead of hanging.
            channel.send(
                self.host_name, m.VcrCommand(group_id, m.VCR_QUIT),
                nbytes=m.WIRE_BYTES,
            )
            return
        self.broadcasts_started += 1
        socket = self.host.bind()
        dest = tuple(ready.record_address)
        origin = self.sim.now
        stalled = False
        ended = []
        self.sim.process(
            self._await_end(channel, ended), name=f"{self.host_name}.end{group_id}"
        )
        for packet in packets:
            due = origin + packet[0] / 1e6
            if (
                not stalled
                and self.stall_window is not None
                and packet[0] / 1e6 >= self.stall_window[0]
            ):
                stalled = True
                self.stalls += 1
                yield self.sim.timeout(self.stall_window[1])
                origin += self.stall_window[1]  # feed resumes, shifted
                due += self.stall_window[1]
            if due > self.sim.now:
                yield self.sim.timeout(due - self.sim.now)
            if ended:
                socket.close()
                return
            yield from socket.send(dest, packet[1])
            self.packets_sent += 1
        socket.close()
        self.broadcasts_finished += 1
        if channel.open:
            channel.send(
                self.host_name, m.VcrCommand(group_id, m.VCR_QUIT),
                nbytes=m.WIRE_BYTES,
            )

    def _await_end(self, channel: ControlChannel, ended: list) -> Generator:
        """Note the MSU ending the ingest with EndOfStream (a forced
        stop).  A break without it is the MSU crashing; the feed plays
        on, as an uplink does not hear a dead receiver."""
        while True:
            msg = yield channel.recv(self.host_name)
            if msg is None:
                return
            if isinstance(msg, m.EndOfStream):
                ended.append(msg)
                return
