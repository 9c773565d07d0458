"""Simulated networks: datagram delivery, control channels."""

import pytest

from repro.errors import ProtocolError
from repro.hardware import Machine, MachineParams
from repro.hardware.params import FDDI
from repro.net import ControlChannel, Datagram, Host, Network
from repro.sim import Simulator
from tests.conftest import run_process


class TestHostsAndSockets:
    def test_bind_ephemeral_ports_unique(self, sim):
        net = Network(sim)
        host = Host(sim, net, "h")
        a, b = host.bind(), host.bind()
        assert a.port != b.port

    def test_bind_duplicate_port_rejected(self, sim):
        net = Network(sim)
        host = Host(sim, net, "h")
        host.bind(7000)
        with pytest.raises(ProtocolError):
            host.bind(7000)

    def test_duplicate_host_rejected(self, sim):
        net = Network(sim)
        Host(sim, net, "h")
        with pytest.raises(ProtocolError):
            Host(sim, net, "h")

    def test_close_unbinds(self, sim):
        net = Network(sim)
        host = Host(sim, net, "h")
        sock = host.bind(7000)
        sock.close()
        assert host.socket_on(7000) is None


class TestDelivery:
    def test_datagram_arrives_after_latency(self, sim):
        net = Network(sim, latency=0.25)
        a = Host(sim, net, "a")
        b = Host(sim, net, "b")
        sa = a.bind(1000)
        sb = b.bind(2000)

        def proc():
            yield from sa.send(("b", 2000), b"ping")
            dgram = yield sb.recv()
            return (sim.now, dgram.payload, dgram.src)

        now, payload, src = run_process(sim, proc())
        assert payload == b"ping"
        assert src == ("a", 1000)
        assert now == pytest.approx(0.25)

    def test_unknown_destination_dropped(self, sim):
        net = Network(sim, latency=0.01)
        a = Host(sim, net, "a")
        sa = a.bind(1000)
        run_process(sim, sa.send(("ghost", 1), b"x"))
        sim.run()  # nothing blows up; datagram vanished

    def test_unbound_port_dropped(self, sim):
        net = Network(sim, latency=0.01)
        a = Host(sim, net, "a")
        b = Host(sim, net, "b")
        sa = a.bind(1000)
        run_process(sim, sa.send(("b", 9999), b"x"))
        sim.run()
        assert net.datagrams_carried == 1

    def test_machine_host_pays_send_path(self, sim):
        net = Network(sim, latency=0.0)
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        nic = machine.add_nic(FDDI)
        a = Host(sim, net, "a", machine=machine, nic=nic)
        b = Host(sim, net, "b")
        sa = a.bind(1000)
        b.bind(2000)
        run_process(sim, sa.send(("b", 2000), b"x" * 4096))
        assert sim.now > 0.0003  # copy + checksum + dma took real time
        assert nic.packets_sent == 0 or nic.bytes_sent >= 0

    def test_notify_callback_fires(self, sim):
        net = Network(sim, latency=0.0)
        a = Host(sim, net, "a")
        b = Host(sim, net, "b")
        sa = a.bind(1000)
        sb = b.bind(2000)
        pings = []
        sb.notify = lambda: pings.append(sim.now)
        run_process(sim, sa.send(("b", 2000), b"x"))
        sim.run()
        assert len(pings) == 1

    def test_sink_takes_datagram_in_the_arrival_slot(self, sim):
        net = Network(sim, latency=0.25)
        a = Host(sim, net, "a")
        b = Host(sim, net, "b")
        sa = a.bind(1000)
        sb = b.bind(2000)
        got = []
        sb.sink = lambda dgram: got.append((sim.now, dgram.payload))
        run_process(sim, sa.send(("b", 2000), b"ping"))
        before = sim.events_executed
        sim.run()
        assert got == [(0.25, b"ping")]
        assert sim.events_executed - before == 1  # the wire arrival only
        assert sb.pending() == 0 and sb.received == 1

    def test_jitter_bounded(self):
        sim = Simulator()
        net = Network(sim, latency=0.01, jitter=0.005, seed=3)
        a = Host(sim, net, "a")
        b = Host(sim, net, "b")
        sa = a.bind(1000)
        sb = b.bind(2000)
        arrivals = []

        def sender():
            for _ in range(50):
                yield from sa.send(("b", 2000), b"x")

        def receiver():
            for _ in range(50):
                yield sb.recv()
                arrivals.append(sim.now)

        sim.process(sender())
        done = sim.process(receiver())
        sim.run_until_event(done)
        assert all(0.01 <= t <= 0.015 + 1e-9 for t in arrivals)


def fanout_group(sim, net, names, record):
    """Bind one sink per host in ``names`` and join them to ``mcast:ch``."""
    for name in names:
        sock = Host(sim, net, name).bind(2000)
        sock.sink = lambda dgram, name=name: record(name, dgram)
        net.join_group("mcast:ch", sock.address)


class TestMulticastFanout:
    def test_unjittered_send_is_one_arrival_entry(self, sim):
        net = Network(sim, latency=0.25)
        sa = Host(sim, net, "a").bind(1000)
        got = []
        fanout_group(sim, net, ("m3", "m0", "m4", "m1", "m2"),
                     lambda name, dgram: got.append((name, sim.now)))
        run_process(sim, sa.send(("mcast:ch", 0), b"x"))
        before = sim.events_executed
        sim.run()
        assert sim.events_executed - before == 1
        order = [host for host, _port in net.group_members("mcast:ch")]
        assert got == [(name, 0.25) for name in order]
        assert net.multicast_copies == 5 and net.multicast_carried == 1

    def test_jittered_arrival_times_are_pinned(self, sim):
        """Each member's delay is drawn in member order, as when every
        copy was its own queue entry; these are that engine's times."""
        net = Network(sim, latency=0.01, jitter=0.005, seed=3)
        sa = Host(sim, net, "a").bind(1000)
        got = []
        fanout_group(sim, net, ("m2", "m0", "m1"),
                     lambda name, dgram: got.append((name, dgram.payload, sim.now)))

        def sender():
            for payload in (b"p0", b"p1"):
                yield from sa.send(("mcast:ch", 0), payload)

        run_process(sim, sender())
        sim.run()
        assert got == [
            ("m0", b"p0", 0.010428245835718122),
            ("m1", b"p1", 0.010470643211201997),
            ("m1", b"p0", 0.011184052532980498),
            ("m2", b"p1", 0.012165634701182369),
            ("m0", b"p1", 0.012910810180321839),
            ("m2", b"p0", 0.014006372326031986),
        ]

    def test_member_partitioned_in_flight_is_the_only_drop(self, sim):
        net = Network(sim, latency=0.25)
        sa = Host(sim, net, "a").bind(1000)
        got = []
        fanout_group(sim, net, ("m0", "m1", "m2"),
                     lambda name, dgram: got.append(name))
        run_process(sim, sa.send(("mcast:ch", 0), b"x"))
        sim.schedule(0.1, net.partition, "m1")
        sim.run()
        assert got == ["m0", "m2"]
        assert net.datagrams_partitioned == 1


class TestControlChannel:
    def test_in_order_delivery(self, sim):
        chan = ControlChannel(sim, "x", "y", latency=0.001)
        for i in range(5):
            chan.send("x", i)

        def receiver():
            out = []
            for _ in range(5):
                msg = yield chan.recv("y")
                out.append(msg)
            return out

        assert run_process(sim, receiver()) == [0, 1, 2, 3, 4]

    def test_close_wakes_both_ends_with_none(self, sim):
        chan = ControlChannel(sim, "x", "y", latency=0.001)

        def end(name):
            msg = yield chan.recv(name)
            return msg

        px = sim.process(end("x"))
        py = sim.process(end("y"))
        chan.close()
        sim.run()
        assert px.value is None and py.value is None

    def test_message_to_blocked_reader_costs_one_event(self, sim):
        chan = ControlChannel(sim, "x", "y", latency=0.001)

        def read_one():
            return (yield chan.recv("y"))

        reader = sim.process(read_one())
        sim.run()
        before = sim.events_executed
        chan.send("x", "m")
        sim.run()
        assert reader.value == "m" and sim.events_executed - before == 1

    def test_send_after_close_vanishes(self, sim):
        chan = ControlChannel(sim, "x", "y", latency=0.001)
        chan.close()
        chan.send("x", "late")
        sim.run()
        assert chan.messages_carried == 0

    def test_unknown_end_rejected(self, sim):
        chan = ControlChannel(sim, "x", "y")
        with pytest.raises(ProtocolError):
            chan.send("z", "msg")
        with pytest.raises(ProtocolError):
            chan.recv("z")

    def test_network_accounting(self, sim):
        net = Network(sim)
        chan = ControlChannel(sim, "x", "y", latency=0.001, network=net)
        chan.send("x", "m", nbytes=300)
        assert net.bytes_carried == 300
        assert chan.bytes_carried == 300
