"""Coordinator behaviour over real control channels (no MSU data path)."""

import ast
import pathlib

import repro
from repro.clients.fake_msu import FakeMsu
from repro.core.coordinator import Coordinator
from repro.core.database import ContentEntry
from repro.net import ControlChannel
from repro.net import messages as m
from repro.recovery.parts import Part
from tests.conftest import run_process


class _World:
    """Coordinator + one fake MSU + one scripted client channel."""

    def __init__(self, sim, n_msus=1):
        self.sim = sim
        self.coordinator = Coordinator(sim)
        self.coordinator.db.add_customer("user")
        self.coordinator.db.add_customer("root", admin=True)
        self.fakes = []
        for i in range(n_msus):
            fake = FakeMsu(sim, f"fake{i}")
            chan = ControlChannel(sim, self.coordinator.name, fake.name, latency=0.001)
            self.coordinator.attach_msu(chan)
            fake.attach_coordinator(chan)
            self.fakes.append(fake)
        sim.run(until=0.01)
        self.channel = ControlChannel(sim, "cli", self.coordinator.name, latency=0.001)
        self.coordinator.connect_client(self.channel, "cli")

    def rpc(self, msg):
        def call():
            self.channel.send("cli", msg)
            reply = yield self.channel.recv("cli")
            return reply

        return run_process(self.sim, call(), limit=self.sim.now + 10)

    def add_clip(self, name="clip", msu="fake0", disk="fake0.sd0"):
        self.coordinator.db.add_content(ContentEntry(name, "mpeg1", msu, disk))


class TestSessions:
    def test_open_session(self, sim):
        world = _World(sim)
        reply = world.rpc(m.OpenSession("user"))
        assert isinstance(reply, m.SessionOpened)

    def test_unknown_customer_rejected(self, sim):
        world = _World(sim)
        reply = world.rpc(m.OpenSession("stranger"))
        assert isinstance(reply, m.RequestFailed)

    def test_listing(self, sim):
        world = _World(sim)
        world.add_clip("alpha")
        world.add_clip("beta")
        sid = world.rpc(m.OpenSession("user")).session_id
        reply = world.rpc(m.ListContents(sid))
        assert reply.items == (("alpha", "mpeg1"), ("beta", "mpeg1"))

    def test_close_session_drops_ports(self, sim):
        world = _World(sim)
        sid = world.rpc(m.OpenSession("user")).session_id
        world.rpc(m.RegisterPort(sid, "p", "mpeg1", ("cli", 6000)))
        world.channel.send("cli", m.CloseSession(sid))
        sim.run(until=sim.now + 0.1)
        assert len(world.coordinator.sessions) == 0


class TestPorts:
    def test_register_port(self, sim):
        world = _World(sim)
        sid = world.rpc(m.OpenSession("user")).session_id
        reply = world.rpc(m.RegisterPort(sid, "tv", "mpeg1", ("cli", 6000)))
        assert isinstance(reply, m.PortRegistered)

    def test_register_port_unknown_type(self, sim):
        world = _World(sim)
        sid = world.rpc(m.OpenSession("user")).session_id
        reply = world.rpc(m.RegisterPort(sid, "tv", "divx", ("cli", 6000)))
        assert isinstance(reply, m.RequestFailed)

    def test_composite_port_needs_matching_components(self, sim):
        world = _World(sim)
        sid = world.rpc(m.OpenSession("user")).session_id
        world.rpc(m.RegisterPort(sid, "v", "rtp-video", ("cli", 6000)))
        reply = world.rpc(m.RegisterCompositePort(sid, "sem", "seminar", ("v",)))
        assert isinstance(reply, m.RequestFailed)  # missing audio port
        world.rpc(m.RegisterPort(sid, "a", "vat-audio", ("cli", 6001)))
        reply = world.rpc(m.RegisterCompositePort(sid, "sem", "seminar", ("v", "a")))
        assert isinstance(reply, m.PortRegistered)

    def test_composite_port_of_atomic_type_rejected(self, sim):
        world = _World(sim)
        sid = world.rpc(m.OpenSession("user")).session_id
        reply = world.rpc(m.RegisterCompositePort(sid, "x", "mpeg1", ()))
        assert isinstance(reply, m.RequestFailed)


class ToyLane:
    """A delivery lane defined outside ``src/``: it takes one title and
    answers that title's plays itself, with no disk slot and no schedule."""

    def __init__(self, title):
        self.title = title
        self.plays = []

    def takes(self, entry):
        return entry.name == self.title

    def play(self, msg, channel, session, entry, port):
        yield from ()
        self.plays.append((session.session_id, port.name))
        return m.StreamScheduled(0, "toy")


class TestPlay:
    def _session_with_port(self, world):
        sid = world.rpc(m.OpenSession("user")).session_id
        world.rpc(m.RegisterPort(sid, "tv", "mpeg1", ("cli", 6000)))
        return sid

    def test_play_schedules_on_msu(self, sim):
        world = _World(sim)
        world.add_clip()
        sid = self._session_with_port(world)
        reply = world.rpc(m.PlayRequest(sid, "clip", "tv"))
        assert isinstance(reply, m.StreamScheduled)
        assert reply.msu_name == "fake0"

    def test_a_lane_serves_what_it_takes_and_the_rest_plays_unicast(self, sim):
        world = _World(sim)
        world.add_clip("toy")
        world.add_clip("plain")
        lane = ToyLane("toy")
        world.coordinator.lanes.append(lane)
        admission = world.coordinator.admission
        sid = self._session_with_port(world)
        reply = world.rpc(m.PlayRequest(sid, "toy", "tv"))
        assert reply.msu_name == "toy"
        assert lane.plays == [(sid, "tv")]
        sim.run(until=sim.now + 0.2)
        # No ScheduleRead reached the MSU and no charge was admitted.
        assert world.fakes[0].streams_handled == 0
        assert admission.admitted == 0
        reply = world.rpc(m.PlayRequest(sid, "plain", "tv"))
        assert reply.msu_name == "fake0"
        sim.run(until=sim.now + 0.2)
        assert world.fakes[0].streams_handled == 1
        assert admission.admitted == 1
        assert lane.plays == [(sid, "tv")]

    def test_type_mismatch_rejected(self, sim):
        world = _World(sim)
        world.coordinator.db.add_content(
            ContentEntry("talk", "rtp-video", "fake0", "fake0.sd0")
        )
        sid = self._session_with_port(world)
        reply = world.rpc(m.PlayRequest(sid, "talk", "tv"))
        assert isinstance(reply, m.RequestFailed)

    def test_unknown_content_rejected(self, sim):
        world = _World(sim)
        sid = self._session_with_port(world)
        reply = world.rpc(m.PlayRequest(sid, "ghost", "tv"))
        assert isinstance(reply, m.RequestFailed)

    def test_resources_released_on_termination(self, sim):
        world = _World(sim)
        world.add_clip()
        sid = self._session_with_port(world)
        world.rpc(m.PlayRequest(sid, "clip", "tv"))
        sim.run(until=sim.now + 0.5)  # fake MSU terminates after 50 ms
        state = world.coordinator.db.msus["fake0"]
        assert state.delivery_used == 0.0
        assert not world.coordinator.groups

    def test_oversubscription_queues_until_release(self, sim):
        world = _World(sim)
        world.add_clip()
        sid = self._session_with_port(world)
        state = world.coordinator.db.msus["fake0"]
        state.delivery_capacity = 200_000.0  # one stream at a time
        for disk in state.disks.values():
            disk.bandwidth_capacity = 200_000.0
        world.channel.send("cli", m.PlayRequest(sid, "clip", "tv"))
        world.channel.send("cli", m.PlayRequest(sid, "clip", "tv"))
        sim.run(until=sim.now + 0.02)
        assert len(world.coordinator.admission.queue) == 1
        sim.run(until=sim.now + 1.0)  # first terminates -> retry fires
        assert len(world.coordinator.admission.queue) == 0
        assert world.fakes[0].streams_handled == 2


class DemandPart(Part):
    """A part that only listens to the demand hook."""

    def __init__(self):
        self.requests = []

    def note_request(self, content_name):
        self.requests.append(content_name)


class TestDemandHook:
    def test_each_new_play_is_counted_once_and_a_retry_not_again(self, sim):
        world = _World(sim)
        world.add_clip()
        part = DemandPart()
        world.coordinator.add_part(part)
        sid = world.rpc(m.OpenSession("user")).session_id
        world.rpc(m.RegisterPort(sid, "tv", "mpeg1", ("cli", 6000)))
        state = world.coordinator.db.msus["fake0"]
        state.delivery_capacity = 200_000.0  # one stream at a time
        world.channel.send("cli", m.PlayRequest(sid, "clip", "tv"))
        world.channel.send("cli", m.PlayRequest(sid, "clip", "tv"))
        sim.run(until=sim.now + 0.02)
        assert len(world.coordinator.admission.queue) == 1
        sim.run(until=sim.now + 1.0)  # first terminates -> retry fires
        assert world.fakes[0].streams_handled == 2
        assert part.requests == ["clip", "clip"]
        assert world.coordinator.db.content("clip").request_count == 2


class TestRecord:
    def test_record_reserves_and_registers(self, sim):
        world = _World(sim)
        sid = world.rpc(m.OpenSession("user")).session_id
        world.rpc(m.RegisterPort(sid, "cam", "mpeg1", ("cli", 6000)))
        reply = world.rpc(m.RecordRequest(sid, "home-video", "mpeg1", "cam", 30.0))
        assert isinstance(reply, m.StreamScheduled)
        assert "home-video" in world.coordinator.db.contents

    def test_duplicate_content_name_rejected(self, sim):
        world = _World(sim)
        world.add_clip("clip")
        sid = world.rpc(m.OpenSession("user")).session_id
        world.rpc(m.RegisterPort(sid, "cam", "mpeg1", ("cli", 6000)))
        reply = world.rpc(m.RecordRequest(sid, "clip", "mpeg1", "cam", 30.0))
        assert isinstance(reply, m.RequestFailed)

    def test_composite_record_pins_one_msu(self, sim):
        world = _World(sim, n_msus=3)
        sid = world.rpc(m.OpenSession("user")).session_id
        world.rpc(m.RegisterPort(sid, "v", "rtp-video", ("cli", 6000)))
        world.rpc(m.RegisterPort(sid, "a", "vat-audio", ("cli", 6001)))
        world.rpc(m.RegisterCompositePort(sid, "sem", "seminar", ("v", "a")))
        reply = world.rpc(m.RecordRequest(sid, "talk", "seminar", "sem", 30.0))
        assert isinstance(reply, m.StreamScheduled)
        video = world.coordinator.db.content("talk.rtp-video")
        audio = world.coordinator.db.content("talk.vat-audio")
        assert video.msu_name == audio.msu_name == reply.msu_name
        composite = world.coordinator.db.content("talk")
        assert set(composite.components) == {"talk.rtp-video", "talk.vat-audio"}


class TestFailureHandling:
    def test_msu_failure_marks_unavailable(self, sim):
        world = _World(sim)
        world.add_clip()
        world.fakes[0].channel.close()
        sim.run(until=sim.now + 0.1)
        assert not world.coordinator.db.msus["fake0"].available

    def test_failed_msu_rejects_requests(self, sim):
        world = _World(sim)
        world.add_clip()
        sid = world.rpc(m.OpenSession("user")).session_id
        world.rpc(m.RegisterPort(sid, "tv", "mpeg1", ("cli", 6000)))
        world.fakes[0].channel.close()
        sim.run(until=sim.now + 0.1)
        world.channel.send("cli", m.PlayRequest(sid, "clip", "tv"))
        sim.run(until=sim.now + 0.1)
        assert len(world.coordinator.admission.queue) == 1  # parked

    def test_msu_rejoin_restores_scheduling(self, sim):
        """§2.2: "When the MSU becomes available again, it contacts the
        Coordinator and is restored to the scheduling database"."""
        world = _World(sim)
        world.add_clip()
        world.fakes[0].channel.close()
        sim.run(until=sim.now + 0.1)
        rejoined = FakeMsu(sim, "fake0")
        chan = ControlChannel(sim, world.coordinator.name, "fake0", latency=0.001)
        world.coordinator.attach_msu(chan)
        rejoined.attach_coordinator(chan)
        sim.run(until=sim.now + 0.1)
        assert world.coordinator.db.msus["fake0"].available


class TestDelete:
    def test_delete_requires_admin(self, sim):
        world = _World(sim)
        world.add_clip()
        sid = world.rpc(m.OpenSession("user")).session_id
        reply = world.rpc(m.DeleteContent(sid, "clip"))
        assert isinstance(reply, m.RequestFailed)
        assert "clip" in world.coordinator.db.contents

    def test_admin_delete_removes_content(self, sim):
        world = _World(sim)
        world.add_clip()
        sid = world.rpc(m.OpenSession("root")).session_id
        reply = world.rpc(m.DeleteContent(sid, "clip"))
        assert isinstance(reply, m.Deleted)
        assert "clip" not in world.coordinator.db.contents


class TestCpuAccounting:
    def test_requests_consume_coordinator_cpu(self, sim):
        world = _World(sim)
        world.add_clip()
        sid = world.rpc(m.OpenSession("user")).session_id
        world.rpc(m.RegisterPort(sid, "tv", "mpeg1", ("cli", 6000)))
        before = world.coordinator.machine.cpu.busy_time
        world.rpc(m.PlayRequest(sid, "clip", "tv"))
        after = world.coordinator.machine.cpu.busy_time
        assert after - before >= Coordinator.REQUEST_CPU

    def test_schedule_cpu_is_spent_only_in_send_schedules(self):
        """One hold discipline: every schedule message, unicast or a
        viewer's subscribe, is sent through ``send_schedules``, the one
        place ``SCHEDULE_CPU`` is spent."""
        root = pathlib.Path(repro.__file__).resolve().parent
        spent = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for scope in ast.walk(tree):
                if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(scope):
                    if isinstance(node, ast.Attribute) and node.attr == "SCHEDULE_CPU":
                        spent.append((path.relative_to(root).as_posix(), scope.name))
        assert set(spent) == {("core/coordinator.py", "send_schedules")}
