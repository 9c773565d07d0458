"""Whole-MSU crashes mid-stream: clients notice, recovery works."""

import pytest

from repro.clients import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.core.coordinator import Coordinator
from repro.media import MpegEncoder, packetize_cbr
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import MPEG1_RATE
from repro.verify.invariants import builtin_registry


def build():
    sim = Simulator()
    cluster = CalliopeCluster(
        sim, ClusterConfig(n_msus=1, ibtree_config=SMALL_PAGES)
    )
    cluster.coordinator.db.add_customer("user")
    packets = packetize_cbr(MpegEncoder(seed=1).bitstream(30.0), MPEG1_RATE, 1024)
    cluster.load_content("movie", "mpeg1", packets)
    return sim, cluster, packets


def start_stream(sim, cluster):
    client = Client(sim, cluster, "c0")

    def scenario():
        yield from client.open_session("user")
        yield from client.register_port("tv", "mpeg1")
        view = yield from client.play("movie", "tv")
        yield from client.wait_ready(view)
        return view

    proc = sim.process(scenario())
    view = sim.run_until_event(proc, limit=30.0)
    sim.run(until=sim.now + 2.0)
    return client, view


class TestCrash:
    def test_delivery_stops_dead(self):
        sim, cluster, _ = build()
        client, view = start_stream(sim, cluster)
        cluster.fail_msu(0, crash=True)
        sim.run(until=sim.now + 0.2)
        frozen = client.ports["tv"].stats.packets
        sim.run(until=sim.now + 5.0)
        assert client.ports["tv"].stats.packets == frozen

    def test_client_sees_vcr_channel_break(self):
        sim, cluster, _ = build()
        client, view = start_stream(sim, cluster)
        assert not view.done_event.triggered
        cluster.fail_msu(0, crash=True)
        sim.run(until=sim.now + 0.5)
        assert view.closed
        assert view.done_event.triggered  # the break ends the session

    def test_coordinator_marks_down_and_releases(self):
        sim, cluster, _ = build()
        client, view = start_stream(sim, cluster)
        cluster.fail_msu(0, crash=True)
        sim.run(until=sim.now + 0.5)
        state = cluster.coordinator.db.msus["msu0"]
        assert not state.available
        assert state.delivery_used == 0.0

    def test_reboot_and_replay_from_surviving_disks(self):
        sim, cluster, packets = build()
        client, view = start_stream(sim, cluster)
        mid_packets = client.ports["tv"].stats.packets
        cluster.fail_msu(0, crash=True)
        sim.run(until=sim.now + 0.5)
        cluster.rejoin_msu(0)
        sim.run(until=sim.now + 0.5)

        def replay():
            yield from client.register_port("tv2", "mpeg1")
            view2 = yield from client.play("movie", "tv2")
            yield from client.wait_done(view2)

        proc = sim.process(replay())
        sim.run(until=sim.now + 90.0)
        assert proc.ok
        assert client.ports["tv2"].stats.packets == len(packets)
        assert mid_packets > 0  # the first attempt really was mid-stream

    def test_crash_is_idempotent_with_partition(self):
        sim, cluster, _ = build()
        client, view = start_stream(sim, cluster)
        cluster.fail_msu(0)  # partition first
        sim.run(until=sim.now + 0.2)
        cluster.msus[0].crash()  # then the machine dies too
        sim.run(until=sim.now + 0.2)
        assert not cluster.coordinator.db.msus["msu0"].available


class TestPartitionRejoin:
    """A partitioned MSU keeps running until it rejoins, then restarts.

    The Coordinator treated its streams as failed and resumes them when
    the MSU says hello again, so the reboot must forget what the MSU was
    still serving: each stream is installed once, and packets flow.
    """

    def rejoin_after_partition(self):
        sim, cluster, _ = build()
        client, view = start_stream(sim, cluster)
        cluster.fail_msu(0)  # partition: the machine keeps running
        sim.run(until=sim.now + 1.0)
        cluster.rejoin_msu(0)
        sim.run(until=sim.now + 1.0)
        return sim, cluster.msus[0], client, view

    @staticmethod
    def served(msu):
        disk = [s.stream_id for p in msu.disk_processes.values()
                for s in p.play_streams]
        return disk, [s.stream_id for s in msu.iop.play_streams]

    def test_the_resumed_stream_is_installed_once_and_plays(self):
        sim, msu, client, view = self.rejoin_after_partition()
        (stream,) = msu.groups[view.group_id].play_streams
        assert self.served(msu) == ([stream.stream_id], [stream.stream_id])
        before = client.ports["tv"].stats.packets
        sim.run(until=sim.now + 3.0)
        assert client.ports["tv"].stats.packets - before > 500

    def test_quit_after_the_rejoin_leaves_nothing_behind(self):
        sim, msu, client, view = self.rejoin_after_partition()
        client.quit(view.group_id)
        sim.run(until=sim.now + 1.0)
        assert view.group_id not in msu.groups
        assert self.served(msu) == ([], [])


class TestCrashWhileScheduling:
    """The MSU dies inside the Coordinator's SCHEDULE_CPU hold.

    ``_play``/``_record`` have already placed the request on the MSU and
    are charging the CPU to send its schedule message when the failure
    lands; the group must not be registered on the dead MSU.  The request
    is parked again, so the run ends as if the crash came just before.
    """

    def _scenario(self, sim, cluster, kind):
        client = Client(sim, cluster, "c0")
        views = []

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            if kind == "play":
                view = yield from client.play("movie", "tv")
            else:
                view = yield from client.record("rec", "mpeg1", "tv", 5.0)
            views.append(view)
            yield from client.wait_ready(view)
            if kind == "record":
                client.quit(view.group_id)

        sim.process(scenario(), name="scenario")
        return views

    def _holds(self, cluster):
        """Record the start of every SCHEDULE_CPU hold on the Coordinator."""
        coord = cluster.coordinator
        cpu = coord.machine.cpu
        execute, starts = cpu.execute, []

        def timed(duration):
            if duration == coord.SCHEDULE_CPU:
                starts.append(coord.sim.now)
            return execute(duration)

        cpu.execute = timed
        return starts

    def _failures(self, cluster):
        coord = cluster.coordinator
        failed, times = coord._msu_failed, []

        def timed(*args, **kwargs):
            times.append(coord.sim.now)
            return failed(*args, **kwargs)

        coord._msu_failed = timed
        return times

    def crash_instant(self, kind):
        """A crash instant whose detection lands mid-hold, from two probes:
        when the hold starts, and how long the crash takes to detect."""
        sim, cluster, _ = build()
        holds = self._holds(cluster)
        self._scenario(sim, cluster, kind)
        sim.run(until=1.0)
        (hold,) = holds
        sim, cluster, _ = build()
        detected = self._failures(cluster)
        sim.run(until=hold)
        cluster.fail_msu(0, crash=True)
        sim.run(until=1.0)
        latency = detected[0] - hold
        return hold + Coordinator.SCHEDULE_CPU / 2 - latency

    def run(self, kind, crash_at):
        sim, cluster, _ = build()
        holds = self._holds(cluster)
        detected = self._failures(cluster)
        views = self._scenario(sim, cluster, kind)
        sim.run(until=crash_at)
        cluster.fail_msu(0, crash=True)
        sim.run(until=1.0)
        cluster.rejoin_msu(0)
        sim.run(until=41.0)
        return cluster, views, holds, detected

    @pytest.mark.parametrize("kind", ["play", "record"])
    def test_failure_inside_the_hold_parks_the_request(self, kind):
        crash_at = self.crash_instant(kind)
        cluster, views, holds, detected = self.run(kind, crash_at)
        # The failure really landed inside the first hold.
        assert holds[0] < detected[0] < holds[0] + Coordinator.SCHEDULE_CPU
        coord = cluster.coordinator
        (view,) = views
        assert view.ready_event.triggered
        assert view.closed
        assert coord.db.msus["msu0"].available
        assert builtin_registry().check(cluster, "drain") == []

    @pytest.mark.parametrize("kind", ["play", "record"])
    def test_same_end_as_a_crash_before_the_hold(self, kind):
        crash_at = self.crash_instant(kind)
        inside, _, _, _ = self.run(kind, crash_at)
        # Detected half a hold before the hold: the request parks unplaced.
        before, _, _, _ = self.run(kind, crash_at - Coordinator.SCHEDULE_CPU)
        for cluster in (inside, before):
            assert not cluster.coordinator.groups
            assert not cluster.coordinator.admission.queue
        # The parked retry counts its play once, and a retried record
        # leaves the same table of contents.
        played = [
            {name: e.play_count for name, e in c.coordinator.db.contents.items()}
            for c in (inside, before)
        ]
        assert played[0] == played[1]
