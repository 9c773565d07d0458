"""Failover subsystem: heartbeats, stream migration, degraded admission."""

from types import SimpleNamespace

from repro.core.admission import (
    PRIORITY_NORMAL,
    PRIORITY_SINGLE_COPY,
    AdmissionControl,
    play_priority,
)
from repro.core.coordinator import Coordinator
from repro.core.database import AdminDatabase, ContentEntry
from repro.core.replication import ReplicationManager
from repro.failover import HeartbeatMonitor
from repro.multicast import MulticastConfig
from repro.net import messages as m
from repro.sim import Simulator
from repro.units import MPEG1_RATE
from repro.verify.invariants import builtin_registry

from tests.helpers import (
    FAST,
    beat_until,
    build_cluster,
    open_client,
    record_failures,
    record_holds,
    start_stream,
)


def build(n_msus=2, failover="fast", seed=3, length=30.0, multicast=None):
    return build_cluster(
        n_msus=n_msus, failover=failover, seed=seed, length=length,
        multicast=multicast,
    )


class TestHeartbeatMonitor:
    def test_silence_after_beats_declares_death(self):
        sim = Simulator()
        deaths = []
        monitor = HeartbeatMonitor(sim, FAST, on_dead=deaths.append)
        beat_until(sim, monitor, "msu0", stop=0.5)
        sim.run(until=0.55)
        assert monitor.state("msu0") == "alive"
        # Silence: suspect after 2 missed periods, dead one probe later.
        sim.run(until=0.5 + FAST.detection_latency + 0.05)
        assert monitor.state("msu0") == "dead"
        assert deaths == ["msu0"]
        assert monitor.suspects == 1 and monitor.deaths == 1

    def test_beat_during_backoff_revives(self):
        sim = Simulator()
        deaths = []
        monitor = HeartbeatMonitor(sim, FAST, on_dead=deaths.append)

        def sputter():
            monitor.beat(m.Heartbeat("msu0", 1))
            # Stay silent through the suspect threshold (0.2 s), then
            # beat again inside the backoff window.
            yield sim.timeout(0.25)
            assert monitor.state("msu0") == "suspect"
            monitor.beat(m.Heartbeat("msu0", 2))

        sim.process(sputter())
        sim.run(until=0.28)
        assert monitor.state("msu0") == "alive"
        assert not deaths
        # But the revival only buys time: more silence still kills it.
        sim.run(until=1.5)
        assert monitor.state("msu0") == "dead"

    def test_positions_replaced_wholesale_and_survive_forget(self):
        sim = Simulator()
        monitor = HeartbeatMonitor(sim, FAST)
        monitor.beat(m.Heartbeat("msu0", 1, ((1, 1, 5, 500), (1, 2, 7, 700))))
        monitor.beat(m.Heartbeat("msu0", 2, ((1, 1, 9, 900),)))
        assert monitor.position("msu0", 1, 1) == (9, 900)
        # The stream that stopped reporting aged out with the old beat.
        assert monitor.position("msu0", 1, 2) == (0, 0)
        monitor.forget_msu("msu0")
        # The migrator reads positions *after* death.
        assert monitor.position("msu0", 1, 1) == (9, 900)

    def test_rearms_after_forget(self):
        sim = Simulator()
        monitor = HeartbeatMonitor(sim, FAST)
        monitor.beat(m.Heartbeat("msu0", 1))
        monitor.forget_msu("msu0")
        monitor.beat(m.Heartbeat("msu0", 1))
        assert monitor.state("msu0") == "alive"
        sim.run(until=FAST.detection_latency + 0.1)
        assert monitor.state("msu0") == "dead"


class TestDegradedAdmission:
    def test_enqueue_orders_by_band_fifo_within(self):
        admission = AdmissionControl(AdminDatabase(), 4096)
        first = SimpleNamespace(priority=2, tag="n1")
        second = SimpleNamespace(priority=2, tag="n2")
        single = SimpleNamespace(priority=1, tag="s")
        resume = SimpleNamespace(priority=0, tag="r")
        for req in (first, second, single, resume):
            admission.enqueue(req)
        assert [req.tag for req in admission.queue] == ["r", "s", "n1", "n2"]
        assert admission.queued == 4

    def test_play_priority_tracks_live_copies(self):
        db = AdminDatabase()
        for name in ("msu0", "msu1", "msu2"):
            db.register_msu(name, [("d0", 1000)])
        solo = ContentEntry("solo", "mpeg1", "msu0", "d0")
        replicated = ContentEntry("pop", "mpeg1", "msu0", "d0")
        replicated.add_replica("msu1", "d0")
        db.add_content(solo)
        db.add_content(replicated)
        # Healthy cluster: everything is normal priority.
        assert play_priority(db, solo) == PRIORITY_NORMAL
        db.mark_msu_down("msu2")
        # Degraded: the single-copy title jumps a band, the title with
        # two live copies does not.
        assert play_priority(db, solo) == PRIORITY_SINGLE_COPY
        assert play_priority(db, replicated) == PRIORITY_NORMAL


class TestMigration:
    def test_hang_migrates_streams_to_replica(self):
        sim, cluster, packets = build(n_msus=2)
        coord = cluster.coordinator
        cluster.load_content("movie", "mpeg1", packets, msu_index=0)
        sim.run(until=0.05)
        replica_disk = cluster.msus[1].disk_ids()[0]
        ReplicationManager(cluster).replicate("movie", "msu1", replica_disk)
        client = open_client(sim, cluster)
        view = start_stream(sim, client, "movie", "tv")
        sim.run(until=sim.now + 1.0)
        assert coord.groups[view.group_id].msu_name == "msu0"

        cluster.hang_msu(0)
        frozen = client.ports["tv"].stats.packets
        sim.run(until=sim.now + 2.0)

        group = coord.groups[view.group_id]
        assert group.msu_name == "msu1"
        assert view.migrations == 1
        assert not view.done_event.triggered
        assert client.ports["tv"].stats.packets > frozen
        session = coord.sessions.lookup(client.session_id)
        assert view.group_id in session.active_groups
        assert len(coord.migrator.records) == 1
        assert coord.migrator.records[0].to_msu == "msu1"
        # The resumed stream picked up near the heartbeat-reported page,
        # not at the top of the file.
        msu1 = cluster.msus[1]
        assert msu1.streams_resumed == 1
        assert all(s.next_page > 0 for s in msu1.iop.play_streams)

    def test_no_replica_queues_then_recovers(self):
        sim, cluster, packets = build(n_msus=2)
        coord = cluster.coordinator
        cluster.load_content("movie", "mpeg1", packets, msu_index=0)
        client = open_client(sim, cluster)
        view = start_stream(sim, client, "movie", "tv")
        sim.run(until=sim.now + 1.0)

        cluster.hang_msu(0)
        sim.run(until=sim.now + FAST.detection_latency + 0.3)
        # Nothing to migrate to: the ticket parks at resume priority.
        assert view.group_id not in coord.groups
        assert coord.migrator.queued == 1
        queued = [req for req in coord.admission.queue if req.kind == "resume"]
        assert len(queued) == 1 and queued[0].priority == 0
        frozen = client.ports["tv"].stats.packets
        sim.run(until=sim.now + 1.0)
        assert client.ports["tv"].stats.packets == frozen

        cluster.recover(0)
        sim.run(until=sim.now + 2.0)
        assert coord.groups[view.group_id].msu_name == "msu0"
        assert not coord.admission.queue
        assert view.migrations == 1
        assert client.ports["tv"].stats.packets > frozen

    def test_queued_resume_granted_when_capacity_frees(self):
        sim, cluster, packets = build(n_msus=2)
        coord = cluster.coordinator
        cluster.load_content("movie", "mpeg1", packets, msu_index=0)
        cluster.load_content("filler", "mpeg1", packets, msu_index=1)
        sim.run(until=0.05)
        replica_disk = cluster.msus[1].disk_ids()[0]
        ReplicationManager(cluster).replicate("movie", "msu1", replica_disk)
        client = open_client(sim, cluster)
        filler_view = start_stream(sim, client, "filler", "tv-filler")
        movie_view = start_stream(sim, client, "movie", "tv")
        sim.run(until=sim.now + 0.5)
        assert coord.groups[movie_view.group_id].msu_name == "msu0"
        # Shrink the survivor's disk so the resume cannot fit while the
        # filler stream holds its slot.
        disk = coord.db.disk("msu1", replica_disk)
        disk.bandwidth_capacity = disk.bandwidth_used + 0.5 * MPEG1_RATE

        cluster.hang_msu(0)
        sim.run(until=sim.now + FAST.detection_latency + 0.3)
        assert movie_view.group_id not in coord.groups
        assert coord.migrator.queued == 1

        client.quit(filler_view.group_id)
        sim.run(until=sim.now + 2.0)
        # The freed slot went to the parked resume ticket.
        assert coord.groups[movie_view.group_id].msu_name == "msu1"
        assert movie_view.migrations == 1
        assert not coord.admission.queue


class TestCrashWhileMigrating:
    """The migrator's target MSU dies inside its SCHEDULE_CPU hold.

    msu0 crashes with a replica on msu1; the migrator places the resume
    ticket on msu1 and is charging the CPU for its ResumePlay when msu1
    crashes too.  The group must not be registered on the dead msu1: the
    ticket parks at resume priority and migrates once msu1 rejoins.
    """

    def _build(self):
        sim, cluster, packets = build(n_msus=3)
        cluster.load_content("movie", "mpeg1", packets, msu_index=0)
        sim.run(until=0.05)
        replica_disk = cluster.msus[1].disk_ids()[0]
        ReplicationManager(cluster).replicate("movie", "msu1", replica_disk)
        client = open_client(sim, cluster)
        view = start_stream(sim, client, "movie", "tv")
        sim.run(until=sim.now + 1.0)
        cluster.fail_msu(0, crash=True)
        return sim, cluster, client, view

    def crash_instant(self):
        """A crash instant for msu1 whose detection lands mid-hold, from
        two probes: when the migrator's hold starts, and how long the
        crash takes to detect."""
        sim, cluster, _, _ = self._build()
        holds = record_holds(cluster.coordinator)
        sim.run(until=sim.now + 1.0)
        (hold,) = holds
        sim, cluster, _, _ = self._build()
        detected = record_failures(cluster.coordinator)
        sim.run(until=hold)
        cluster.fail_msu(1, crash=True)
        sim.run(until=sim.now + 1.0)
        return hold + Coordinator.SCHEDULE_CPU / 2 - (detected["msu1"] - hold)

    def test_failure_inside_the_hold_parks_the_ticket(self):
        crash_at = self.crash_instant()
        sim, cluster, client, view = self._build()
        coord = cluster.coordinator
        holds = record_holds(coord)
        detected = record_failures(coord)
        sim.run(until=crash_at)
        cluster.fail_msu(1, crash=True)
        sim.run(until=sim.now + 1.0)
        # The failure really landed inside the migrator's hold.
        assert holds[0] < detected["msu1"] < holds[0] + Coordinator.SCHEDULE_CPU
        assert all(
            coord.db.msus[group.msu_name].available
            for group in coord.groups.values()
        )
        assert view.group_id not in coord.groups
        parked = [req for req in coord.admission.queue if req.kind == "resume"]
        assert len(parked) == 1 and parked[0].priority == 0
        assert not coord.migrator.records
        assert builtin_registry().check(cluster, "drain") == []

        frozen = client.ports["tv"].stats.packets
        cluster.rejoin_msu(1)
        sim.run(until=sim.now + 2.0)
        assert coord.groups[view.group_id].msu_name == "msu1"
        assert [r.to_msu for r in coord.migrator.records] == ["msu1"]
        assert view.migrations == 1
        assert client.ports["tv"].stats.packets > frozen
        assert not coord.admission.queue
        client.quit(view.group_id)
        sim.run(until=sim.now + 1.0)
        assert builtin_registry().check(cluster, "drain") == []


class TestMulticastFailover:
    def test_channel_subscribers_resume_unicast_without_double_charge(self):
        """Channel viewers on a dead MSU migrate as plain unicast streams.

        The replica never re-creates the channel; each viewer costs the
        replica exactly one ``place_read`` charge, and the multicast
        ledger force-closes the dead channels so the books stay balanced.
        """
        sim, cluster, packets = build(
            n_msus=2, multicast=MulticastConfig(batch_window=0.2)
        )
        coord = cluster.coordinator
        manager = coord.channel_manager
        cluster.load_content("movie", "mpeg1", packets, msu_index=0)
        sim.run(until=0.05)
        replica_disk = cluster.msus[1].disk_ids()[0]
        ReplicationManager(cluster).replicate("movie", "msu1", replica_disk)
        c0 = open_client(sim, cluster, "c0")
        c1 = open_client(sim, cluster, "c1")

        def viewer(client):
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("movie", "tv")
            yield from client.wait_ready(view)
            return view

        p0 = sim.process(viewer(c0))
        p1 = sim.process(viewer(c1))
        v0 = sim.run_until_event(p0, limit=30.0)
        v1 = sim.run_until_event(p1, limit=30.0)
        assert manager.channels_created == 1
        assert manager.viewers_joined == 2
        sim.run(until=sim.now + 1.0)

        cluster.hang_msu(0)
        sim.run(until=sim.now + FAST.detection_latency + 1.0)

        # Both viewers migrated to the replica and keep receiving.
        assert v0.migrations == 1 and v1.migrations == 1
        assert coord.groups[v0.group_id].msu_name == "msu1"
        assert coord.groups[v1.group_id].msu_name == "msu1"
        frozen0 = c0.ports["tv"].stats.packets
        frozen1 = c1.ports["tv"].stats.packets
        sim.run(until=sim.now + 1.0)
        assert c0.ports["tv"].stats.packets > frozen0
        assert c1.ports["tv"].stats.packets > frozen1
        # The replica serves them as plain unicast: no channel state,
        # and exactly one disk slot charged per viewer — the dead
        # channel's charge was zeroed with its MSU, never re-billed.
        assert cluster.msus[1].channels == {}
        assert manager.channels == {}
        disk = coord.db.disk("msu1", replica_disk)
        assert disk.bandwidth_used == 2 * MPEG1_RATE
        assert coord.db.msus["msu1"].delivery_used == 2 * MPEG1_RATE
        assert manager.ledger.balanced()
        assert manager.ledger.channels[1].forced

        c0.quit(v0.group_id)
        c1.quit(v1.group_id)
        sim.run(until=sim.now + 1.0)
        assert disk.bandwidth_used == 0.0

    def test_patching_viewer_migrates_once(self):
        """A viewer still draining its patch when the MSU dies must not
        be double-charged on the replica: the patch charge died with the
        MSU's books, and migration re-places the viewer exactly once."""
        sim, cluster, packets = build(
            n_msus=2, multicast=MulticastConfig(batch_window=0.2)
        )
        coord = cluster.coordinator
        manager = coord.channel_manager
        cluster.load_content("movie", "mpeg1", packets, msu_index=0)
        sim.run(until=0.05)
        replica_disk = cluster.msus[1].disk_ids()[0]
        ReplicationManager(cluster).replicate("movie", "msu1", replica_disk)
        c0 = open_client(sim, cluster, "c0")
        v0 = start_stream(sim, c0, "movie", "tv")
        sim.run(until=sim.now + 3.0)
        c1 = open_client(sim, cluster, "c1")
        v1 = start_stream(sim, c1, "movie", "tv")
        assert manager.patched_joins == 1

        cluster.hang_msu(0)
        sim.run(until=sim.now + FAST.detection_latency + 1.0)
        assert v1.migrations == 1
        assert coord.groups[v1.group_id].msu_name == "msu1"
        # One unicast slot per migrated viewer; the in-flight patch's
        # charge was zeroed with the dead MSU, not re-billed here.
        disk = coord.db.disk("msu1", replica_disk)
        assert disk.bandwidth_used == 2 * MPEG1_RATE
        assert manager.ledger.balanced()
        # The late joiner resumes from the channel front it had reached,
        # not from the top of the file.
        msu1 = cluster.msus[1]
        assert msu1.streams_resumed == 2
        resumed = {s.stream_id: s for s in msu1.iop.play_streams}
        assert all(s.next_page > 0 for s in resumed.values())


class TestFailureCleanup:
    def test_crash_without_failover_releases_everything(self):
        sim, cluster, packets = build(n_msus=1, failover=None)
        coord = cluster.coordinator
        cluster.load_content("movie", "mpeg1", packets)
        client = open_client(sim, cluster)
        view = start_stream(sim, client, "movie", "tv")
        sim.run(until=sim.now + 1.0)
        session = coord.sessions.lookup(client.session_id)
        assert view.group_id in session.active_groups

        cluster.fail_msu(0, crash=True)
        sim.run(until=sim.now + 0.5)
        # No stale group ids or allocations linger after the failure.
        assert session.active_groups == []
        assert coord.groups == {}
        state = coord.db.msus["msu0"]
        assert not state.available
        assert state.delivery_used == 0.0
        assert all(d.bandwidth_used == 0.0 for d in state.disks.values())


class TestReplicaRestoration:
    def test_dead_copies_do_not_count_and_are_restored(self):
        sim, cluster, packets = build(n_msus=3)
        coord = cluster.coordinator
        cluster.load_content("movie", "mpeg1", packets, msu_index=0)
        sim.run(until=0.05)
        manager = ReplicationManager(cluster, max_replicas=1)
        manager.replicate("movie", "msu1", cluster.msus[1].disk_ids()[0])
        entry = coord.db.content("movie")
        entry.request_count = 10
        # Both copies live: at max_replicas, not hot-listed.
        assert len(manager._live_locations(entry)) == 2
        assert entry not in manager._hot_entries()

        cluster.fail_msu(0)
        sim.run(until=sim.now + 0.1)
        # The dead copy stops counting; the title is eligible again.
        assert manager._live_locations(entry) == [
            ("msu1", cluster.msus[1].disk_ids()[0])
        ]
        assert entry in manager._hot_entries()

        made = manager.restore_replicas(["movie"])
        assert len(made) == 1
        assert made[0].source[0] == "msu1"  # copied from the live replica
        assert made[0].target[0] == "msu2"
        assert len(manager._live_locations(entry)) == 2

    def test_watch_restores_replicas_on_failure(self):
        sim, cluster, packets = build(n_msus=3)
        cluster.load_content("movie", "mpeg1", packets, msu_index=0)
        sim.run(until=0.05)
        manager = ReplicationManager(cluster)
        manager.replicate("movie", "msu1", cluster.msus[1].disk_ids()[0])
        manager.watch()
        cluster.hang_msu(0)
        sim.run(until=sim.now + FAST.detection_latency + 0.3)
        entry = cluster.coordinator.db.content("movie")
        assert len(manager._live_locations(entry)) == 2
        assert any(d.target[0] == "msu2" for d in manager.decisions)


class TestClientReconnect:
    def test_reconnect_gives_up_after_retries(self):
        sim, cluster, packets = build(n_msus=1, failover=None)
        cluster.load_content("movie", "mpeg1", packets)
        client = open_client(
            sim, cluster, reconnect_retries=2, reconnect_backoff=0.1
        )
        view = start_stream(sim, client, "movie", "tv")
        sim.run(until=sim.now + 1.0)
        cluster.fail_msu(0, crash=True)
        sim.run(until=sim.now + 0.1)
        # Still waiting out the retry window...
        assert not view.done_event.triggered
        sim.run(until=sim.now + 2.0)
        # ...but nothing came back: the group ends.
        assert view.closed
        assert view.done_event.triggered

    def test_quit_does_not_wait_out_retries(self):
        sim, cluster, packets = build(n_msus=1, failover=None)
        cluster.load_content("movie", "mpeg1", packets)
        client = open_client(
            sim, cluster, reconnect_retries=8, reconnect_backoff=5.0
        )
        view = start_stream(sim, client, "movie", "tv")
        sim.run(until=sim.now + 1.0)
        client.quit(view.group_id)
        sim.run(until=sim.now + 1.0)
        # A deliberate quit closes immediately; no reconnect attempts.
        assert view.quit_requested
        assert view.done_event.triggered
        assert view.migrations == 0
