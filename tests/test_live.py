"""Live & time-shifted TV: channel ingest, fan-out, rewind-live.

End-to-end exercises of the live subsystem on a real cluster: the EPG
opens a channel whose broadcaster appends onto an MSU file while the
multicast fan-out follows the growing tail; viewers tune through the
ordinary play path, pause-live and rewind-live ride bounded unicast
patches over the time-shift ring and re-merge with the fan-out; rings
reclaim their own blocks; DVR channels survive sign-off as plain VoD;
and both Coordinator and MSU failures leave clean books behind.
"""

import pytest

from repro.clients import Client
from repro.core.admission import PRIORITY_SINGLE_COPY, play_priority
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.errors import CalliopeError, StorageError
from repro.failover import FailoverConfig
from repro.live import ChannelSpec, LiveConfig, LiveSource
from repro.net import messages as m
from repro.sim import Simulator
from repro.verify import builtin_registry
from repro.verify.invariants import check_live_drain

from tests.helpers import FAST, SMALL, crash_in_hold, make_packets, open_client


def build_live(
    lineup,
    *,
    n_msus=1,
    ring_seconds=8.0,
    surf_rate=0.0,
    surf_burst=8.0,
    off_air_grace=6.0,
    failover=None,
    seed=3,
):
    """A cluster with a live lineup and one armed LiveSource per feed host."""
    sim = Simulator()
    live = LiveConfig(
        lineup=tuple(lineup), ring_seconds=ring_seconds,
        surf_rate=surf_rate, surf_burst=surf_burst,
        off_air_grace=off_air_grace,
    )
    fo = FailoverConfig(heartbeat=FAST) if failover == "fast" else failover
    cluster = CalliopeCluster(
        sim,
        ClusterConfig(
            n_msus=n_msus, ibtree_config=SMALL, live=live, failover=fo,
        ),
    )
    cluster.coordinator.db.add_customer("user")
    sources = {}
    for spec in lineup:
        source = sources.get(spec.source_host)
        if source is None:
            source = LiveSource(sim, cluster, spec.source_host)
            sources[spec.source_host] = source
        source.add_feed(spec.name, make_packets(spec.duration_seconds, seed=seed))
    return sim, cluster, sources


def assert_drained(cluster):
    """Every registered drain invariant holds on the settled cluster."""
    problems = builtin_registry().check(cluster, "drain")
    assert problems == []


class TestChannelLifecycle:
    def test_epg_opens_and_closes_unwatched_channel(self):
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=4.0)
        sim, cluster, sources = build_live([spec], ring_seconds=2.0)
        sim.run(until=12.0)
        mgr = cluster.coordinator.live_manager
        assert mgr.channels_opened == 1
        assert mgr.channels_closed == 1
        assert mgr.channels_failed == 0
        assert mgr.channels == {}
        source = sources["feed0"]
        assert source.broadcasts_started == 1
        assert source.broadcasts_finished == 1
        assert source.packets_sent > 0
        # A pure-live ring has no afterlife: title gone, file gone.
        assert "news" not in cluster.coordinator.db.contents
        msu = cluster.msus[0]
        assert msu.live == {}
        assert not any(
            fs.exists("news") for fs in msu.filesystems.values()
        )
        assert_drained(cluster)

    def test_ring_trims_behind_window_during_broadcast(self):
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=10.0)
        sim, cluster, _ = build_live([spec], ring_seconds=2.0)
        sim.run(until=8.0)  # mid-broadcast
        msu = cluster.msus[0]
        assert len(msu.live) == 1
        live = next(iter(msu.live.values()))
        assert live.ring_blocks > 0
        assert live.trims > 0
        assert live.pages_trimmed > 0
        # The resident span never outgrows the window (+1 for the page
        # that triggers the next trim).
        assert live.handle.live_span <= live.ring_blocks + 1
        assert live.handle.trimmed > 0
        # Reclaimed pages really are gone.
        with pytest.raises(StorageError, match="reclaimed"):
            msu.filesystems[
                next(iter(msu.filesystems))
            ].read_block_sync(live.handle, 0)
        sim.run(until=20.0)
        assert msu.live == {}
        assert_drained(cluster)

    def test_slot_overrun_is_forced_off_the_air(self):
        """A broadcaster still sending past its slot and the off-air grace
        gets a LiveStop: the ingest drains, the ring's blocks come back
        and the drain invariants hold while the feed is still running."""
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=4.0)
        sim, cluster, sources = build_live([spec], ring_seconds=2.0,
                                           off_air_grace=2.0)
        source = sources["feed0"]
        source.add_feed("news", make_packets(12.0, seed=3))
        msu = cluster.msus[0]
        before = {disk: fs.allocator.free_blocks
                  for disk, fs in msu.filesystems.items()}
        sim.run(until=6.4)  # slot + grace end at 6.5 s
        assert len(msu.live) == 1
        sim.run(until=7.5)
        assert source.broadcasts_finished == 0  # cut off, never finished
        mgr = cluster.coordinator.live_manager
        assert (mgr.channels_opened, mgr.channels_closed) == (1, 1)
        assert mgr.channels == {} and msu.live == {} and msu.channels == {}
        assert not any(proc.record_streams for proc in msu.disk_processes.values())
        for disk, fs in msu.filesystems.items():
            assert not fs.exists("news")
            assert fs.allocator.free_blocks == before[disk]
        assert check_live_drain(cluster) == []
        assert_drained(cluster)

    def test_forced_off_air_feeds_nothing_after_the_stop(self):
        """The forced stop closes the ingest's tree: no straggler reaches
        its writer, and the broadcaster stops sending once the MSU ends
        the ingest instead of playing its feed into a closed port."""
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=4.0)
        sim, cluster, sources = build_live([spec], ring_seconds=2.0,
                                           off_air_grace=2.0)
        source = sources["feed0"]
        source.add_feed("news", make_packets(12.0, seed=3))
        sim.run(until=6.4)
        (live,) = cluster.msus[0].live.values()
        record, late = live.record, []
        feed = record.writer.feed

        def counted(packet):
            if record.finishing:
                late.append(packet)
            return feed(packet)

        record.writer.feed = counted
        sim.run(until=7.5)
        assert record.finished or record.drained
        assert late == []
        sent = source.packets_sent
        sim.run(until=13.0)
        assert source.packets_sent == sent
        assert source.broadcasts_finished == 0

    def test_dvr_overrun_into_the_grace_keeps_its_root(self):
        """A recorded slot's reservation covers the grace the EPG lets
        it overrun by, so a feed still running at the forced stop is
        kept whole, root and all."""
        spec = ChannelSpec("match", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=4.0, record=True)
        sim, cluster, sources = build_live([spec], off_air_grace=2.0)
        sources["feed0"].add_feed("match", make_packets(12.0, seed=3))
        sim.run(until=9.0)
        assert cluster.coordinator.live_manager.channels == {}
        entry = cluster.coordinator.db.contents["match"]
        handle = cluster.msus[0].filesystems[entry.disk_id].open("match")
        assert handle.root is not None

    def test_dvr_channel_becomes_vod_after_signoff(self):
        spec = ChannelSpec("match", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=5.0, record=True)
        sim, cluster, _ = build_live([spec])
        sim.run(until=10.0)
        mgr = cluster.coordinator.live_manager
        assert mgr.channels == {}
        msu = cluster.msus[0]
        assert msu.live == {}
        # The recording survived as ordinary VoD content...
        entry = cluster.coordinator.db.contents["match"]
        fs = msu.filesystems[entry.disk_id]
        handle = fs.open("match")
        assert handle.trimmed == 0
        assert handle.root is not None
        # ...and a client can play it back start to finish.
        client = Client(sim, cluster, "c0")

        def replay():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("match", "tv")
            yield from client.wait_ready(view)
            return view

        proc = sim.process(replay())
        view = sim.run_until_event(proc, limit=sim.now + 15.0)
        assert view.ready_streams
        sim.run(until=sim.now + 15.0)
        assert client.ports["tv"].stats.packets > 0


class TestTuneCrashWhileScheduling:
    """The channel's MSU fails inside a tune's subscribe hold: the tune
    is undone and parks, no group stays on the MSU, and once it rejoins
    everything drains clean."""

    @staticmethod
    def _tune():
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=10.0)
        sim, cluster, _ = build_live([spec], n_msus=2, failover="fast")
        sim.run(until=2.0)
        assert cluster.coordinator.live_manager.channel_for("news").msu_name == "msu0"
        client = open_client(sim, cluster)

        def tune():
            yield from client.register_port("tv", "mpeg1")
            yield from client.play("news", "tv")

        sim.process(tune())
        return sim, cluster, None

    def test_failure_inside_the_hold_parks_the_tune(self):
        sim, cluster, _ = crash_in_hold(self._tune)
        coord = cluster.coordinator
        assert coord.live_manager.viewers_joined == 0
        assert [g for g in coord.groups.values() if g.msu_name == "msu0"] == []
        assert [req.kind for req in coord.admission.queue] == ["play"]
        cluster.rejoin_msu(0)
        sim.run(until=sim.now + 40.0)
        assert builtin_registry().check(cluster, "drain") == []


class TestViewer:
    def test_pause_resume_rewind_merge(self):
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=14.0)
        sim, cluster, _ = build_live([spec], ring_seconds=8.0)
        client = open_client(sim, cluster)
        marks = {}

        def scenario():
            yield from client.register_port("tv", "mpeg1")
            yield sim.timeout(2.0)  # the channel is on the air by now
            view = yield from client.play("news", "tv")
            yield from client.wait_ready(view)
            marks["ready"] = sim.now
            yield sim.timeout(2.0)
            client.vcr(view.group_id, m.VCR_PAUSE)
            yield sim.timeout(1.5)
            client.vcr(view.group_id, m.VCR_PLAY)  # resume = catch-up patch
            yield sim.timeout(2.0)
            client.vcr(view.group_id, m.VCR_REWIND, position_seconds=3.0)
            yield sim.timeout(3.0)
            client.quit(view.group_id)
            marks["quit"] = sim.now

        sim.process(scenario())
        sim.run(until=30.0)
        assert "ready" in marks and "quit" in marks
        mgr = cluster.coordinator.live_manager
        assert mgr.viewers_joined == 1
        # Pause->resume and the explicit rewind each opened a ring patch
        # inside the window; both re-merged with the fan-out.
        assert mgr.rewinds == 2
        assert mgr.rewind_hits == 2
        assert mgr.merges == 2
        assert mgr.channels == {}
        port = client.ports["tv"]
        assert port.channel_stats.packets > 0   # the multicast fan-out
        assert port.unicast_stats.packets > 0   # the time-shift patches
        msu = cluster.msus[0]
        assert msu.live == {}
        assert "news" not in cluster.coordinator.db.contents
        assert_drained(cluster)

    def test_resume_then_quit_in_one_instant_still_rewinds(self):
        """PLAY and QUIT sent together apply in order: the resume opens
        its time-shift patch before the quit tears the viewer down."""
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=10.0)
        sim, cluster, _ = build_live([spec], ring_seconds=8.0)
        client = open_client(sim, cluster)

        def scenario():
            yield from client.register_port("tv", "mpeg1")
            yield sim.timeout(2.0)
            view = yield from client.play("news", "tv")
            yield from client.wait_ready(view)
            yield sim.timeout(1.0)
            client.vcr(view.group_id, m.VCR_PAUSE)
            yield sim.timeout(1.5)
            client.vcr(view.group_id, m.VCR_PLAY)
            client.quit(view.group_id)

        sim.process(scenario())
        sim.run(until=25.0)
        # Exactly one LiveRewound reached the Coordinator.
        assert cluster.coordinator.live_manager.rewinds == 1
        assert_drained(cluster)

    def test_rewind_past_window_clamps_and_misses(self):
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=10.0)
        sim, cluster, _ = build_live([spec], ring_seconds=1.5)
        client = open_client(sim, cluster)

        def scenario():
            yield from client.register_port("tv", "mpeg1")
            yield sim.timeout(2.0)
            view = yield from client.play("news", "tv")
            yield from client.wait_ready(view)
            yield sim.timeout(4.0)
            # Far past the ring window: clamped to its oldest page.
            client.vcr(view.group_id, m.VCR_REWIND, position_seconds=30.0)
            yield sim.timeout(2.0)
            client.quit(view.group_id)

        sim.process(scenario())
        sim.run(until=25.0)
        mgr = cluster.coordinator.live_manager
        assert mgr.rewinds == 1
        assert mgr.rewind_hits == 0  # the asked-for page was reclaimed
        assert mgr.channels == {}
        # The clamped patch still delivered the window's oldest media.
        assert client.ports["tv"].unicast_stats.packets > 0
        assert_drained(cluster)

    def test_surf_gate_throttles_and_drains(self):
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=16.0)
        sim, cluster, _ = build_live(
            [spec], ring_seconds=4.0, surf_rate=0.5, surf_burst=1.0,
        )
        viewers = [open_client(sim, cluster, name=f"c{i}") for i in range(3)]
        joined = []

        def watch(client, tune_at, dwell):
            yield from client.register_port("tv", "mpeg1")
            yield sim.timeout(max(0.0, tune_at - sim.now))
            view = yield from client.play("news", "tv")
            yield from client.wait_ready(view)
            joined.append((client.name, sim.now))
            yield sim.timeout(dwell)
            client.quit(view.group_id)

        sim.process(watch(viewers[0], 2.0, 3.0))
        sim.process(watch(viewers[1], 2.1, 3.0))
        sim.process(watch(viewers[2], 2.2, 3.0))
        sim.run(until=30.0)
        mgr = cluster.coordinator.live_manager
        # One token in the bucket: the other tunes parked on the queue
        # and drained as earlier viewers quit and tokens accrued.
        assert mgr.surf_throttled >= 2
        assert mgr.viewers_joined == 3
        assert len(joined) == 3
        assert [name for name, _ in joined] == ["c0", "c1", "c2"]
        # The parked tunes joined later than a token-free gate would allow.
        assert joined[-1][1] > joined[0][1] + 1.0
        assert mgr.channels == {}
        assert_drained(cluster)


    def test_throttled_tune_parks_in_its_degraded_band(self):
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=10.0)
        sim, cluster, _ = build_live(
            [spec], n_msus=2, surf_rate=0.01, surf_burst=1.0,
        )
        sim.run(until=1.0)
        cluster.fail_msu(1)  # degraded: the channel's msu0 is its one copy
        sim.run(until=1.5)
        coord = cluster.coordinator
        viewers = [open_client(sim, cluster, name=f"c{i}") for i in range(2)]

        def tune(client):
            yield from client.register_port("tv", "mpeg1")
            yield from client.play("news", "tv")

        for client in viewers:
            sim.process(tune(client))
        sim.run(until=2.0)
        assert coord.live_manager.surf_throttled == 1
        entry = coord.db.contents["news"]
        band = play_priority(coord.db, entry)
        assert band == PRIORITY_SINGLE_COPY
        assert [req.priority for req in coord.admission.queue] == [band]


class TestFailures:
    def test_coordinator_restart_readopts_channel(self):
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=10.0)
        sim, cluster, sources = build_live([spec], ring_seconds=6.0)
        client = open_client(sim, cluster)

        def scenario():
            yield from client.register_port("tv", "mpeg1")
            yield sim.timeout(2.0)
            view = yield from client.play("news", "tv")
            yield from client.wait_ready(view)
            return view

        proc = sim.process(scenario())
        sim.run_until_event(proc, limit=10.0)
        before = client.ports["tv"].stats.packets
        sim.at(4.0, cluster.crash_coordinator)
        sim.at(5.0, cluster.restart_coordinator)
        sim.run(until=7.0)
        mgr = cluster.coordinator.live_manager
        # The restarted Coordinator re-adopted the on-air channel from
        # the journal instead of re-firing its EPG slot.
        assert len(mgr.channels) == 1
        assert mgr.fired == {0}
        assert mgr.channels_opened == 1  # replayed count; not re-opened
        record = next(iter(mgr.channels.values()))
        assert record.content_name == "news"
        # No duplicate LiveOpen reached the MSU.
        assert len(cluster.msus[0].live) == 1
        # The viewer's media never stopped flowing through the outage.
        assert client.ports["tv"].stats.packets > before
        sim.run(until=25.0)
        assert mgr.channels == {}
        assert sources["feed0"].broadcasts_finished == 1
        assert "news" not in cluster.coordinator.db.contents
        assert_drained(cluster)

    def test_msu_crash_forces_channel_closed(self):
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=10.0)
        sim, cluster, _ = build_live(
            [spec], ring_seconds=4.0, n_msus=2, failover="fast",
        )
        sim.run(until=3.0)
        mgr = cluster.coordinator.live_manager
        assert len(mgr.channels) == 1
        home = next(iter(mgr.channels.values())).msu_name
        index = [msu.name for msu in cluster.msus].index(home)
        cluster.fail_msu(index, crash=True)
        sim.run(until=8.0)
        # The channel went dark with its MSU: books and title cleaned up
        # with nothing to deallocate on the dead machine.
        assert mgr.channels == {}
        assert mgr.channels_closed == 1
        assert "news" not in cluster.coordinator.db.contents
        coord = cluster.coordinator
        assert all(
            group.allocations == {} or gid in coord.groups
            for gid, group in coord.groups.items()
        )
        state = coord.db.msus[home]
        assert not state.available

    def test_ring_of_broadcast_ended_during_coordinator_outage_is_deleted(self):
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=4.0)
        sim, cluster, _ = build_live([spec], ring_seconds=2.0)
        sim.at(2.0, cluster.crash_coordinator)
        sim.at(9.0, cluster.restart_coordinator)
        sim.run(until=12.0)
        # The broadcast signed off while nobody was there to close it;
        # reconciliation retires the title and deletes the ring.
        assert cluster.coordinator.live_manager.channels == {}
        assert "news" not in cluster.coordinator.db.contents
        msu = cluster.msus[0]
        assert not any(fs.exists("news") for fs in msu.filesystems.values())

        client = Client(sim, cluster, "c0")

        def tune():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            try:
                yield from client.play("news", "tv")
            except CalliopeError as err:
                return str(err)

        proc = sim.process(tune())
        sim.run_until_event(proc, limit=14.0)
        assert proc.value == "no content named 'news'"
        assert_drained(cluster)

    @pytest.mark.parametrize("mode", ["crash", "hang", "partition"])
    def test_msu_failure_deletes_ring_before_rejoin(self, mode):
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=6.0)
        sim, cluster, _ = build_live(
            [spec], ring_seconds=2.0, n_msus=2, failover="fast",
        )
        sim.run(until=4.0)
        mgr = cluster.coordinator.live_manager
        home = next(iter(mgr.channels.values())).msu_name
        index = [msu.name for msu in cluster.msus].index(home)
        if mode == "hang":
            cluster.hang_msu(index)
        else:
            cluster.fail_msu(index, crash=mode == "crash")
        sim.run(until=8.0)
        cluster.rejoin_msu(index)
        sim.run(until=20.0)
        # The Coordinator wrote the channel off without a DeleteFile; the
        # MSU's halt deleted the ring, so no file outlives the channel.
        assert mgr.channels == {}
        assert "news" not in cluster.coordinator.db.contents
        msu = cluster.msus[index]
        assert msu.live == {}
        assert not any(fs.exists("news") for fs in msu.filesystems.values())
        assert_drained(cluster)
