"""Content replication across disks (§2.3.3 extension) and failure/rejoin."""

import pytest

from repro.clients import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.core.database import ContentEntry
from repro.core.replication import ReplicationManager
from repro.errors import CalliopeError
from repro.media import MpegEncoder, packetize_cbr
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import MPEG1_RATE


def build(n_msus=1):
    sim = Simulator()
    cluster = CalliopeCluster(
        sim, ClusterConfig(n_msus=n_msus, ibtree_config=SMALL_PAGES)
    )
    cluster.coordinator.db.add_customer("user")
    packets = packetize_cbr(MpegEncoder(seed=1).bitstream(4.0), MPEG1_RATE, 1024)
    cluster.load_content("hot", "mpeg1", packets, disk_index=0)
    sim.run(until=0.01)  # hellos land
    return sim, cluster, packets


class TestContentEntryLocations:
    def test_primary_first(self):
        entry = ContentEntry("x", "mpeg1", "msu0", "d0")
        entry.add_replica("msu1", "d3")
        assert entry.locations() == [("msu0", "d0"), ("msu1", "d3")]

    def test_duplicate_replica_ignored(self):
        entry = ContentEntry("x", "mpeg1", "msu0", "d0")
        entry.add_replica("msu0", "d0")
        assert entry.locations() == [("msu0", "d0")]


class TestReplicate:
    def test_copy_is_byte_identical_and_playable(self):
        sim, cluster, packets = build()
        manager = ReplicationManager(cluster)
        entry = cluster.coordinator.db.content("hot")
        target_disk = cluster.msus[0].disk_ids()[1]
        decision = manager.replicate("hot", "msu0", target_disk)
        assert decision.target == ("msu0", target_disk)
        source_fs = cluster.msus[0].filesystems[entry.disk_id]
        target_fs = cluster.msus[0].filesystems[target_disk]
        src, dst = source_fs.open("hot"), target_fs.open("hot")
        assert src.nblocks == dst.nblocks
        for i in range(src.nblocks):
            assert source_fs.read_block_sync(src, i) == target_fs.read_block_sync(dst, i)
        assert dst.root == src.root and dst.duration_us == src.duration_us

    def test_duplicate_copy_rejected(self):
        sim, cluster, _ = build()
        manager = ReplicationManager(cluster)
        entry = cluster.coordinator.db.content("hot")
        with pytest.raises(CalliopeError):
            manager.replicate("hot", entry.msu_name, entry.disk_id)

    def test_placement_load_balances_across_replicas(self):
        sim, cluster, _ = build()
        manager = ReplicationManager(cluster)
        target_disk = cluster.msus[0].disk_ids()[1]
        manager.replicate("hot", "msu0", target_disk)
        entry = cluster.coordinator.db.content("hot")
        ctype = cluster.coordinator.types.get("mpeg1")
        admission = cluster.coordinator.admission
        disks_used = set()
        for _ in range(4):
            alloc = admission.place_read(entry, ctype)
            disks_used.add(alloc.disk_id)
        assert len(disks_used) == 2  # both copies serve

    def test_rebalance_copies_hot_loaded_content(self):
        sim, cluster, _ = build()
        db = cluster.coordinator.db
        entry = db.content("hot")
        entry.play_count = 10
        home = db.disk(entry.msu_name, entry.disk_id)
        home.bandwidth_used = home.bandwidth_capacity * 0.9  # loaded
        manager = ReplicationManager(cluster)
        made = manager.rebalance()
        assert len(made) == 1
        assert len(entry.locations()) == 2

    def test_rebalance_skips_cold_or_idle_content(self):
        sim, cluster, _ = build()
        manager = ReplicationManager(cluster)
        assert manager.rebalance() == []  # no plays, home disk idle

    def test_play_counts_tracked_by_coordinator(self):
        sim, cluster, _ = build()
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("hot", "tv")
            yield from client.wait_done(view)

        proc = sim.process(scenario())
        sim.run(until=60.0)
        assert proc.ok
        assert cluster.coordinator.db.content("hot").play_count == 1


class TestFailureInjection:
    def test_fail_marks_msu_down_and_rejoin_restores(self):
        sim, cluster, _ = build()
        cluster.fail_msu(0)
        sim.run(until=sim.now + 0.1)
        assert not cluster.coordinator.db.msus["msu0"].available
        cluster.rejoin_msu(0)
        sim.run(until=sim.now + 0.1)
        assert cluster.coordinator.db.msus["msu0"].available

    def test_content_survives_failure_and_plays_after_rejoin(self):
        sim, cluster, packets = build()
        cluster.fail_msu(0)
        sim.run(until=sim.now + 0.1)
        cluster.rejoin_msu(0)
        sim.run(until=sim.now + 0.1)
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("hot", "tv")
            yield from client.wait_done(view)

        proc = sim.process(scenario())
        sim.run(until=120.0)
        assert proc.ok
        assert client.ports["tv"].stats.packets == len(packets)

    def test_request_queued_during_outage_served_on_rejoin(self):
        sim, cluster, packets = build()
        client = Client(sim, cluster, "c0")
        cluster.fail_msu(0)
        sim.run(until=sim.now + 0.1)

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("hot", "tv")  # parks in the queue
            yield from client.wait_done(view)

        proc = sim.process(scenario())
        sim.run(until=sim.now + 1.0)
        assert len(cluster.coordinator.admission.queue) == 1
        cluster.rejoin_msu(0)
        sim.run(until=sim.now + 60.0)
        assert proc.ok
        assert client.ports["tv"].stats.packets == len(packets)
