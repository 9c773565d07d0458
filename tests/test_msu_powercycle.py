"""Full power cycle: sync metadata, crash, remount, replay from disk."""

import pytest

from repro.clients import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.media import MpegEncoder, packetize_cbr
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.storage.check import check_filesystem
from repro.units import MPEG1_RATE


def build():
    sim = Simulator()
    cluster = CalliopeCluster(
        sim, ClusterConfig(n_msus=1, ibtree_config=SMALL_PAGES)
    )
    cluster.coordinator.db.add_customer("user")
    packets = packetize_cbr(MpegEncoder(seed=1).bitstream(6.0), MPEG1_RATE, 1024)
    stream = MpegEncoder(seed=1).bitstream(6.0)
    cluster.load_content("movie", "mpeg1", packets)
    cluster.install_fast_scans("movie", stream, MPEG1_RATE, 1024, step=15)
    return sim, cluster, packets


class TestPowerCycle:
    def test_remount_recovers_all_files(self):
        sim, cluster, _ = build()
        msu = cluster.msus[0]
        disk = cluster.coordinator.db.content("movie").disk_id
        before = {f.name: f.blocks for f in msu.filesystems[disk].list_files()}

        def cycle():
            yield from msu.admin_sync_all()
            yield from msu.admin_remount()

        proc = sim.process(cycle())
        sim.run(until=60.0)
        assert proc.ok
        after_fs = msu.filesystems[disk]
        after = {f.name: f.blocks for f in after_fs.list_files()}
        assert after == before
        # Fast-scan links and roots survived the cycle.
        movie = after_fs.open("movie")
        assert movie.fast_forward == "movie.ff"
        assert movie.root is not None

    def test_remounted_filesystem_checks_clean(self):
        sim, cluster, _ = build()
        msu = cluster.msus[0]

        def cycle():
            yield from msu.admin_sync_all()
            yield from msu.admin_remount()

        proc = sim.process(cycle())
        sim.run(until=60.0)
        assert proc.ok
        for fs in msu.filesystems.values():
            report = check_filesystem(fs, SMALL_PAGES)
            assert report.clean, report.errors

    def test_replay_after_crash_sync_remount(self):
        sim, cluster, packets = build()
        msu = cluster.msus[0]

        def sync():
            yield from msu.admin_sync_all()

        proc = sim.process(sync())
        sim.run(until=30.0)
        assert proc.ok
        cluster.fail_msu(0, crash=True)
        sim.run(until=sim.now + 0.5)

        def remount():
            yield from msu.admin_remount()

        proc = sim.process(remount())
        sim.run(until=sim.now + 30.0)
        assert proc.ok
        cluster.rejoin_msu(0)
        sim.run(until=sim.now + 0.5)
        client = Client(sim, cluster, "c0")

        def play():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("movie", "tv")
            yield from client.wait_done(view)

        proc = sim.process(play())
        sim.run(until=sim.now + 90.0)
        assert proc.ok
        assert client.ports["tv"].stats.packets == len(packets)
