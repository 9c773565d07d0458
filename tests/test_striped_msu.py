"""The striped-MSU alternative (§2.3.3) running in the full system."""

import pytest

from repro.clients import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.media import MpegEncoder, packetize_cbr
from repro.net import messages as m
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import MPEG1_RATE


def build():
    sim = Simulator()
    cluster = CalliopeCluster(
        sim, ClusterConfig(n_msus=1, ibtree_config=SMALL_PAGES, striped_msus=True)
    )
    cluster.coordinator.db.add_customer("user")
    packets = packetize_cbr(MpegEncoder(seed=1).bitstream(5.0), MPEG1_RATE, 1024)
    cluster.load_content("movie", "mpeg1", packets)
    return sim, cluster, packets


class TestStripedMsu:
    def test_single_striped_volume(self):
        sim, cluster, _ = build()
        msu = cluster.msus[0]
        assert msu.striped
        assert msu.disk_ids() == ["msu0.striped"]

    def test_file_blocks_span_both_disks(self):
        sim, cluster, _ = build()
        msu = cluster.msus[0]
        fs = msu.filesystems["msu0.striped"]
        handle = fs.open("movie")
        disks = {fs.volume.disk_of(b) for b in handle.blocks}
        assert len(disks) == 2  # consecutive blocks on adjacent disks

    def test_playback_end_to_end(self):
        sim, cluster, packets = build()
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("movie", "tv")
            yield from client.wait_done(view)

        proc = sim.process(scenario())
        sim.run(until=120.0)
        assert proc.ok
        assert client.ports["tv"].stats.packets == len(packets)
        # Both physical disks did real work.
        transferred = [d.bytes_transferred for d in cluster.msus[0].machine.disks]
        assert all(t > 0 for t in transferred)

    def test_record_lands_striped(self):
        sim, cluster, _ = build()
        client = Client(sim, cluster, "c0")
        source = [(i * 20_000, bytes([i % 256]) * 900) for i in range(120)]

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("cam", "mpeg1")
            rec = yield from client.record("clip", "mpeg1", "cam", 30.0)
            yield from client.wait_ready(rec)
            address = rec.record_addresses()["clip"]
            yield from client.send_stream("cam", address, source)
            yield sim.timeout(0.2)
            client.quit(rec.group_id)
            yield from client.wait_done(rec)

        proc = sim.process(scenario())
        sim.run(until=120.0)
        assert proc.ok
        fs = cluster.msus[0].filesystems["msu0.striped"]
        handle = fs.open("clip")
        assert handle.nblocks >= 2
        disks = {fs.volume.disk_of(b) for b in handle.blocks}
        assert len(disks) == 2

    def test_vcr_seek_on_striped_content(self):
        sim, cluster, _ = build()
        packets = packetize_cbr(MpegEncoder(seed=2).bitstream(30.0), MPEG1_RATE, 1024)
        cluster.load_content("long-movie", "mpeg1", packets)
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("long-movie", "tv")
            yield from client.wait_ready(view)
            yield sim.timeout(1.0)
            client.vcr(view.group_id, m.VCR_SEEK, 25.0)
            yield sim.timeout(2.0)
            stream = cluster.msus[0].iop.play_streams[0]
            assert stream.position_us >= 24_000_000
            client.quit(view.group_id)

        proc = sim.process(scenario())
        sim.run(until=60.0)
        assert proc.ok
