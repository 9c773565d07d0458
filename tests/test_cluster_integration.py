"""End-to-end integration: the full Figure 1 system in motion."""

from repro.clients import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.media import MpegEncoder, NvEncoder, VatEncoder, packetize_cbr
from repro.metrics import Tracer
from repro.net import messages as m
from repro.net.rtp import RtpHeader
from repro.net.vat import VatHeader
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.storage.ibtree import IBTreeReader
from repro.units import MPEG1_RATE
from repro.verify.invariants import builtin_registry

PACKET = 1024


def build(n_msus=1):
    sim = Simulator()
    cluster = CalliopeCluster(
        sim, ClusterConfig(n_msus=n_msus, ibtree_config=SMALL_PAGES)
    )
    cluster.coordinator.db.add_customer("user")
    return sim, cluster


def mpeg_packets(seconds, seed=1):
    stream = MpegEncoder(seed=seed).bitstream(seconds)
    return packetize_cbr(stream, MPEG1_RATE, PACKET), stream


def drive(sim, gen, until=300.0):
    proc = sim.process(gen)
    sim.run(until=until)
    assert proc.triggered, "scenario did not finish"
    return proc.value


class TestPlayback:
    def test_full_playback_delivers_every_packet(self):
        sim, cluster = build()
        packets, _ = mpeg_packets(5.0)
        cluster.load_content("movie", "mpeg1", packets)
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("movie", "tv")
            yield from client.wait_done(view)
            return client.ports["tv"].stats

        stats = drive(sim, scenario())
        assert stats.packets == len(packets)
        assert stats.bytes == sum(len(p.payload) for p in packets)

    def test_payload_bytes_survive_the_whole_path(self):
        sim, cluster = build()
        packets, stream = mpeg_packets(2.0)
        cluster.load_content("movie", "mpeg1", packets)
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1", capture_payloads=True)
            view = yield from client.play("movie", "tv")
            yield from client.wait_done(view)

        drive(sim, scenario())
        assert b"".join(client.ports["tv"].stats.payloads) == stream

    def test_two_clients_two_msus(self):
        sim, cluster = build(n_msus=2)
        packets, _ = mpeg_packets(3.0)
        cluster.load_content("a", "mpeg1", packets, msu_index=0)
        cluster.load_content("b", "mpeg1", packets, msu_index=1)
        c0 = Client(sim, cluster, "c0")
        c1 = Client(sim, cluster, "c1")

        def scenario(client, content):
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play(content, "tv")
            yield from client.wait_done(view)
            return view.msu_name

        p0 = sim.process(scenario(c0, "a"))
        p1 = sim.process(scenario(c1, "b"))
        sim.run(until=120)
        assert p0.value == "msu0" and p1.value == "msu1"

    def test_lateness_collector_populated(self):
        sim, cluster = build()
        packets, _ = mpeg_packets(3.0)
        cluster.load_content("movie", "mpeg1", packets)
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("movie", "tv")
            yield from client.wait_done(view)

        drive(sim, scenario())
        collector = cluster.msus[0].iop.collector
        assert len(collector) == len(packets)
        assert collector.percent_within(150) > 99.0


class TestVcrIntegration:
    def test_pause_stops_delivery(self):
        sim, cluster = build()
        packets, _ = mpeg_packets(30.0)
        cluster.load_content("movie", "mpeg1", packets)
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("movie", "tv")
            yield from client.wait_ready(view)
            yield sim.timeout(2.0)
            client.vcr(view.group_id, m.VCR_PAUSE)
            yield sim.timeout(0.3)  # let the command land
            frozen = client.ports["tv"].stats.packets
            yield sim.timeout(3.0)
            assert client.ports["tv"].stats.packets == frozen
            client.vcr(view.group_id, m.VCR_PLAY)
            yield sim.timeout(2.0)
            assert client.ports["tv"].stats.packets > frozen
            client.quit(view.group_id)

        drive(sim, scenario())

    def test_seek_jumps_position(self):
        sim, cluster = build()
        packets, _ = mpeg_packets(30.0)
        cluster.load_content("movie", "mpeg1", packets)
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("movie", "tv")
            yield from client.wait_ready(view)
            yield sim.timeout(1.0)
            client.vcr(view.group_id, m.VCR_SEEK, position_seconds=25.0)
            yield sim.timeout(3.0)
            stream = cluster.msus[0].iop.play_streams[0]
            assert stream.position_us >= 24_000_000
            client.quit(view.group_id)

        drive(sim, scenario())

    def test_failing_command_does_not_stop_later_ones(self):
        """Commands apply in arrival order; one that raises (a scan with
        no companion file) fails alone, and a QUIT after it still ends
        the group."""
        sim, cluster = build()
        packets, _ = mpeg_packets(30.0)
        cluster.load_content("movie", "mpeg1", packets)
        msu = cluster.msus[0]
        msu.tracer = Tracer(lambda: sim.now)
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("movie", "tv")
            yield from client.wait_ready(view)
            yield sim.timeout(1.0)
            client.vcr(view.group_id, m.VCR_FAST_FORWARD)
            client.vcr(view.group_id, m.VCR_PAUSE)
            client.quit(view.group_id)
            yield sim.timeout(0.5)

        drive(sim, scenario())
        applied = [
            e.category if e.category == "vcr-error" else e.detail
            for e in msu.tracer.events if e.category.startswith("vcr")
        ]
        assert applied == [
            m.VCR_FAST_FORWARD, "vcr-error", m.VCR_PAUSE, "quit"
        ]
        assert not msu.groups and not msu.iop.play_streams
        assert not cluster.coordinator.groups

    def test_quit_frees_coordinator_resources(self):
        sim, cluster = build()
        packets, _ = mpeg_packets(30.0)
        cluster.load_content("movie", "mpeg1", packets)
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("movie", "tv")
            yield from client.wait_ready(view)
            yield sim.timeout(1.0)
            client.quit(view.group_id)
            yield sim.timeout(0.5)

        drive(sim, scenario())
        assert not cluster.coordinator.groups
        assert cluster.coordinator.db.msus["msu0"].delivery_used == 0.0


class TestRecording:
    def test_record_then_replay_roundtrip(self):
        sim, cluster = build()
        client = Client(sim, cluster, "c0")
        source = NvEncoder(seed=4).packets(3.0)
        rtp = []
        for i, packet in enumerate(source):
            header = RtpHeader(28, i, int(packet.delivery_us * 90 // 1000), 5)
            rtp.append((packet.delivery_us, header.pack() + packet.payload))

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("cam", "rtp-video")
            rec = yield from client.record("mymail", "rtp-video", "cam", 10.0)
            yield from client.wait_ready(rec)
            address = rec.record_addresses()["mymail"]
            yield from client.send_stream("cam", address, rtp)
            yield sim.timeout(0.2)
            client.quit(rec.group_id)
            yield from client.wait_done(rec)
            # Replay what we recorded.
            yield from client.register_port("tv2", "rtp-video")
            view = yield from client.play("mymail", "tv2")
            yield from client.wait_done(view)
            return client.ports["tv2"].stats

        stats = drive(sim, scenario())
        assert stats.packets == len(rtp)

    def test_unused_reservation_returned(self):
        sim, cluster = build()
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("cam", "mpeg1")
            rec = yield from client.record("tiny", "mpeg1", "cam", 120.0)
            yield from client.wait_ready(rec)
            address = rec.record_addresses()["tiny"]
            yield from client.send_stream("cam", address, [(0, b"x" * 500)])
            yield sim.timeout(0.2)
            client.quit(rec.group_id)
            yield from client.wait_done(rec)

        drive(sim, scenario())
        fs = cluster.msus[0].filesystems[
            cluster.coordinator.db.content("tiny").disk_id
        ]
        assert fs.allocator.reserved_blocks == 0
        # The recording used far fewer blocks than the 120 s estimate.
        assert fs.open("tiny").nblocks <= 2

    def test_a_recording_that_outruns_its_reservation_ends_short(self):
        """The disk process truncates a recording whose space ran out: the
        pages already on disk read back, the root is withheld, the stream
        ends while its source still sends, and the books balance."""
        sim, cluster = build()
        client = Client(sim, cluster, "c0")
        source = [(i * 20_000, bytes([i % 256]) * 4096) for i in range(300)]
        ends = {}

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("cam", "mpeg1")
            rec = yield from client.record("long", "mpeg1", "cam", 1.0)
            yield from client.wait_ready(rec)
            feed = sim.process(client.send_stream(
                "cam", rec.record_addresses()["long"], source))
            yield from client.wait_done(rec)
            ends["recording"] = sim.now
            yield feed
            ends["source"] = sim.now

        drive(sim, scenario())
        assert ends["recording"] < ends["source"] - 3.0
        coord = cluster.coordinator
        entry = coord.db.content("long")
        fs = cluster.msus[0].filesystems[entry.disk_id]
        handle = fs.open("long")
        assert handle.root is None
        reserved = coord.admission.estimate_blocks(coord.types.get("mpeg1"), 1.0)
        assert entry.blocks == handle.nblocks == reserved
        stored = [
            record.payload
            for b in range(handle.nblocks)
            for record in IBTreeReader.parse_page(fs.read_block_sync(handle, b))
        ]
        assert stored == [payload for _t, payload in source[:len(stored)]]
        assert fs.allocator.reserved_blocks == 0
        assert coord.db.msus["msu0"].disks[entry.disk_id].free_blocks == (
            fs.allocator.free_blocks)
        assert builtin_registry().check(cluster, "drain") == []

    def test_composite_seminar_record_and_group_replay(self):
        sim, cluster = build()
        client = Client(sim, cluster, "c0")
        video, audio = [], []
        for i, p in enumerate(NvEncoder(seed=7).packets(2.0)):
            video.append(
                (p.delivery_us, RtpHeader(28, i, int(p.delivery_us * 90 // 1000), 9).pack() + p.payload)
            )
        for p in VatEncoder(seed=8).packets(2.0):
            audio.append(
                (p.delivery_us, VatHeader(0, 1, 3, int(p.delivery_us * 8 // 1000)).pack() + p.payload)
            )

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("v", "rtp-video")
            yield from client.register_port("a", "vat-audio")
            yield from client.register_composite_port("sem", "seminar", ["v", "a"])
            rec = yield from client.record("talk", "seminar", "sem", 10.0)
            yield from client.wait_ready(rec)
            addresses = rec.record_addresses()
            pv = sim.process(
                client.send_stream("v", addresses["talk.rtp-video"], video)
            )
            pa = sim.process(
                client.send_stream("a", addresses["talk.vat-audio"], audio)
            )
            yield pv
            yield pa
            yield sim.timeout(0.2)
            client.quit(rec.group_id)
            yield from client.wait_done(rec)
            view = yield from client.play("talk", "sem")
            yield from client.wait_done(view)
            return view

        view = drive(sim, scenario())
        assert client.ports["v"].stats.packets == len(video)
        assert client.ports["a"].stats.packets == len(audio)
        # Both members rode one group on one MSU (§2.2).
        assert len(view.ready_streams) == 2


class TestFastScanIntegration:
    def test_fast_forward_covers_content_faster(self):
        sim, cluster = build()
        stream = MpegEncoder(seed=2).bitstream(60.0)
        packets = packetize_cbr(stream, MPEG1_RATE, PACKET)
        cluster.load_content("movie", "mpeg1", packets)
        cluster.install_fast_scans("movie", stream, MPEG1_RATE, PACKET, step=15)
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("movie", "tv")
            yield from client.wait_ready(view)
            yield sim.timeout(2.0)
            client.vcr(view.group_id, m.VCR_FAST_FORWARD)
            yield sim.timeout(3.0)
            msu_stream = cluster.msus[0].iop.play_streams[0]
            assert msu_stream.handle.name == "movie.ff"
            # A few seconds of ff playback covered a large content span.
            from repro.core.msu.vcr import content_fraction

            fraction = content_fraction(msu_stream)
            client.vcr(view.group_id, m.VCR_NORMAL)
            yield sim.timeout(2.0)
            assert msu_stream.handle.name == "movie"
            client.quit(view.group_id)
            return fraction

        fraction = drive(sim, scenario())
        assert fraction > 0.2  # >12 s of content in ~3 s of wall time
