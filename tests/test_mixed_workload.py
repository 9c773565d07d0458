"""Mixed content types sharing one MSU (§2.2's heterogeneous catalog).

The Coordinator's type table carries separate bandwidth/storage rates per
type, so constant-rate MPEG, bursty NV video and VAT audio coexist on the
same disks and the same IOP.  The test runs all three concurrently and
checks that each stream's own service quality holds.
"""

import pytest

from repro.clients import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.media import MpegEncoder, NvEncoder, VatEncoder, packetize_cbr
from repro.net.rtp import RtpHeader
from repro.net.vat import VatHeader
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import MPEG1_RATE

SECONDS = 8.0


def build():
    sim = Simulator()
    cluster = CalliopeCluster(
        sim, ClusterConfig(n_msus=1, ibtree_config=SMALL_PAGES)
    )
    cluster.coordinator.db.add_customer("user")
    mpeg = packetize_cbr(MpegEncoder(seed=1).bitstream(SECONDS), MPEG1_RATE, 1024)
    cluster.load_content("movie", "mpeg1", mpeg, disk_index=0)
    nv = []
    for i, p in enumerate(NvEncoder(seed=2).packets(SECONDS)):
        header = RtpHeader(28, i, int(p.delivery_us * 90 // 1000), 4)
        nv.append((p.delivery_us, header.pack() + p.payload))
    cluster.load_content("nv-talk", "rtp-video", nv, disk_index=1)
    vat = []
    for p in VatEncoder(seed=3).packets(SECONDS):
        header = VatHeader(0, 1, 9, int(p.delivery_us * 8 // 1000))
        vat.append((p.delivery_us, header.pack() + p.payload))
    cluster.load_content("audio", "vat-audio", vat, disk_index=0)
    return sim, cluster, {"movie": mpeg, "nv-talk": nv, "audio": vat}


class TestMixedWorkload:
    def test_three_types_play_concurrently(self):
        sim, cluster, loaded = build()
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            yield from client.register_port("v", "rtp-video")
            yield from client.register_port("a", "vat-audio")
            views = []
            for content, port in [("movie", "tv"), ("nv-talk", "v"), ("audio", "a")]:
                view = yield from client.play(content, port)
                views.append(view)
            for view in views:
                yield from client.wait_done(view)

        proc = sim.process(scenario())
        sim.run(until=120.0)
        assert proc.ok
        assert client.ports["tv"].stats.packets == len(loaded["movie"])
        assert client.ports["v"].stats.packets == len(loaded["nv-talk"])
        assert client.ports["a"].stats.packets == len(loaded["audio"])

    def test_admission_rates_differ_by_type(self):
        sim, cluster, _ = build()
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            yield from client.register_port("a", "vat-audio")
            view = yield from client.play("movie", "tv")
            yield from client.wait_ready(view)
            audio = yield from client.play("audio", "a")
            yield from client.wait_ready(audio)
            return view, audio

        proc = sim.process(scenario())
        sim.run_until_event(proc, limit=30.0)  # streams still active here
        types = cluster.coordinator.types
        state = cluster.coordinator.db.msus["msu0"]
        expected = (
            types.get("mpeg1").bandwidth_rate + types.get("vat-audio").bandwidth_rate
        )
        assert state.delivery_used == pytest.approx(expected)

    def test_schedule_quality_holds_for_each_type(self):
        sim, cluster, loaded = build()
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            for i, (content, ptype) in enumerate(
                [("movie", "mpeg1"), ("nv-talk", "rtp-video"), ("audio", "vat-audio")]
            ):
                yield from client.register_port(f"p{i}", ptype)
                yield from client.play(content, f"p{i}")
            yield sim.timeout(SECONDS + 10.0)

        proc = sim.process(scenario())
        sim.run(until=60.0)
        assert proc.ok
        collector = cluster.msus[0].iop.collector
        # A lightly loaded MSU keeps every type comfortably on schedule.
        assert collector.percent_within(150) > 99.5
