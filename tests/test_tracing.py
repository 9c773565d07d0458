"""Structured tracing: the server's event log."""

from repro.clients import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.media import MpegEncoder, packetize_cbr
from repro.metrics import Tracer
from repro.net import messages as m
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import MPEG1_RATE


class TestTracerUnit:
    def test_records_with_timestamps(self, sim):
        tracer = Tracer(lambda: sim.now)
        tracer.record("src", "event", "subject", "detail")
        sim.run(until=2.0)
        tracer.record("src", "event", "subject2")
        assert [e.time for e in tracer.events] == [0.0, 2.0]

    def test_queries(self, sim):
        tracer = Tracer(lambda: sim.now)
        tracer.record("a", "play", "movie")
        tracer.record("a", "vcr", "movie")
        tracer.record("b", "play", "other")
        assert len(tracer.by_category("play")) == 2
        assert len(tracer.by_subject("movie")) == 2
        assert tracer.counts() == {"play": 2, "vcr": 1}

    def test_between(self, sim):
        tracer = Tracer(lambda: sim.now)
        tracer.record("a", "x", "1")
        sim.run(until=5.0)
        tracer.record("a", "x", "2")
        assert len(tracer.between(0.0, 1.0)) == 1
        assert len(tracer.between(4.0, 6.0)) == 1

    def test_capacity_drops(self, sim):
        tracer = Tracer(lambda: sim.now, capacity=2)
        for i in range(5):
            tracer.record("a", "x", i)
        assert len(tracer.events) == 2
        assert tracer.dropped == 3
        assert "dropped" in tracer.render()

    def test_render_filtered(self, sim):
        tracer = Tracer(lambda: sim.now)
        tracer.record("a", "play", "movie", "extra")
        text = tracer.render("movie")
        assert "play" in text and "extra" in text


class TestTracedRun:
    def test_full_session_timeline(self):
        sim = Simulator()
        cluster = CalliopeCluster(
            sim, ClusterConfig(n_msus=1, ibtree_config=SMALL_PAGES)
        )
        cluster.coordinator.db.add_customer("user")
        tracer = Tracer(lambda: sim.now)
        cluster.coordinator.tracer = tracer
        cluster.msus[0].tracer = tracer
        packets = packetize_cbr(MpegEncoder(seed=1).bitstream(8.0), MPEG1_RATE, 1024)
        cluster.load_content("movie", "mpeg1", packets)
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("movie", "tv")
            yield from client.wait_ready(view)
            yield sim.timeout(1.0)
            client.vcr(view.group_id, m.VCR_PAUSE)
            yield sim.timeout(0.5)
            client.vcr(view.group_id, m.VCR_PLAY)
            yield sim.timeout(1.0)
            client.quit(view.group_id)
            yield sim.timeout(0.5)

        proc = sim.process(scenario())
        sim.run(until=60.0)
        assert proc.ok
        counts = tracer.counts()
        assert counts["msu-up"] == 1
        assert counts["scheduled"] == 1
        assert counts["play"] == 1
        assert counts["vcr"] == 3  # pause, play, quit arrives as terminate
        assert counts["terminated"] >= 1
        # Events are time-ordered and the schedule precedes the VCR use.
        times = [e.time for e in tracer.events]
        assert times == sorted(times)
        scheduled = tracer.by_category("scheduled")[0]
        first_vcr = tracer.by_category("vcr")[0]
        assert scheduled.time < first_vcr.time

    def test_msu_failure_traced(self):
        sim = Simulator()
        cluster = CalliopeCluster(
            sim, ClusterConfig(n_msus=1, ibtree_config=SMALL_PAGES)
        )
        tracer = Tracer(lambda: sim.now)
        cluster.coordinator.tracer = tracer
        sim.run(until=0.01)
        cluster.fail_msu(0)
        sim.run(until=0.1)
        cluster.rejoin_msu(0)
        sim.run(until=0.2)
        categories = [e.category for e in tracer.events]
        assert categories == ["msu-up", "msu-down", "msu-up"]
