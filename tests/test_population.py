"""Viewer populations and the offered-load experiment machinery."""

import pytest

from repro.clients import Client, ViewerPopulation
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.experiments.vod_load import erlang_b, run_vod_load
from repro.media import MpegEncoder, packetize_cbr
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import MPEG1_RATE


def build_world(n_titles=4, title_seconds=30.0):
    sim = Simulator()
    cluster = CalliopeCluster(
        sim, ClusterConfig(n_msus=1, ibtree_config=SMALL_PAGES)
    )
    cluster.coordinator.db.add_customer("user")
    packets = packetize_cbr(
        MpegEncoder(seed=3).bitstream(title_seconds), MPEG1_RATE, 1024
    )
    titles = []
    for t in range(n_titles):
        cluster.load_content(f"t{t}", "mpeg1", packets, disk_index=t % 2)
        titles.append(f"t{t}")
    sim.run(until=0.01)
    return sim, cluster, titles


class TestViewerPopulation:
    def test_light_load_all_admitted(self):
        sim, cluster, titles = build_world()
        client = Client(sim, cluster, "crowd")
        population = ViewerPopulation(
            sim, client, titles, arrival_rate=0.5, mean_watch_seconds=4.0, seed=1
        )
        population.start()
        sim.run(until=60.0)
        population.stop()
        sim.run(until=90.0)
        stats = population.stats
        assert stats.arrivals > 10
        assert stats.blocked == 0 and stats.abandoned == 0
        assert stats.completed == stats.admitted
        assert cluster.coordinator.db.msus["msu0"].active_streams == 0

    def test_overload_produces_abandonment(self):
        sim, cluster, titles = build_world()
        client = Client(sim, cluster, "crowd")
        population = ViewerPopulation(
            sim, client, titles,
            arrival_rate=6.0, mean_watch_seconds=10.0,  # 60 Erlangs >> 22
            queue_patience=1.0, seed=2,
        )
        population.start()
        sim.run(until=40.0)
        population.stop()
        sim.run(until=80.0)
        stats = population.stats
        assert stats.abandoned > 0
        assert stats.blocking_probability > 0.2
        # Concurrency never exceeded the MSU's stream capacity.
        assert stats.concurrent_peak <= 23

    def test_offered_erlangs(self):
        sim, cluster, titles = build_world()
        client = Client(sim, cluster, "crowd")
        population = ViewerPopulation(
            sim, client, titles, arrival_rate=2.0, mean_watch_seconds=5.0
        )
        assert population.offered_erlangs == pytest.approx(10.0)

    def test_bad_parameters(self):
        sim, cluster, titles = build_world(n_titles=1)
        client = Client(sim, cluster, "crowd")
        with pytest.raises(ValueError):
            ViewerPopulation(sim, client, titles, arrival_rate=0, mean_watch_seconds=1)


class TestErlangB:
    def test_zero_offered(self):
        assert erlang_b(0.0, 10) == 0.0

    def test_monotone_in_offered(self):
        values = [erlang_b(a, 22) for a in (5.0, 15.0, 25.0, 40.0)]
        assert values == sorted(values)
        assert values[0] < 0.001 and values[-1] > 0.4

    def test_monotone_in_servers(self):
        assert erlang_b(20.0, 10) > erlang_b(20.0, 30)

    def test_known_value(self):
        # Classic check: A=1 Erlang, 2 servers -> B = (1/2)/(1+1+1/2) = 0.2
        assert erlang_b(1.0, 2) == pytest.approx(0.2)


class TestVodLoadExperiment:
    def test_blocking_rises_with_load(self):
        points = run_vod_load(
            offered_erlangs=(8.0, 30.0), mean_watch_seconds=5.0, duration=60.0
        )
        light, heavy = points
        assert light.blocking_probability < heavy.blocking_probability
        assert heavy.concurrent_peak <= 23
        assert heavy.erlang_b_reference > light.erlang_b_reference
