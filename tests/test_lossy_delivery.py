"""Playback over a lossy delivery network, measured like an MBone tool.

§2.2.1 assumes "clients will have to be able to handle the jitter
introduced by the multimedia delivery network anyway"; these tests put a
lossy, jittery wire between the MSU and the client and verify the server
keeps its schedule while the client's RTP statistics see exactly the
wire's losses.
"""

import pytest

from repro.clients import Client, RtpReceiverStats
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.media import NvEncoder
from repro.net.rtp import RtpHeader
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import ms


def build(loss_rate, jitter=0.0):
    sim = Simulator()
    cluster = CalliopeCluster(
        sim, ClusterConfig(n_msus=1, ibtree_config=SMALL_PAGES)
    )
    cluster.delivery_net.loss_rate = loss_rate
    cluster.delivery_net.jitter = jitter
    cluster.coordinator.db.add_customer("user")
    packets = []
    for i, p in enumerate(NvEncoder(seed=5).packets(6.0)):
        header = RtpHeader(28, i & 0xFFFF, int(p.delivery_us * 90 // 1000), 7)
        packets.append((p.delivery_us, header.pack() + p.payload))
    cluster.load_content("talk", "rtp-video", packets)
    return sim, cluster, packets


def play_through(sim, cluster, capture=True):
    client = Client(sim, cluster, "c0")

    def scenario():
        yield from client.open_session("user")
        yield from client.register_port("tv", "rtp-video", capture_payloads=capture)
        view = yield from client.play("talk", "tv")
        yield from client.wait_done(view)

    proc = sim.process(scenario())
    sim.run(until=120.0)
    assert proc.ok
    return client


class TestLossyDelivery:
    def test_server_unaffected_by_wire_loss(self):
        sim, cluster, packets = build(loss_rate=0.1)
        client = play_through(sim, cluster, capture=False)
        msu = cluster.msus[0]
        # The MSU sent everything on schedule; the wire ate some of it.
        assert msu.iop.packets_sent == len(packets)
        assert client.ports["tv"].stats.packets < len(packets)
        assert msu.iop.collector.percent_within(150) > 99.0

    def test_client_rtp_stats_account_for_losses(self):
        sim, cluster, packets = build(loss_rate=0.08)
        client = play_through(sim, cluster)
        stats = RtpReceiverStats()
        for payload in client.ports["tv"].stats.payloads:
            stats.feed(payload)
        lost_on_wire = cluster.delivery_net.datagrams_lost
        assert stats.received == len(packets) - lost_on_wire
        # Interior losses are all visible to the sequence tracker.
        assert stats.lost <= lost_on_wire
        assert stats.lost >= lost_on_wire - 25  # tail losses are invisible
        assert stats.loss_fraction == pytest.approx(0.08, abs=0.04)

    def test_wire_jitter_rides_on_server_schedule(self):
        sim, cluster, packets = build(loss_rate=0.0, jitter=ms(40.0))
        client = play_through(sim, cluster, capture=False)
        assert client.ports["tv"].stats.packets == len(packets)
        # All packets arrive despite 0-40 ms of wire jitter; the client
        # playout buffer (200 KB ~ 1 s) absorbs far more than this.
        span = (
            client.ports["tv"].stats.last_arrival
            - client.ports["tv"].stats.first_arrival
        )
        assert span == pytest.approx(6.0, abs=0.5)
