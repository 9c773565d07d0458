#!/usr/bin/env python3
"""Quickstart: boot a Calliope installation and play one movie.

Builds the Figure 1 topology (Coordinator + one MSU + both networks),
pre-loads a synthetic MPEG-1 movie through the administrative interface,
then acts as a client: open a session, list the contents, register a
display port, play, and report what arrived.

Run:  python examples/quickstart.py
"""

from repro.clients import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.media import MpegEncoder, packetize_cbr
from repro.sim import Simulator
from repro.units import CBR_PACKET_SIZE, MPEG1_RATE


def main():
    sim = Simulator()
    cluster = CalliopeCluster(sim, ClusterConfig(n_msus=1))
    cluster.coordinator.db.add_customer("alice")

    # Administrator: encode 30 seconds of 1.5 Mbit/s video and load it.
    print("loading content ...")
    movie = MpegEncoder(seed=1).bitstream(30.0)
    packets = packetize_cbr(movie, MPEG1_RATE, CBR_PACKET_SIZE)
    cluster.load_content("big-buck-pentium", "mpeg1", packets)

    client = Client(sim, cluster, "alice-pc")

    def session():
        yield from client.open_session("alice")
        contents = yield from client.list_contents()
        print(f"table of contents: {contents}")
        yield from client.register_port("tv", "mpeg1")
        view = yield from client.play("big-buck-pentium", "tv")
        print(f"scheduled on {view.msu_name}; waiting for the stream ...")
        yield from client.wait_done(view)

    done = sim.process(session())
    sim.run(until=120.0)
    assert done.ok, "session failed"

    stats = client.ports["tv"].stats
    msu = cluster.msus[0]
    print(f"received {stats.packets} packets / {stats.bytes} bytes "
          f"in {stats.last_arrival - stats.first_arrival:.1f}s of stream time")
    collector = msu.iop.collector
    print(f"server-side delivery: {collector.percent_within(50):.1f}% of packets "
          f"within 50 ms of schedule (worst {collector.max_lateness_ms():.1f} ms)")


if __name__ == "__main__":
    main()
