#!/usr/bin/env python3
"""Video on demand: several viewers, a shared catalog, VCR commands.

Reproduces the paper's primary motivating application (§2.1): clients
browse the table of contents, play movies, pause, seek, and use the
fast-forward scan installed by the administrator's offline filter
(§2.3.1).  Two movies live on the MSU's two disks; three viewers watch
concurrently while one of them channel-surfs with the VCR.

Run:  python examples/video_on_demand.py
"""

from repro.clients import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.media import MpegEncoder, packetize_cbr
from repro.net import messages as m
from repro.sim import Simulator
from repro.units import CBR_PACKET_SIZE, MPEG1_RATE


def build_catalog(cluster):
    """The administrator loads two movies plus fast-scan companions."""
    for index, title in enumerate(["attack-of-the-eisa-bus", "barracuda-2gb"]):
        stream = MpegEncoder(seed=10 + index).bitstream(60.0)
        packets = packetize_cbr(stream, MPEG1_RATE, CBR_PACKET_SIZE)
        cluster.load_content(title, "mpeg1", packets, disk_index=index % 2)
        cluster.install_fast_scans(
            title, stream, MPEG1_RATE, CBR_PACKET_SIZE, step=15, disk_index=index % 2
        )


def passive_viewer(sim, client, title, watch_seconds):
    """Plays a movie start to finish (or until bedtime)."""
    yield from client.open_session("couch")
    yield from client.register_port("tv", "mpeg1")
    view = yield from client.play(title, "tv")
    yield from client.wait_ready(view)
    yield sim.timeout(watch_seconds)
    client.quit(view.group_id)
    print(f"  {client.name}: watched {watch_seconds:.0f}s of {title!r}, "
          f"{client.ports['tv'].stats.packets} packets")


def channel_surfer(sim, client, title):
    """Pause, resume, seek, fast-forward — the full remote control."""
    yield from client.open_session("couch")
    contents = yield from client.list_contents()
    print(f"  {client.name}: catalog = {[name for name, _ in contents]}")
    yield from client.register_port("tv", "mpeg1")
    view = yield from client.play(title, "tv")
    yield from client.wait_ready(view)
    yield sim.timeout(5.0)
    print(f"  {client.name}: pause at t={sim.now:.1f}")
    client.vcr(view.group_id, m.VCR_PAUSE)
    yield sim.timeout(3.0)
    print(f"  {client.name}: resume")
    client.vcr(view.group_id, m.VCR_PLAY)
    yield sim.timeout(4.0)
    print(f"  {client.name}: seek to 40s")
    client.vcr(view.group_id, m.VCR_SEEK, 40.0)
    yield sim.timeout(4.0)
    print(f"  {client.name}: fast forward")
    client.vcr(view.group_id, m.VCR_FAST_FORWARD)
    yield sim.timeout(3.0)
    print(f"  {client.name}: back to normal speed")
    client.vcr(view.group_id, m.VCR_NORMAL)
    yield sim.timeout(4.0)
    client.quit(view.group_id)
    print(f"  {client.name}: done, {client.ports['tv'].stats.packets} packets")


def main():
    sim = Simulator()
    cluster = CalliopeCluster(sim, ClusterConfig(n_msus=1))
    cluster.coordinator.db.add_customer("couch")
    print("loading catalog ...")
    build_catalog(cluster)

    viewers = [Client(sim, cluster, f"viewer{i}") for i in range(3)]
    print("viewers tuning in:")
    procs = [
        sim.process(passive_viewer(sim, viewers[0], "attack-of-the-eisa-bus", 25.0)),
        sim.process(passive_viewer(sim, viewers[1], "barracuda-2gb", 25.0)),
        sim.process(channel_surfer(sim, viewers[2], "attack-of-the-eisa-bus")),
    ]
    sim.run(until=240.0)
    assert all(p.ok for p in procs), "a viewer failed"

    collector = cluster.msus[0].iop.collector
    print(f"server delivered {len(collector)} packets, "
          f"{collector.percent_within(50):.1f}% within 50 ms of schedule")
    state = cluster.coordinator.db.msus["msu0"]
    print(f"coordinator accounting after quits: "
          f"{state.delivery_used:.0f} B/s allocated, {state.active_streams} streams")


if __name__ == "__main__":
    main()
