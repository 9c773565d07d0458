"""The IOP's earliest-deadline heap against the scan it replaced.

``NetworkProcess._next_due`` takes the next packet to send off a heap of
the playing streams, rebuilt only at the top of each loop pass and when
the IOP's wakeup signal has been set since.  The scan below is the
reference: every playing stream in ``play_streams`` order, strict ``<``
on the deadline.  Each test runs one path that changes a stream's
schedule with the heap and the scan side by side, and requires the same
``(stream, record, deadline)`` at every call: Graph 1's rig at 22
streams, a VCR storm on one MSU, a multicast patch join, live pause and
rewind, and an MSU crash followed by a reboot.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.clients import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.core.msu.network_process import NetworkProcess
from repro.core.msu.streams import StreamState
from repro.experiments.graph1 import run_graph1
from repro.live import ChannelSpec, LiveConfig, LiveSource
from repro.media import MpegEncoder, NvEncoder, VatEncoder, packetize_cbr
from repro.net import messages as m
from repro.net.rtp import RtpHeader
from repro.net.vat import VatHeader
from repro.sim import Simulator
from repro.units import MPEG1_RATE

from tests.helpers import (
    MCAST, SMALL, build_cluster, make_packets, open_client, start_viewer,
)


def scan_next_due(iop):
    """The reference: (stream, record, deadline) by a scan of every stream."""
    best = None
    for stream in iop.play_streams:
        if stream.state is not StreamState.PLAYING:
            continue
        record = stream.peek_record()
        if record is None:
            continue
        deadline = stream.deadline(record)
        if best is None or deadline < best[2]:
            best = (stream, record, deadline)
    return best


def _same(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return got[0] is want[0] and got[1] is want[1] and got[2] == want[2]


@pytest.fixture
def oracle(monkeypatch):
    """Check every ``_next_due`` call against the scan; returns the tally."""
    tally = SimpleNamespace(calls=0, found=0, mismatches=[])
    heap_next_due = NetworkProcess._next_due

    def checked(self):
        entry = heap_next_due(self)
        got = None if entry is None else (entry[2], entry[3], entry[0])
        want = scan_next_due(self)
        tally.calls += 1
        tally.found += want is not None
        if not _same(got, want):
            tally.mismatches.append((self.sim.now, got, want))
        return entry

    monkeypatch.setattr(NetworkProcess, "_next_due", checked)
    return tally


def _agreed(tally) -> None:
    assert tally.mismatches == []
    assert tally.calls > 1000 and tally.found > 1000


def test_graph1_22_streams(oracle):
    run_graph1(stream_counts=(22,), duration=2.0)
    _agreed(oracle)


def _composite_packets(seconds: float):
    video = [
        (p.delivery_us,
         RtpHeader(28, i, int(p.delivery_us * 90 // 1000), 9).pack() + p.payload)
        for i, p in enumerate(NvEncoder(seed=7).packets(seconds))
    ]
    audio = [
        (p.delivery_us,
         VatHeader(0, 1, 3, int(p.delivery_us * 8 // 1000)).pack() + p.payload)
        for p in VatEncoder(seed=8).packets(seconds)
    ]
    return {"rtp-video": video, "vat-audio": audio}


def test_vcr_storm_on_one_msu(oracle):
    """Pause, play, seek, scans and seeks past the end, several at once;
    the two-member group's seek past the end leaves one member playing
    with empty buffers while the other is still seeking."""
    sim = Simulator()
    cluster = CalliopeCluster(sim, ClusterConfig(n_msus=1, ibtree_config=SMALL))
    cluster.coordinator.db.add_customer("user")
    bitstream = MpegEncoder(seed=2).bitstream(30.0)
    cluster.load_content(
        "movie", "mpeg1", packetize_cbr(bitstream, MPEG1_RATE, 1024)
    )
    cluster.install_fast_scans("movie", bitstream, MPEG1_RATE, 1024, step=15)
    cluster.load_composite("talk", "seminar", _composite_packets(20.0))
    scripts = {
        "c0": [(1.0, m.VCR_PAUSE, 0), (0.7, m.VCR_PLAY, 0),
               (0.9, m.VCR_SEEK, 12.0), (1.1, m.VCR_FAST_FORWARD, 0),
               (0.8, m.VCR_NORMAL, 0), (0.6, m.VCR_SEEK, 500.0)],
        "c1": [(0.5, m.VCR_FAST_FORWARD, 0), (0.0, m.VCR_PAUSE, 0),
               (1.2, m.VCR_PLAY, 0), (0.0, m.VCR_SEEK, 3.0),
               (1.5, m.VCR_FAST_BACKWARD, 0), (0.9, m.VCR_PLAY, 0)],
        "c2": [(1.3, m.VCR_SEEK, 20.0), (0.4, m.VCR_PAUSE, 0),
               (0.4, m.VCR_PLAY, 0), (0.0, m.VCR_PAUSE, 0),
               (0.6, m.VCR_PLAY, 0)],
        "c3": [(0.8, m.VCR_PAUSE, 0), (0.3, m.VCR_PLAY, 0),
               (0.3, m.VCR_SEEK, 8.0)],
    }
    for name, script in scripts.items():
        client = open_client(sim, cluster, name)

        def watch(client=client, script=script):
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play("movie", "tv")
            yield from client.wait_ready(view)
            for delay, command, position in script:
                if delay:
                    yield sim.timeout(delay)
                client.vcr(view.group_id, command, position_seconds=position)
            yield sim.timeout(2.0)
            client.quit(view.group_id)

        sim.process(watch())
    seminar = open_client(sim, cluster, "c4")

    def lecture():
        yield from seminar.register_port("v", "rtp-video")
        yield from seminar.register_port("a", "vat-audio")
        yield from seminar.register_composite_port("sem", "seminar", ["v", "a"])
        view = yield from seminar.play("talk", "sem")
        yield from seminar.wait_ready(view)
        yield sim.timeout(1.5)
        seminar.vcr(view.group_id, m.VCR_SEEK, position_seconds=5.0)
        yield sim.timeout(1.5)
        seminar.vcr(view.group_id, m.VCR_SEEK, position_seconds=900.0)

    sim.process(lecture())
    sim.run(until=sim.now + 14.0)
    assert not cluster.msus[0].iop.play_streams
    _agreed(oracle)


def test_multicast_patch_join(oracle):
    sim, cluster, _ = build_cluster(
        n_msus=1, disks_per_hba=(1,), seed=7, length=10.0,
        multicast=MCAST, n_titles=1, run_to=0.01,
    )
    start_viewer(sim, open_client(sim, cluster, "c0"), "title0", "tv")
    sim.run(until=sim.now + 2.0)
    start_viewer(sim, open_client(sim, cluster, "c1"), "title0", "tv")
    sim.run(until=sim.now + 10.0)
    assert cluster.coordinator.channel_manager.patched_joins == 1
    _agreed(oracle)


def test_live_pause_and_rewind(oracle):
    sim = Simulator()
    spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                       duration_seconds=10.0)
    cluster = CalliopeCluster(sim, ClusterConfig(
        n_msus=1, ibtree_config=SMALL,
        live=LiveConfig(lineup=(spec,), ring_seconds=8.0),
    ))
    cluster.coordinator.db.add_customer("user")
    LiveSource(sim, cluster, "feed0").add_feed("news", make_packets(10.0))
    client = open_client(sim, cluster)

    def viewer():
        yield from client.register_port("tv", "mpeg1")
        yield sim.timeout(2.0)
        view = yield from client.play("news", "tv")
        yield from client.wait_ready(view)
        yield sim.timeout(1.0)
        client.vcr(view.group_id, m.VCR_PAUSE)
        yield sim.timeout(1.5)
        client.vcr(view.group_id, m.VCR_PLAY)
        yield sim.timeout(1.5)
        client.vcr(view.group_id, m.VCR_REWIND, position_seconds=3.0)
        yield sim.timeout(2.0)
        client.quit(view.group_id)

    sim.process(viewer())
    sim.run(until=16.0)
    assert cluster.coordinator.live_manager.rewinds == 2
    _agreed(oracle)


def test_msu_crash_then_reboot(oracle):
    sim, cluster, _ = build_cluster(n_msus=1, n_titles=2, run_to=0.01)
    for i in range(3):
        client = Client(sim, cluster, f"c{i}")
        sim.process(client.open_session("user"))
        sim.run(until=sim.now + 0.1)
        start_viewer(sim, client, f"title{i % 2}", "tv")
    sim.run(until=sim.now + 2.0)
    cluster.fail_msu(0, crash=True)
    sim.run(until=sim.now + 0.5)
    cluster.rejoin_msu(0)
    sim.run(until=sim.now + 0.5)
    for i in range(2):
        start_viewer(sim, open_client(sim, cluster, f"r{i}"), "title0", "tv")
    sim.run(until=sim.now + 3.0)
    assert len(cluster.msus[0].iop.play_streams) == 2
    _agreed(oracle)
