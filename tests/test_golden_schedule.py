"""Golden per-packet send schedules: the fidelity oracle for kernel changes.

A kernel or hardware-model optimisation that removes events must not move
a single simulated send time.  These goldens pin, for four short runs of
the paper's experiments, every ``(deadline, sent_at)`` pair the MSU's IOP
hands its lateness collector — the raw data behind Graphs 1 and 2 — and
every recorded page's commit time.  Each golden is the row count plus a
sha256 over the rows' reprs (``repr`` of a float round-trips exactly), so
a change passes only if every row is bit-for-bit identical.

The runs:

* Graph 1's rig at 22 streams (the comfortable side of the collapse) and
  at 24 (past it: the memory bus and CPU queue for real),
* Graph 2 at 16 variable-rate streams with synchronised starts,
* eight simultaneous recordings on one MSU, pinned by page-commit time.

Each run covers at most 10 simulated seconds.

The other half of that contract is cost: event budgets cap the kernel
events spent per packet on Graph 1's rig and per delivered copy on a
multicast channel.  Event counts are deterministic, so the checks are
exact, and a change that brings back the scheduled grants of idle
resources, or one arrival entry per group member, fails here and not
only on the benchmark.
"""

from __future__ import annotations

import hashlib
import os
import sys
from collections import Counter
from typing import Generator, List

import pytest

import repro
from repro.experiments._support import StreamingRig, run_streaming_workload
from repro.experiments.graph1 import run_graph1
from repro.experiments.graph2 import run_graph2
from repro.experiments.recording import _cbr_source
from repro.media.mpeg import MpegEncoder, packetize_cbr
from repro.metrics.lateness import LatenessCollector
from repro.units import CBR_PACKET_SIZE, MPEG1_RATE
from tests.helpers import (
    MCAST, build_cluster, open_client, start_viewers_together,
)

#: Measured window after the streams finish buffering (~2 sim-s).
WINDOW = 7.5

#: name -> (rows, sha256 of the rows' reprs).
GOLDENS = {
    "graph1_22": (
        6616, "ffe8d961b5385d62e018e66eeb16047f73c7905044b3a5440144279c58fb1713"),
    "graph1_24": (
        7063, "2b01f2443edf67e1599edc49bbe03ae7067ebce9c72e866f725cc892d6d58d7b"),
    "graph2_16": (
        11447, "dd049b5a030f48e763873883a103c9b147c7febdc144ff8a43f25365e518ee4c"),
    "recording_8": (
        40, "ce2a10462d15c60c05cd84325d1815aa4f6589b96de9d6733d56ce8fc5405e47"),
}


def _digest(rows: List[tuple]) -> tuple:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return len(rows), h.hexdigest()


@pytest.fixture
def sends(monkeypatch) -> List[tuple]:
    """Every ``(deadline, sent_at)`` pair any lateness collector records."""
    rows: List[tuple] = []
    record = LatenessCollector.record

    def spy(self, deadline, sent_at):
        rows.append((deadline, sent_at))
        record(self, deadline, sent_at)

    monkeypatch.setattr(LatenessCollector, "record", spy)
    return rows


def _recording_commits(streams: int = 8, seconds: float = 5.0) -> List[tuple]:
    """E15's recording scenario, stopped once every take is on disk.

    Returns one ``(commit_time, disk_id, stream_id)`` row per page written.
    """
    rig = StreamingRig()
    rig.uncap_admission()
    sim, client = rig.sim, rig.client
    commits: List[tuple] = []
    for disk_id, dp in rig.msu.disk_processes.items():
        def on_page_written(stream, disk_id=disk_id, inner=dp.on_page_written):
            commits.append((sim.now, disk_id, stream.stream_id))
            inner(stream)

        dp.on_page_written = on_page_written
    source = _cbr_source(seconds)

    def scenario() -> Generator:
        yield from client.open_session("user")
        views = []
        for i in range(streams):
            yield from client.register_port(f"cam{i}", "mpeg1")
            view = yield from client.record(f"take{i}", "mpeg1", f"cam{i}",
                                            seconds + 30.0)
            yield from client.wait_ready(view)
            views.append(view)
        feeds = [
            sim.process(client.send_stream(
                f"cam{i}", view.record_addresses()[f"take{i}"], source))
            for i, view in enumerate(views)
        ]
        for feed in feeds:
            yield feed
        yield sim.timeout(0.5)  # let the tail packets cross the wire
        for view in views:
            client.quit(view.group_id)
        for view in views:
            yield from client.wait_done(view)

    proc = sim.process(scenario(), name="studio")
    sim.run_until_event(proc, limit=10.0)
    return commits


def test_graph1_22_streams_send_schedule(sends):
    run_graph1(stream_counts=(22,), duration=WINDOW)
    assert _digest(sends) == GOLDENS["graph1_22"]


def test_graph1_24_streams_send_schedule(sends):
    run_graph1(stream_counts=(24,), duration=WINDOW)
    assert _digest(sends) == GOLDENS["graph1_24"]


def test_graph2_16_streams_send_schedule(sends):
    run_graph2(stream_counts=(16,), duration=WINDOW)
    assert _digest(sends) == GOLDENS["graph2_16"]


def test_recording_page_commit_schedule():
    commits = _recording_commits()
    assert _digest(commits) == GOLDENS["recording_8"]


def _graph1_22_released() -> StreamingRig:
    """Graph 1's rig at 22 streams, every stream buffered and released."""
    rig = StreamingRig()
    rig.uncap_admission()
    bitstream = MpegEncoder(rate=MPEG1_RATE, seed=1).bitstream(33.0)
    packets = packetize_cbr(bitstream, MPEG1_RATE, CBR_PACKET_SIZE)
    for d in range(2):
        rig.cluster.load_content(f"movie-d{d}", "mpeg1", packets, disk_index=d)
    plan = [(f"movie-d{i % 2}", "mpeg1") for i in range(22)]
    # Buffer every stream and release them (window 0).
    run_streaming_workload(rig, plan, 0.0, stagger_span=2.0, seed=1)
    return rig


def test_graph1_22_streams_event_budget():
    """Kernel events per packet sent on Graph 1's rig, 3 sim-s after release.

    It reads 6.93: idle resources are granted inline (14.0 when every
    grant was a scheduled event), and the single-claimant hand-offs (the
    NIC line, the client port, a finished process's completion) take no
    queue slot (9.94 while they did).  7.5 leaves room for small changes
    but not for either kind of event's return.
    """
    rig = _graph1_22_released()
    sim, iop = rig.sim, rig.msu.iop
    events0, sent0 = sim.events_executed, iop.packets_sent
    sim.run(until=sim.now + 3.0)
    assert sim.now <= 5.0
    events, sent = sim.events_executed - events0, iop.packets_sent - sent0
    assert sent > 2000
    assert events / sent <= 7.5


#: Frames entered per packet sent on the event budget's window.
FRAME_CEILING = 114.0

#: Only frames of the ``repro`` package count: the standard library's
#: frames (``enum``, ``dataclasses``-generated methods) differ between
#: interpreters.
_REPRO = os.path.dirname(repro.__file__) + os.sep

#: Code objects a 3.12 interpreter inlines into their caller (PEP 709);
#: leaving them out makes the frame count the same on 3.10 to 3.12.
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def frames_entered(run) -> Counter:
    """Call ``run()`` and count the ``repro`` frames it enters, by function.

    A frame is entered on every function call and every generator
    resume, each of which raises one ``sys.settrace`` ``call`` event; the
    count is therefore exact and repeats run to run.  Keys are
    ``(file name, first line, function name)``.
    """
    counts: Counter = Counter()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(_REPRO) and code.co_name not in _INLINED:
            counts[code.co_filename, code.co_firstlineno, code.co_name] += 1

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return counts


def test_graph1_22_streams_frame_budget():
    """Python frames entered per packet sent, on the event budget's window.

    Where the event budget counts queue entries, this counts what each
    one costs the interpreter: every function call and generator resume
    from the kernel up through the hardware models and the MSU.  It reads
    109.38 per packet, 45.5 of them in the kernel (``repro.sim``), and
    Python 3.10 to 3.12 count the same frames on the same schedule; it
    read 205.16 (113.7) while each resource hold was a stack of
    generators and every entry took three scheduler calls (DESIGN.md
    §13.9).  The ceiling leaves about 4 % for small changes, not for a
    generator frame per hold.
    """
    rig = _graph1_22_released()
    sim, iop = rig.sim, rig.msu.iop
    sent0 = iop.packets_sent
    frames = frames_entered(lambda: sim.run(until=sim.now + 3.0))
    sent = iop.packets_sent - sent0
    assert sent > 2000
    assert sum(frames.values()) / sent <= FRAME_CEILING


def test_multicast_fanout_event_budget():
    """Kernel events per delivered copy on one channel with 20 viewers.

    It reads 0.39: a send costs about 7.8 events on the MSU path plus one
    arrival entry for the whole group, shared by 20 copies.  With one
    arrival entry per member it read 1.34, so 0.45 fails if per-copy
    entries come back.
    """
    sim, cluster, _ = build_cluster(
        n_msus=1, disks_per_hba=(1,), seed=7, length=10.0,
        multicast=MCAST, n_titles=1, run_to=0.01,
    )
    clients = [open_client(sim, cluster, f"c{i}") for i in range(20)]
    start_viewers_together(sim, [(c, "title0", "tv") for c in clients])
    assert cluster.coordinator.channel_manager.channels_created == 1
    net = cluster.delivery_net
    events0, copies0 = sim.events_executed, net.multicast_copies
    sim.run(until=sim.now + 3.0)
    events = sim.events_executed - events0
    copies = net.multicast_copies - copies0
    assert copies > 20 * 500
    assert events / copies <= 0.45
