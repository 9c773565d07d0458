"""Experiment E15 (extension) — simultaneous recording capacity.

The paper's evaluation only measures playback; the recording path (§2.3:
"when data is recorded, the network process fills buffers and the disk
process writes full ones to disk") shares the same duty cycle and host
path, so it has a capacity of its own.  The experiment records N
simultaneous 1.5 Mbit/s streams, then checks three things per load level:

* every packet sent was durably stored (the IB-tree holds them all),
* how far disk writes lagged the sources (the write backlog drain time),
* aggregate stored bandwidth.

Like playback, recording is comfortable through ~20 streams on the
two-disk MSU and the backlog grows past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Sequence

from repro.clients.client import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.experiments import Experiment, headline
from repro.sim import Simulator
from repro.units import CBR_PACKET_SIZE, MPEG1_RATE, to_mbyte_per_s

__all__ = ["RecordingPoint", "run_recording", "format_recording"]


@dataclass(frozen=True)
class RecordingPoint:
    """One load level's recording behaviour."""

    streams: int
    packets_sent: int
    packets_stored: int
    aggregate_mb_s: float
    #: Seconds between the last source packet and the last disk write.
    drain_seconds: float

    @property
    def complete(self) -> bool:
        return self.packets_stored == self.packets_sent


def _cbr_source(duration: float) -> List:
    """A paced 1.5 Mbit/s source of 4 KiB packets (opaque payload)."""
    interval_us = int(CBR_PACKET_SIZE / MPEG1_RATE * 1e6)
    n = int(duration * MPEG1_RATE / CBR_PACKET_SIZE)
    return [(i * interval_us, bytes([i % 256]) * CBR_PACKET_SIZE) for i in range(n)]


def _run_one(streams: int, duration: float, seed: int) -> RecordingPoint:
    sim = Simulator()
    cluster = CalliopeCluster(sim, ClusterConfig(n_msus=1))
    cluster.coordinator.db.add_customer("user")
    sim.run(until=0.01)
    for state in cluster.coordinator.db.msus.values():
        state.delivery_capacity = 1e12
        for disk in state.disks.values():
            disk.bandwidth_capacity = 1e12
    client = Client(sim, cluster, "studio")
    source = _cbr_source(duration)
    views = []

    def scenario() -> Generator:
        yield from client.open_session("user")
        feeds = []
        for i in range(streams):
            yield from client.register_port(f"cam{i}", "mpeg1")
            view = yield from client.record(f"take{i}", "mpeg1", f"cam{i}",
                                            duration + 30.0)
            yield from client.wait_ready(view)
            views.append(view)
        for i, view in enumerate(views):
            address = view.record_addresses()[f"take{i}"]
            feeds.append(
                sim.process(client.send_stream(f"cam{i}", address, source))
            )
        for feed in feeds:
            yield feed
        sources_done = sim.now
        yield sim.timeout(0.5)  # let the tail packets cross the wire
        for view in views:
            client.quit(view.group_id)
        for view in views:
            yield from client.wait_done(view)
        return sources_done, sim.now

    proc = sim.process(scenario(), name="studio")
    sim.run(until=duration + 240.0)
    if not proc.triggered or not proc.ok:
        raise RuntimeError("recording scenario did not finish")
    sources_done, completed = proc.value
    drain = completed  # streams complete only after their last disk write
    msu = cluster.msus[0]
    stored = 0
    from repro.storage.ibtree import IBTreeReader

    for i in range(streams):
        entry = cluster.coordinator.db.content(f"take{i}")
        fs = msu.filesystems[entry.disk_id]
        handle = fs.open(f"take{i}")
        for b in range(handle.nblocks):
            stored += len(IBTreeReader.parse_page(fs.read_block_sync(handle, b)))
    total_sent = streams * len(source)
    return RecordingPoint(
        streams=streams,
        packets_sent=total_sent,
        packets_stored=stored,
        aggregate_mb_s=to_mbyte_per_s(total_sent * CBR_PACKET_SIZE / duration),
        drain_seconds=max(0.0, drain - sources_done - 0.5),
    )


def run_recording(
    stream_counts: Sequence[int] = (8, 16, 22),
    duration: float = 20.0,
    seed: int = 4,
) -> List[RecordingPoint]:
    """Sweep simultaneous recordings."""
    return [_run_one(n, duration, seed) for n in stream_counts]


def format_recording(points: List[RecordingPoint]) -> str:
    """Render the recording-capacity sweep."""
    lines = [
        "Simultaneous recording capacity (1.5 Mbit/s sources, two disks)",
        f"{'streams':>8} | {'sent':>7} | {'stored':>7} | {'complete':>8} | "
        f"{'offered MB/s':>12} | {'drain':>7}",
    ]
    for p in points:
        lines.append(
            f"{p.streams:>8} | {p.packets_sent:>7} | {p.packets_stored:>7} | "
            f"{'yes' if p.complete else 'NO':>8} | {p.aggregate_mb_s:>11.2f}  | "
            f"{p.drain_seconds:>6.2f}s"
        )
    lines.append(
        "(every packet is durably stored; the write backlog drain grows as"
        " the duty cycle fills — recording shares playback's capacity)"
    )
    return "\n".join(lines)


def _checks(points: List[RecordingPoint]) -> None:
    # Every packet of every recording is durably stored ...
    assert all(p.complete for p in points)
    # ... and the disk write backlog grows with the offered load.
    drains = [p.drain_seconds for p in points]
    assert drains == sorted(drains)
    assert drains[-1] > drains[0]


def _headlines(points: List[RecordingPoint]) -> list:
    return [
        headline(
            "max_drain_seconds",
            round(max(p.drain_seconds for p in points), 3), "seconds",
            all_complete=all(p.complete for p in points),
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="recording", table="recording",
        paper_ref="§2.3 simultaneous recording capacity (extension)",
        run=run_recording, render=format_recording,
        checks=_checks, headlines=_headlines, duration_arg="duration",
    ),
)
