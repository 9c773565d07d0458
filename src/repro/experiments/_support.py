"""Shared plumbing for the experiments.

The streaming rig drives one MSU to a fixed stream count (Graphs 1
and 2).  The title catalogue and the viewer population are the §3.3
sizing rig: ``title0..N`` of one CBR MPEG-1 bitstream, offered Poisson
viewers with Zipf popularity, every admission decided by the Coordinator.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.clients.client import Client, GroupView
from repro.clients.population import PopulationStats, ViewerPopulation
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.media.mpeg import MpegEncoder, packetize_cbr
from repro.metrics.lateness import LatenessCdf
from repro.sim import Simulator
from repro.units import MPEG1_RATE

__all__ = [
    "StreamingRig",
    "load_titles",
    "population_fields",
    "run_population",
    "run_streaming_workload",
    "watch",
]


def load_titles(
    cluster: CalliopeCluster,
    n_titles: int,
    length: float,
    seed: int,
    place: Callable[[int], Tuple[int, int]] = lambda t: (0, 0),
    settle: float = 0.01,
) -> List[str]:
    """Load ``title0..N-1``, one CBR MPEG-1 bitstream, and return the names.

    Adds the ``user`` customer first; ``place(t)`` gives title ``t``'s
    (MSU, disk) indices.  ``settle`` seconds run afterwards, so the
    MSUs' hellos have registered their disks with the Coordinator.
    """
    cluster.coordinator.db.add_customer("user")
    packets = packetize_cbr(
        MpegEncoder(seed=seed).bitstream(length), MPEG1_RATE, 1024
    )
    titles = [f"title{t}" for t in range(n_titles)]
    for t, name in enumerate(titles):
        msu_index, disk_index = place(t)
        cluster.load_content(
            name, "mpeg1", packets, msu_index=msu_index, disk_index=disk_index
        )
    cluster.sim.run(until=cluster.sim.now + settle)
    return titles


def watch(
    client: Client, title: str, port_name: str, views: Dict[str, GroupView]
) -> Generator:
    """One viewer: play ``title`` on a new port, file its view in
    ``views`` and return once its first packets have arrived."""
    yield from client.register_port(port_name, "mpeg1")
    view = yield from client.play(title, port_name)
    views[port_name] = view
    yield from client.wait_ready(view)


def run_population(
    cluster: CalliopeCluster,
    titles: Sequence[str],
    offered: float,
    mean_watch_seconds: float,
    duration: float,
    seed: int,
    drain: float = 30.0,
    **population,
) -> PopulationStats:
    """Offer ``offered`` Erlangs of Zipf viewers until ``duration``.

    One client carries every viewer; arrivals stop at ``duration`` and
    the viewers in flight get ``drain`` more seconds to finish.  Extra
    keywords go to :class:`ViewerPopulation` (``zipf_s``, for one).
    """
    sim = cluster.sim
    client = Client(sim, cluster, "audience")
    viewers = ViewerPopulation(
        sim, client, titles,
        arrival_rate=offered / mean_watch_seconds,
        mean_watch_seconds=mean_watch_seconds,
        queue_patience=2.0,
        seed=seed,
        **population,
    )
    viewers.start()
    sim.run(until=duration)
    viewers.stop()
    sim.run(until=duration + drain)
    return viewers.stats


def population_fields(offered: float, stats: PopulationStats) -> Dict[str, object]:
    """The admission columns every offered-load point reports."""
    return dict(
        offered_erlangs=offered,
        arrivals=stats.arrivals,
        admitted=stats.admitted,
        blocked_or_abandoned=stats.blocked + stats.abandoned,
        blocking_probability=stats.blocking_probability,
        concurrent_peak=stats.concurrent_peak,
    )


class StreamingRig:
    """One MSU driven to a fixed stream count, admission uncapped.

    The paper's Graph 1/2 measurements intentionally push the MSU past its
    comfortable operating point (22 -> 24 streams), so the Coordinator's
    admission limits are raised out of the way and the experiment controls
    the stream count directly.
    """

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.sim = Simulator()
        self.cluster = CalliopeCluster(self.sim, config or ClusterConfig())
        self.cluster.coordinator.db.add_customer("user")
        self.client = Client(self.sim, self.cluster, "client0")
        self.msu = self.cluster.msus[0]

    def uncap_admission(self) -> None:
        """Let the experiment, not the Coordinator, set the load."""
        # Run a few control-channel round trips so the MSUs' hello
        # messages have registered their disks before we raise the caps.
        self.sim.run(until=self.sim.now + 0.01)
        for state in self.cluster.coordinator.db.msus.values():
            state.delivery_capacity = 1e12
            for disk in state.disks.values():
                disk.bandwidth_capacity = 1e12


def run_streaming_workload(
    rig: StreamingRig,
    plan: Sequence[tuple],
    duration: float,
    settle: float = 30.0,
    stagger_span: float = 0.0,
    seed: int = 97,
) -> LatenessCdf:
    """Start streams per ``plan`` [(content, port_type)], measure a window.

    All streams are held LOADING until every buffer is resident, then
    released together; ``stagger_span`` > 0 spreads the schedules
    uniformly over that many seconds (clients in practice never start in
    synchrony, §3.2.2), while 0 reproduces the paper's synchronized-start
    test.  The lateness collector is reset at release so the CDF covers
    exactly the loaded steady state.
    """
    import numpy as np

    sim, client, msu = rig.sim, rig.client, rig.msu
    msu.iop.hold_starts = True

    def setup() -> Generator:
        yield from client.open_session("user")
        views = []
        for i, (content, port_type) in enumerate(plan):
            port = f"port{i}"
            yield from client.register_port(port, port_type)
            view = yield from client.play(content, port)
            views.append(view)
        return views

    proc = sim.process(setup(), name="setup")
    sim.run_until_event(proc, limit=settle)
    # Wait for every stream's opening buffers, then release in unison.
    guard = sim.now + settle
    while not (
        len(msu.iop.play_streams) == len(plan) and msu.iop.all_loaded()
    ):
        if sim.peek() > guard:
            raise RuntimeError("streams failed to buffer within the settle window")
        sim.step()
    msu.iop.collector.reset()
    stagger = None
    if stagger_span > 0:
        rng = np.random.default_rng(seed)
        streams = msu.iop.play_streams
        offsets = rng.uniform(0.0, stagger_span, len(streams))
        stagger = {s.stream_id: float(o) for s, o in zip(streams, offsets)}
    msu.iop.release_starts(stagger)
    sim.run(until=sim.now + duration)
    return msu.iop.collector.cdf()
