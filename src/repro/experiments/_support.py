"""Shared plumbing for the streaming experiments (Graphs 1 and 2)."""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.clients.client import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.metrics.lateness import LatenessCdf
from repro.sim import Simulator

__all__ = ["StreamingRig", "run_streaming_workload"]


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
