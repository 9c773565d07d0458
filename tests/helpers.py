"""Shared cluster-bringup helpers for the integration test files.

The failover, multicast, cache and chaos tests all stand up the same
small cluster: tiny IB-tree pages so content is multi-page without being
large, a fast heartbeat so detection fits in test-sized horizons, and a
short batch window so multicast channels fire quickly.  The knobs and
the bringup steps live here once; the test modules keep only thin
adapters for their historical signatures.
"""

from __future__ import annotations

from repro.clients import Client
from repro.core.admission import AdmissionControl
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.core.coordinator import Coordinator
from repro.core.database import AdminDatabase, ContentEntry
from repro.failover import FailoverConfig, HeartbeatConfig
from repro.media import MpegEncoder, packetize_cbr
from repro.multicast import MulticastConfig
from repro.net import messages as m
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import BLOCK_SIZE, MPEG1_RATE

__all__ = [
    "SMALL", "FAST", "MCAST", "make_packets", "build_cluster",
    "open_client", "start_stream", "start_viewer", "start_viewers_together",
    "beat_until", "record_holds", "record_failures", "crash_in_hold",
    "build_admission_db", "record_through_outage", "leader_back",
]

#: Small IB-tree pages: test titles span many pages without being big.
SMALL = SMALL_PAGES

#: Fast detection so tests stay short: dead ~0.3 s after the last beat.
FAST = HeartbeatConfig(
    period=0.1, miss_threshold=2, suspect_backoff=0.1,
    backoff_factor=2.0, suspect_probes=1,
)

#: A short batch window so tests do not wait long for channels to fire.
MCAST = MulticastConfig(batch_window=0.2, patch_horizon=6.0)


def make_packets(length: float, seed: int = 3):
    """A ``length``-second CBR MPEG-1 title as loadable packets."""
    return packetize_cbr(MpegEncoder(seed=seed).bitstream(length), MPEG1_RATE, 1024)


def build_cluster(
    *,
    n_msus: int = 2,
    disks_per_hba=None,
    seed: int = 3,
    length: float = 30.0,
    failover=None,
    multicast=None,
    n_titles: int = 0,
    run_to: float = 0.0,
    n_coordinators: int = 1,
    standby: bool = False,
):
    """One small cluster and a packetized title: (sim, cluster, packets).

    ``failover="fast"`` is shorthand for a FailoverConfig on the shared
    :data:`FAST` heartbeat; any other value passes through.  With
    ``n_titles`` > 0 the title is pre-loaded that many times (as
    ``title0..titleN-1``) on the first MSU's first disk, and ``run_to``
    lets callers burn the bringup instant before the test starts.
    ``n_coordinators`` > 1 shards admission that many ways, and
    ``standby`` brings up a warm standby tailing the journal; either
    installs a :class:`~repro.scaleout.ScaleOutConfig`.
    """
    sim = Simulator()
    fo = FailoverConfig(heartbeat=FAST) if failover == "fast" else failover
    extra = {} if disks_per_hba is None else {"disks_per_hba": disks_per_hba}
    if n_coordinators > 1 or standby:
        from repro.scaleout import ScaleOutConfig

        extra["scaleout"] = ScaleOutConfig(
            shards=n_coordinators, standby=standby
        )
    cluster = CalliopeCluster(
        sim,
        ClusterConfig(
            n_msus=n_msus, ibtree_config=SMALL, failover=fo,
            multicast=multicast, **extra,
        ),
    )
    cluster.coordinator.db.add_customer("user")
    packets = make_packets(length, seed=seed)
    for t in range(n_titles):
        cluster.load_content(f"title{t}", "mpeg1", packets, disk_index=0)
    if run_to > 0.0:
        sim.run(until=run_to)
    return sim, cluster, packets


def open_client(sim, cluster, name="c0", **kwargs):
    """A connected client with an open session."""
    client = Client(sim, cluster, name, **kwargs)
    proc = sim.process(client.open_session("user"))
    sim.run_until_event(proc, limit=10.0)
    return client


def start_stream(sim, client, title, port):
    """Register ``port``, play ``title``, and wait until data flows."""

    def scenario():
        yield from client.register_port(port, "mpeg1")
        view = yield from client.play(title, port)
        yield from client.wait_ready(view)
        return view

    proc = sim.process(scenario())
    return sim.run_until_event(proc, limit=30.0)


#: The multicast tests call the same bringup a "viewer".
start_viewer = start_stream


def start_viewers_together(sim, requests):
    """Start several (client, title, port) viewers in the same instant,
    so their requests land in one batch window."""

    def scenario(client, title, port):
        yield from client.register_port(port, "mpeg1")
        view = yield from client.play(title, port)
        yield from client.wait_ready(view)
        return view

    procs = [
        sim.process(scenario(client, title, port))
        for client, title, port in requests
    ]
    return [sim.run_until_event(proc, limit=30.0) for proc in procs]


def record_through_outage(sim, cluster, client, name, pages=50):
    """Record ``name`` (``pages`` 4 KiB payloads 20 ms apart), crash the
    Coordinator 0.7 s in, and quit the recording 0.05 s later: it
    completes while the Coordinator is down, so the StreamTerminated
    carrying its size is lost.  Returns the recording's GroupView."""

    def scenario():
        yield from client.register_port("cam", "mpeg1")
        view = yield from client.record(name, "mpeg1", "cam", 30.0)
        yield from client.wait_ready(view)
        source = [(i * 20_000, bytes([i % 256]) * 4096) for i in range(pages)]
        sim.process(client.send_stream(
            "cam", view.record_addresses()[name], source
        ))
        return view

    view = sim.run_until_event(sim.process(scenario()), limit=10.0)
    sim.run(until=sim.now + 0.7)
    cluster.crash_coordinator()
    sim.run(until=sim.now + 0.05)
    client.quit(view.group_id)
    sim.run(until=sim.now + 0.5)
    return view


def leader_back(cluster, door):
    """End a Coordinator outage through ``door``: ``"restart"`` cold-starts
    a replacement now; ``"takeover"`` means the warm standby
    (``build_cluster(standby=True)``) has already been promoted."""
    if door == "restart":
        cluster.restart_coordinator()
    assert not cluster.coordinator_down


def record_holds(coord):
    """Start times of every SCHEDULE_CPU hold on the Coordinator's CPU."""
    cpu = coord.machine.cpu
    execute, starts = cpu.execute, []

    def timed(duration):
        if duration == coord.SCHEDULE_CPU:
            starts.append(coord.sim.now)
        return execute(duration)

    cpu.execute = timed
    return starts


def record_failures(coord):
    """When the Coordinator first declared each MSU failed, by name."""
    failed, times = coord._msu_failed, {}

    def timed(msu_name, *args, **kwargs):
        times.setdefault(msu_name, coord.sim.now)
        return failed(msu_name, *args, **kwargs)

    coord._msu_failed = timed
    return times


def crash_in_hold(setup, index=0):
    """Rerun ``setup()`` with msu0 crashing so that the Coordinator
    detects it in the middle of the ``index``-th SCHEDULE_CPU hold after
    ``setup`` returns; ``(sim, cluster, extra)`` one second on.

    ``setup`` returns ``(sim, cluster, extra)`` and runs the same way
    each time.  Two probes derive the crash instant: when the hold
    starts, and how long a crash there takes to detect.
    """
    sim, cluster, _ = setup()
    holds = record_holds(cluster.coordinator)
    sim.run(until=sim.now + 1.0)
    hold = holds[index]
    sim, cluster, _ = setup()
    detected = record_failures(cluster.coordinator)
    sim.run(until=hold)
    cluster.fail_msu(0, crash=True)
    sim.run(until=hold + 1.0)
    crash_at = hold + Coordinator.SCHEDULE_CPU / 2 - (detected["msu0"] - hold)
    sim, cluster, extra = setup()
    holds = record_holds(cluster.coordinator)
    detected = record_failures(cluster.coordinator)
    sim.run(until=crash_at)
    cluster.fail_msu(0, crash=True)
    sim.run(until=crash_at + 1.0)
    assert holds[index] < detected["msu0"] < holds[index] + Coordinator.SCHEDULE_CPU
    return sim, cluster, extra


def beat_until(sim, monitor, msu_name, stop, period=0.1, positions=()):
    """Feed ``monitor`` heartbeats from ``msu_name`` until ``stop``."""

    def gen():
        seq = 0
        while sim.now < stop:
            seq += 1
            monitor.beat(m.Heartbeat(msu_name, seq, positions))
            yield sim.timeout(period)

    sim.process(gen(), name="beats")


def build_admission_db(cache_bps: float = 4.2e6):
    """One-MSU/one-disk admission fixture: (db, admission, entry)."""
    db = AdminDatabase()
    db.register_msu("msu0", [("msu0.sd0", 1000)], cache_bps=cache_bps)
    entry = ContentEntry("m", "mpeg1", "msu0", "msu0.sd0")
    db.add_content(entry)
    return db, AdmissionControl(db, BLOCK_SIZE), entry
