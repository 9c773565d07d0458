"""Kernel determinism: the same inputs execute exactly the same schedule.

Every result the reproduction reports is a timing result from one
deterministic DES (DESIGN.md §2, §13), so a run must be a pure function
of its inputs: every queue entry fires at the same ``(time, seq)`` and in
the same global order, every time.

Each check runs its workload twice in one process, with the kernel's
trace hook recording every executed entry as ``(time, seq, event-kind)``,
and the two traces must be identical.  Object ids differ between the two
runs, so any iteration over an id-ordered set or dict on a scheduling
path shows up as a divergence.

* golden traces: representative cluster scenarios (VoD with VCR ops,
  multicast channel formation, MSU crash/failover, live TV), and
* random process workloads: Hypothesis-generated mixes of timeouts,
  zero-delay schedules, events and interrupts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import ChannelSpec, LiveConfig, LiveSource
from repro.net import messages as m
from repro.sim import Simulator
from tests.helpers import MCAST, build_cluster, make_packets, open_client

# ---------------------------------------------------------------------------
# golden traces
# ---------------------------------------------------------------------------


def _kind(fn, args) -> str:
    """A stable label for one queue entry (no object ids, no addresses)."""
    owner = getattr(fn, "__self__", None)
    name = getattr(fn, "__name__", type(fn).__name__)
    if owner is not None:
        return f"{type(owner).__name__}.{name}"
    return getattr(fn, "__qualname__", name)


def _record(sim: Simulator) -> list:
    """Attach a trace to ``sim``; returns the growing (time, seq, kind) list."""
    trace = []
    sim.trace = lambda t, s, fn, args: trace.append((t, s, _kind(fn, args)))
    return trace


def _vod_scenario() -> tuple:
    """One VoD stream with pause/resume — the bread-and-butter schedule."""
    sim, cluster, _ = build_cluster(n_msus=1, n_titles=1, length=20.0)
    trace = _record(sim)
    client = open_client(sim, cluster)
    marks = {}

    def scenario():
        yield from client.register_port("tv", "mpeg1")
        view = yield from client.play("title0", "tv")
        yield from client.wait_ready(view)
        yield sim.timeout(2.0)
        client.vcr(view.group_id, m.VCR_PAUSE)
        yield sim.timeout(1.0)
        client.vcr(view.group_id, m.VCR_PLAY)
        yield sim.timeout(2.0)
        client.quit(view.group_id)
        marks["done"] = sim.now

    sim.process(scenario())
    sim.run(until=12.0)
    assert "done" in marks
    return sim, trace


def _multicast_scenario() -> tuple:
    """Two viewers batch onto one channel inside the multicast window."""
    sim, cluster, _ = build_cluster(
        n_msus=1, n_titles=1, length=20.0, multicast=MCAST
    )
    trace = _record(sim)
    client = open_client(sim, cluster)

    def scenario():
        yield from client.register_port("tv0", "mpeg1")
        yield from client.register_port("tv1", "mpeg1")
        v0 = yield from client.play("title0", "tv0")
        v1 = yield from client.play("title0", "tv1")
        yield from client.wait_ready(v0)
        yield from client.wait_ready(v1)
        yield sim.timeout(3.0)
        client.quit(v0.group_id)
        yield sim.timeout(1.0)
        client.quit(v1.group_id)

    sim.process(scenario())
    sim.run(until=12.0)
    return sim, trace


def _failover_scenario() -> tuple:
    """A crash mid-stream: detection, teardown and cleanup traffic."""
    sim, cluster, _ = build_cluster(
        n_msus=2, n_titles=1, length=20.0, failover="fast"
    )
    trace = _record(sim)
    client = open_client(sim, cluster)

    def scenario():
        yield from client.register_port("tv", "mpeg1")
        view = yield from client.play("title0", "tv")
        yield from client.wait_ready(view)
        yield sim.timeout(1.0)
        cluster.fail_msu(0, crash=True)
        yield sim.timeout(3.0)

    sim.process(scenario())
    sim.run(until=10.0)
    return sim, trace


def _live_scenario() -> tuple:
    """A live channel on the air with one viewer tuning in and out."""
    spec = ChannelSpec(
        "news", "mpeg1", "feed0", start_at=0.5, duration_seconds=10.0
    )
    sim = Simulator()
    from repro.core.cluster import CalliopeCluster, ClusterConfig
    from tests.helpers import SMALL

    cluster = CalliopeCluster(
        sim,
        ClusterConfig(
            n_msus=1, ibtree_config=SMALL,
            live=LiveConfig(lineup=(spec,), ring_seconds=4.0),
        ),
    )
    cluster.coordinator.db.add_customer("user")
    source = LiveSource(sim, cluster, "feed0")
    source.add_feed("news", make_packets(10.0))
    trace = _record(sim)
    client = open_client(sim, cluster)

    def scenario():
        yield from client.register_port("tv", "mpeg1")
        yield sim.timeout(2.0)  # the channel is on the air by now
        view = yield from client.play("news", "tv")
        yield from client.wait_ready(view)
        yield sim.timeout(3.0)
        client.quit(view.group_id)

    sim.process(scenario())
    sim.run(until=9.0)
    return sim, trace


SCENARIOS = {
    "vod": _vod_scenario,
    "multicast": _multicast_scenario,
    "failover": _failover_scenario,
    "live": _live_scenario,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace_identical_across_runs(name):
    scenario = SCENARIOS[name]
    # Holding the first run's simulator keeps its objects alive, so the
    # second run cannot reuse their ids.
    first_sim, first = scenario()
    _, second = scenario()
    assert len(first) > 1000, f"{name}: trace suspiciously small ({len(first)})"
    # Pinpoint the first divergence rather than diffing two huge lists.
    for i, (a, b) in enumerate(zip(first, second)):
        assert a == b, f"{name}: schedules diverge at entry {i}: {a} != {b}"
    assert len(first) == len(second)


# ---------------------------------------------------------------------------
# Hypothesis: random process workloads trace identically run to run
# ---------------------------------------------------------------------------

_actions = st.lists(
    st.one_of(
        st.tuples(st.just("sleep"), st.floats(0.0, 2.0, allow_nan=False)),
        st.tuples(st.just("timeout"), st.floats(0.0, 2.0, allow_nan=False)),
        st.tuples(st.just("spawn"), st.integers(0, 3)),
        st.tuples(st.just("schedule0"), st.none()),
        st.tuples(st.just("event"), st.none()),
        st.tuples(st.just("interrupt"), st.none()),
    ),
    min_size=1,
    max_size=25,
)


def _run_workload(actions) -> tuple:
    sim = Simulator()
    trace = _record(sim)
    log = []
    spawned = []

    def leaf(n):
        for i in range(n):
            yield sim.sleep(0.05 * (i + 1))
            log.append(("leaf", n, i, sim.now))

    def driver():
        for i, (op, arg) in enumerate(actions):
            if op == "sleep":
                yield sim.sleep(arg)
            elif op == "timeout":
                yield sim.timeout(arg)
            elif op == "spawn":
                spawned.append(sim.process(leaf(arg + 1), name=f"leaf{i}"))
            elif op == "schedule0":
                sim.schedule(0.0, log.append, ("cb", i, sim.now))
            elif op == "event":
                ev = sim.event()
                sim.schedule(0.1, ev.succeed, i)
                value = yield ev
                log.append(("event", i, value, sim.now))
            elif op == "interrupt":
                for proc in spawned:
                    if proc.is_alive:
                        proc.interrupt("chaos")
                        break
            log.append(("step", i, sim.now))

    sim.process(driver(), name="driver")
    sim.run()
    return spawned, trace, log


@given(actions=_actions)
@settings(max_examples=75, deadline=None)
def test_random_workloads_trace_identically(actions):
    # As above: the first run's processes stay alive during the second.
    first_procs, first_trace, first_log = _run_workload(actions)
    _, second_trace, second_log = _run_workload(actions)
    assert first_log == second_log
    assert first_trace == second_trace
