"""The Coordinator's MSU/edge message table: who owns which kind, and the seam.

``Coordinator.handlers`` maps each MSU -> Coordinator and edge ->
Coordinator message class to the one handler that serves it; the two
hellos bind a control channel and stay in the loops.  The core installs
its kinds, and the multicast, live and edge managers install theirs.
These tests pin that ownership and show that a part defined outside
``src/`` rides the same dispatch and lifecycle hooks: its message kind
runs in arrival order, and its ``msu_failed`` runs on an MSU failure.
"""

import dataclasses
import inspect

import pytest

from repro.core.cluster import ClusterConfig, build_coordinator
from repro.core.coordinator import Coordinator
from repro.edge import EdgeConfig
from repro.failover import FailoverConfig
from repro.live import LiveConfig
from repro.multicast import ChannelManager, MulticastConfig
from repro.net import messages as m
from repro.net.network import ControlChannel
from repro.recovery import restore_state, snapshot_state
from repro.recovery.parts import Part
from repro.sim import Simulator

#: Every MSU/edge -> Coordinator message class and the part that serves it.
OWNERS = {
    m.StateReport: "core",
    m.Heartbeat: "core",
    m.CacheReport: "core",
    m.StreamTerminated: "core",
    m.PatchDrained: "core",  # routed to multicast or live by channel id
    m.ChannelDowngrade: "channel_manager",
    m.LiveRewound: "live_manager",
    m.EdgeReport: "placement",
    m.EdgeServeDone: "placement",
}
#: Kinds a restarted Coordinator holds back until reconciliation ends.
HELD = {m.StreamTerminated, m.PatchDrained, m.LiveRewound, m.ChannelDowngrade}
CORE = {kind for kind, owner in OWNERS.items() if owner == "core"}


def all_on(sim):
    return build_coordinator(sim, ClusterConfig(
        failover=FailoverConfig(), multicast=MulticastConfig(),
        edge=EdgeConfig(), live=LiveConfig(),
    ))


def owner_of(coord, handler):
    if handler.__self__ is coord:
        return "core"
    (name,) = [
        attr for attr in ("channel_manager", "live_manager", "placement")
        if getattr(coord, attr) is handler.__self__
    ]
    return name


def coordinator_bound_kinds():
    """Message classes whose docstring says they travel to the Coordinator
    from an MSU or an edge (the hellos say "Sent when ... connects")."""
    return {
        cls for _name, cls in inspect.getmembers(m, inspect.isclass)
        if cls.__module__ == m.__name__ and dataclasses.is_dataclass(cls)
        and (cls.__doc__ or "").startswith(
            ("MSU -> Coordinator", "Edge -> Coordinator")
        )
    }


def say_hello(sim, coord, name="m0"):
    """Attach an MSU control channel and send its hello."""
    channel = ControlChannel(sim, name, coord.name)
    coord.attach_msu(channel)
    channel.send(name, m.MsuHello(name, ((f"{name}.sd0", 1000),)))
    return channel


def cache_report(name, hits):
    return m.CacheReport(name, hits, 0, 0, 0, 0, 0)


class TestOwnership:
    def test_every_coordinator_bound_kind_is_owned_once_on_an_all_on_coordinator(self):
        coord = all_on(Simulator())
        owners = {cls: owner_of(coord, h) for cls, h in coord.handlers.items()}
        assert owners == OWNERS
        assert set(OWNERS) == coordinator_bound_kinds()
        assert coord.held_kinds == HELD

    def test_a_bare_coordinator_lacks_only_the_subsystem_kinds(self):
        coord = Coordinator(Simulator())
        owners = {cls: owner_of(coord, h) for cls, h in coord.handlers.items()}
        assert owners == {kind: "core" for kind in CORE}
        assert coord.held_kinds == HELD & CORE

    def test_a_bare_coordinator_drops_subsystem_kinds_and_keeps_going(self):
        sim = Simulator()
        coord = Coordinator(sim)
        channel = say_hello(sim, coord)
        for msg in (
            m.ChannelDowngrade(1, 2, 3),
            m.LiveRewound(1, 2, 3, 0, 4),
            m.PatchDrained(1, 2, 3),
            m.EdgeReport("e0"),
            m.EdgeServeDone("e0", 2, 3, 1024),
            cache_report("m0", hits=7),
        ):
            channel.send("m0", msg)
        sim.run(until=0.1)
        # The loop survived the unowned kinds and applied the next one.
        assert coord.db.msus["m0"].cache_hits == 7

    def test_a_second_owner_raises(self):
        coord = all_on(Simulator())
        with pytest.raises(ValueError, match="Heartbeat"):
            coord.install(m.Heartbeat, lambda msg: None)
        with pytest.raises(ValueError, match="ChannelDowngrade"):
            ChannelManager(coord)


@dataclasses.dataclass(frozen=True)
class Probe:
    """A message kind no part of ``src/`` knows about."""

    label: str


class ToyPart(Part):
    """A subsystem defined outside ``src/``, added with ``add_part``."""

    def __init__(self, coord):
        self.coord = coord
        self.seen = []
        self.failed = []
        coord.install(Probe, self.probe)

    def probe(self, msg):
        state = self.coord.db.msus.get("m0")
        self.seen.append((msg.label, state.cache_hits if state else None))

    def msu_failed(self, msu_name):
        self.failed.append(msu_name)


class TestSeam:
    def test_an_installed_kind_runs_in_arrival_order_with_core_kinds(self):
        sim = Simulator()
        coord = Coordinator(sim)
        toy = ToyPart(coord)
        coord.add_part(toy)
        channel = say_hello(sim, coord)
        channel.send("m0", Probe("after-hello"))
        channel.send("m0", cache_report("m0", hits=3))
        channel.send("m0", Probe("after-report"))
        sim.run(until=0.1)
        assert toy.seen == [("after-hello", 0), ("after-report", 3)]

    def test_msu_failed_runs_on_an_msu_failure(self):
        sim = Simulator()
        coord = Coordinator(sim)
        toy = ToyPart(coord)
        coord.add_part(toy)
        channel = say_hello(sim, coord)
        sim.run(until=0.1)
        assert toy.failed == []
        channel.close()
        sim.run(until=0.2)
        assert not coord.db.msus["m0"].available
        assert toy.failed == ["m0"]

    def test_a_stateless_part_rides_snapshot_and_restore(self):
        sim = Simulator()
        coord = Coordinator(sim)
        bare = snapshot_state(coord)
        coord.add_part(ToyPart(coord))
        state = snapshot_state(coord)
        assert state == bare  # the part adds no section
        restore_state(coord, state)
        assert snapshot_state(coord) == bare


def test_channel_and_live_parts_claim_disjoint_groups_over_a_chaos_run():
    """``_stream_terminated`` offers a termination to every part in
    ``coord.parts`` order (multicast before live), while the parts once
    ran live first.  The order is immaterial because the group ids the
    two parts claim never overlap; checked at every termination of the
    all-on chaos run behind the recovery fixtures."""
    from repro.verify import ChaosConfig, ChaosSchedule
    from repro.verify.faults import FAULT_KINDS
    from repro.verify.harness import ChaosCluster

    kinds = {k: w for k, w in FAULT_KINDS.items() if not k.startswith("coordinator_")}
    chaos = ChaosCluster(
        ChaosSchedule.generate(10, n_ops=100, horizon=9.0, kinds=kinds),
        ChaosConfig(n_shards=2),
    )
    coord = chaos.cluster.coordinator
    terminated, claimed = coord._stream_terminated, []

    def checked(msg):
        channel = coord.channel_manager.owned_groups()
        live = coord.live_manager.owned_groups()
        assert not channel & live
        claimed.append((msg.group_id in channel, msg.group_id in live))
        terminated(msg)

    coord._stream_terminated = checked
    chaos.sim.run(until=9.0)
    assert (True, False) in claimed and (False, True) in claimed
