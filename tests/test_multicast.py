"""Multicast delivery: batched channels, patching streams, merge-aware
admission, and the ledger invariant that the books balance after drain."""

from types import SimpleNamespace

import pytest

from repro.core.msu.network_process import NetworkProcess
from repro.clients.playback import splice_flows
from repro.core.coordinator import Coordinator
from repro.hardware.timer import SystemTimer
from repro.multicast import AdmissionLedger, MulticastConfig
from repro.net.network import Host, Network
from repro.sim import Simulator
from repro.units import MPEG1_RATE
from repro.verify.invariants import builtin_registry

from tests.helpers import (
    MCAST, build_cluster, crash_in_hold, open_client, record_failures,
    record_holds, start_viewer, start_viewers_together,
)


def build(length=10.0, multicast=MCAST, n_titles=1, seed=7):
    sim, cluster, _ = build_cluster(
        n_msus=1, disks_per_hba=(1,), seed=seed, length=length,
        multicast=multicast, n_titles=n_titles, run_to=0.01,
    )
    return sim, cluster


class TestAdmissionLedger:
    def test_channel_lifecycle_balances(self):
        ledger = AdmissionLedger()
        ledger.open_channel(1, "movie", 100.0)
        ledger.note_subscriber(1)
        ledger.charge_patch(1, 7, 100.0, cache_covered=False)
        assert ledger.outstanding() == 200.0
        assert not ledger.balanced()
        assert ledger.refund_patch(1, 7)
        assert not ledger.refund_patch(1, 7)  # already refunded
        ledger.close_channel(1)
        assert ledger.outstanding() == 0.0
        assert ledger.balanced()
        assert ledger.summary() == (1, 1, 1, 1)

    def test_close_refunds_outstanding_patches_implicitly(self):
        ledger = AdmissionLedger()
        ledger.open_channel(1, "movie", 100.0)
        ledger.charge_patch(1, 7, 100.0, cache_covered=True)
        ledger.charge_patch(1, 8, 100.0, cache_covered=False)
        ledger.close_channel(1, forced=True)
        assert ledger.outstanding() == 0.0
        assert ledger.balanced()
        assert ledger.channels[1].forced
        assert ledger.patches_refunded == 2
        assert ledger.patches_cache_covered == 1


class TestSpliceFlows:
    def test_channel_bytes_defer_to_patch_end(self):
        patch = [(1.0, 10), (2.0, 10)]
        channel = [(1.5, 20), (3.0, 20)]
        merged = splice_flows(patch, channel)
        # The channel packet that raced the patch plays once the patch
        # drains; the later one keeps its own arrival time.
        assert merged == [(1.0, 10), (2.0, 10), (2.0, 20), (3.0, 20)]

    def test_empty_flows_pass_through(self):
        assert splice_flows([], [(2.0, 5), (1.0, 5)]) == [(1.0, 5), (2.0, 5)]
        assert splice_flows([(2.0, 5), (1.0, 5)], []) == [(1.0, 5), (2.0, 5)]


class TestIopRemoveWakeup:
    def test_remove_signals_wakeup(self):
        """A removed stream must re-arm the IOP loop: it may be sleeping
        toward the removed stream's deadline (a stale target) or parked
        waiting on that stream alone."""
        sim = Simulator()
        net = Network(sim, "d")
        host = Host(sim, net, "msu")
        iop = NetworkProcess(sim, host.bind(4000), SystemTimer(sim))
        sim.run(until=0.05)  # the loop parks on its wakeup signal
        assert iop.wakeup._event is not None and not iop.wakeup._event.triggered
        iop.remove(SimpleNamespace(stream_id=99))
        assert iop.wakeup._event is None or iop.wakeup._event.triggered


class TestBatching:
    def test_simultaneous_requests_share_one_channel(self):
        sim, cluster = build()
        coord = cluster.coordinator
        manager = coord.channel_manager
        c0 = open_client(sim, cluster, "c0")
        c1 = open_client(sim, cluster, "c1")
        v0, v1 = start_viewers_together(
            sim, [(c0, "title0", "tv"), (c1, "title0", "tv")]
        )
        assert v0.group_id != v1.group_id
        assert manager.channels_created == 1
        assert manager.viewers_joined == 2
        assert manager.batched_joins == 2
        assert manager.patched_joins == 0
        # Admission charged ONE disk slot for the channel, not two.
        disk = coord.db.disk("msu0", "msu0.sd0")
        assert disk.bandwidth_used == MPEG1_RATE
        assert manager.ledger.outstanding() == MPEG1_RATE
        # Both viewers receive the full stream via the fan-out; the data
        # arrives with the group destination, not a unicast one.
        done0 = sim.process(c0.wait_done(v0))
        done1 = sim.process(c1.wait_done(v1))
        sim.run_until_event(done0, limit=60.0)
        sim.run_until_event(done1, limit=60.0)
        assert c0.ports["tv"].channel_stats.packets > 0
        assert c0.ports["tv"].unicast_stats.packets == 0
        assert c0.ports["tv"].stats.packets == c1.ports["tv"].stats.packets
        assert cluster.delivery_net.multicast_copies >= (
            2 * cluster.delivery_net.multicast_carried // 2
        )
        # Channel drained: every charge is back and the books balance.
        sim.run(until=sim.now + 1.0)
        assert disk.bandwidth_used == 0.0
        assert coord.db.msus["msu0"].delivery_used == 0.0
        assert manager.ledger.balanced()
        assert manager.slots_saved() == 1

    def test_different_titles_get_different_channels(self):
        sim, cluster = build(n_titles=2)
        manager = cluster.coordinator.channel_manager
        c0 = open_client(sim, cluster, "c0")
        c1 = open_client(sim, cluster, "c1")
        start_viewer(sim, c0, "title0", "tv")
        start_viewer(sim, c1, "title1", "tv")
        assert manager.channels_created == 2
        assert manager.slots_saved() == 0


def batch_of_three():
    """Three viewers of title0, which only msu0 holds, queued in one
    batch window; ``views`` fills as each hears StreamScheduled."""
    sim, cluster, _ = build_cluster(
        n_msus=2, disks_per_hba=(1,), seed=7, length=10.0, failover="fast",
        multicast=MCAST, n_titles=1, run_to=0.01,
    )
    clients = [open_client(sim, cluster, f"c{i}") for i in range(3)]
    views = {}

    def play(client):
        yield from client.register_port("tv", "mpeg1")
        views[client.name] = yield from client.play("title0", "tv")

    for client in clients:
        sim.process(play(client))
    return sim, cluster, views


class TestBatchAfterItsChannel:
    """Once a batch's channel is gone, its remaining viewers park."""

    def crash_instant(self):
        """A crash instant whose detection lands in the first subscribe
        hold, from two probes: when the hold starts, and how long the
        crash takes to detect."""
        sim, cluster, _ = batch_of_three()
        holds = record_holds(cluster.coordinator)
        sim.run(until=1.0)
        hold = holds[0]
        sim, cluster, _ = batch_of_three()
        detected = record_failures(cluster.coordinator)
        sim.run(until=hold)
        cluster.fail_msu(0, crash=True)
        sim.run(until=hold + 1.0)
        return hold + Coordinator.SCHEDULE_CPU / 2 - (detected["msu0"] - hold)

    def test_msu_failure_in_the_first_hold_parks_the_rest(self):
        crash_at = self.crash_instant()
        sim, cluster, views = batch_of_three()
        coord = cluster.coordinator
        holds = record_holds(coord)
        detected = record_failures(coord)
        sim.run(until=crash_at)
        cluster.fail_msu(0, crash=True)
        sim.run(until=crash_at + 1.0)
        assert holds[0] < detected["msu0"] < holds[0] + Coordinator.SCHEDULE_CPU
        assert [g for g in coord.groups.values() if g.msu_name == "msu0"] == []
        assert len(views) <= 1
        queued = [req.kind for req in coord.admission.queue]
        assert queued.count("play") >= 2
        assert builtin_registry().check(cluster, "drain") == []

    def test_channel_closed_in_the_first_hold_parks_the_rest(self):
        sim, cluster, views = batch_of_three()
        coord = cluster.coordinator
        manager = coord.channel_manager
        cpu = coord.machine.cpu
        execute, closed = cpu.execute, []

        def closing(duration):
            if duration == coord.SCHEDULE_CPU and not closed:
                (channel_id,) = manager.channels
                manager.close_channel(channel_id)
                closed.append(channel_id)
            return execute(duration)

        cpu.execute = closing
        sim.run(until=1.0)
        assert closed == [1]
        assert len(views) == 1
        assert [req.kind for req in coord.admission.queue] == ["play", "play"]
        assert manager.fallbacks == 2
        assert manager.audit() == []


def patch_join():
    """Viewer a's channel of title0 (msu0 only) plays; viewer b asks for
    the title 2 s in, inside the patch horizon."""
    sim, cluster, _ = build_cluster(
        n_msus=2, disks_per_hba=(1,), seed=7, length=10.0, failover="fast",
        multicast=MCAST, n_titles=1, run_to=0.01,
    )
    start_viewer(sim, open_client(sim, cluster, "a"), "title0", "tv")
    sim.run(until=2.0)
    client = open_client(sim, cluster, "b")
    views = {}

    def play():
        yield from client.register_port("tv", "mpeg1")
        views["b"] = yield from client.play("title0", "tv")

    sim.process(play())
    return sim, cluster, views


def groups_on(coord, msu_name):
    return [g for g in coord.groups.values() if g.msu_name == msu_name]


class TestSubscribeCrashWhileScheduling:
    """msu0 fails inside a viewer's subscribe hold.  The viewer is undone
    and falls back as if the failure had come before placement; no group
    stays on msu0, and after its rejoin everything drains clean."""

    @staticmethod
    def drain(sim, cluster):
        cluster.rejoin_msu(0)
        sim.run(until=sim.now + 40.0)
        assert builtin_registry().check(cluster, "drain") == []

    def test_patch_join_batches_instead(self):
        sim, cluster, views = crash_in_hold(patch_join)
        coord = cluster.coordinator
        manager = coord.channel_manager
        assert groups_on(coord, "msu0") == []
        assert manager.patched_joins == 0 and manager.patch_joins == []
        assert views == {}
        # The fall-through batch found no channel slot and parked.
        assert manager.fallbacks == 1
        self.drain(sim, cluster)
        assert "b" in views

    @pytest.mark.parametrize("index", [0, 1])
    def test_batch_member_parks(self, index):
        sim, cluster, views = crash_in_hold(batch_of_three, index)
        coord = cluster.coordinator
        assert groups_on(coord, "msu0") == []
        # Viewers before the hold were scheduled (and go to failover);
        # the one in it and those after it park.
        assert len(views) == index
        queued = [req.kind for req in coord.admission.queue]
        assert queued.count("play") == 3 - index
        assert coord.channel_manager.batched_joins == index
        self.drain(sim, cluster)
        assert len(views) == 3


class TestPatching:
    def test_late_joiner_patches_then_merges(self):
        sim, cluster = build(length=20.0)
        coord = cluster.coordinator
        manager = coord.channel_manager
        c0 = open_client(sim, cluster, "c0")
        v0 = start_viewer(sim, c0, "title0", "tv")
        sim.run(until=sim.now + 2.0)  # inside the patch horizon
        c1 = open_client(sim, cluster, "c1")
        v1 = start_viewer(sim, c1, "title0", "tv")
        assert manager.channels_created == 1
        assert manager.patched_joins == 1
        join = manager.patch_joins[0]
        assert join.channel_id == 1 and join.group_id == v1.group_id
        # The patch is bounded by the join offset (plus the margin page),
        # which the horizon in turn bounds.
        record_page_us = join.patch_us / join.patch_pages
        assert join.patch_us <= join.offset_us + 2 * record_page_us
        assert join.offset_us <= MCAST.patch_horizon * 1e6
        # While the patch drains the viewer is charged for it.
        assert manager.ledger.outstanding() >= 2 * MPEG1_RATE
        done1 = sim.process(c1.wait_done(v1))
        sim.run_until_event(done1, limit=90.0)
        # The late joiner heard both flows: the unicast patch and the
        # shared channel.
        port = c1.ports["tv"]
        assert port.unicast_stats.packets > 0
        assert port.channel_stats.packets > 0
        assert manager.merges == 1
        merged = splice_flows(
            port.unicast_stats.arrivals, port.channel_stats.arrivals
        )
        assert len(merged) == port.stats.packets
        done0 = sim.process(c0.wait_done(v0))
        sim.run_until_event(done0, limit=90.0)
        sim.run(until=sim.now + 1.0)
        assert manager.ledger.balanced()
        disk = coord.db.disk("msu0", "msu0.sd0")
        assert disk.bandwidth_used == 0.0

    def test_joiner_past_horizon_gets_new_channel(self):
        sim, cluster = build(length=30.0, multicast=MulticastConfig(
            batch_window=0.2, patch_horizon=1.0,
        ))
        manager = cluster.coordinator.channel_manager
        c0 = open_client(sim, cluster, "c0")
        start_viewer(sim, c0, "title0", "tv")
        sim.run(until=sim.now + 3.0)  # well past the 1 s horizon
        c1 = open_client(sim, cluster, "c1")
        start_viewer(sim, c1, "title0", "tv")
        assert manager.channels_created == 2
        assert manager.patched_joins == 0

    def test_every_patch_bounded_by_horizon(self):
        """Audit the invariant over a whole randomized run."""
        from repro.experiments.multicast import run_multicast

        _, on = run_multicast(duration=30.0)
        page_slack = 2  # margin page + ceil rounding
        for offset_us, patch_us in on.patch_bounds:
            assert offset_us <= MCAST.patch_horizon * 1e6
            page_us = 16 * 1024 / MPEG1_RATE * 1e6
            assert patch_us <= offset_us + page_slack * page_us
        assert on.ledger_outstanding == 0.0


class TestLeaveAndDowngrade:
    def test_all_subscribers_quitting_closes_channel(self):
        sim, cluster = build(length=20.0)
        coord = cluster.coordinator
        manager = coord.channel_manager
        c0 = open_client(sim, cluster, "c0")
        c1 = open_client(sim, cluster, "c1")
        v0, v1 = start_viewers_together(
            sim, [(c0, "title0", "tv"), (c1, "title0", "tv")]
        )
        sim.run(until=sim.now + 2.0)
        c0.quit(v0.group_id)
        sim.run(until=sim.now + 1.0)
        assert len(manager.channels) == 1  # one viewer still listening
        c1.quit(v1.group_id)
        sim.run(until=sim.now + 1.0)
        assert manager.channels == {}  # idle channel torn down
        assert manager.ledger.balanced()
        disk = coord.db.disk("msu0", "msu0.sd0")
        assert disk.bandwidth_used == 0.0
        assert coord.db.msus["msu0"].delivery_used == 0.0
        assert coord.groups == {}

    def test_vcr_pause_downgrades_to_unicast(self):
        sim, cluster = build(length=20.0)
        coord = cluster.coordinator
        manager = coord.channel_manager
        c0 = open_client(sim, cluster, "c0")
        c1 = open_client(sim, cluster, "c1")
        v0, v1 = start_viewers_together(
            sim, [(c0, "title0", "tv"), (c1, "title0", "tv")]
        )
        sim.run(until=sim.now + 2.0)
        before = c1.ports["tv"].stats.packets
        c0.vcr(v0.group_id, "pause")
        sim.run(until=sim.now + 1.0)
        assert manager.downgrades == 1
        # The downgraded viewer left the fan-out; the other stays on it.
        msu = cluster.msus[0]
        assert len(msu.channels) == 1
        (ch,) = msu.channels.values()
        assert v0.group_id not in ch.subscribers
        assert v1.group_id in ch.subscribers
        # Admission follows: the channel keeps one slot, the private
        # stream was charged its own (downgrade is never refused).
        disk = coord.db.disk("msu0", "msu0.sd0")
        assert disk.bandwidth_used == 2 * MPEG1_RATE
        # The paused viewer stops receiving; the channel viewer does not.
        c0.vcr(v0.group_id, "play")
        done0 = sim.process(c0.wait_done(v0))
        done1 = sim.process(c1.wait_done(v1))
        sim.run_until_event(done1, limit=90.0)
        sim.run_until_event(done0, limit=90.0)
        assert c1.ports["tv"].stats.packets > before
        sim.run(until=sim.now + 1.0)
        assert manager.ledger.balanced()
        assert disk.bandwidth_used == 0.0


class TestEndToEnd:
    def test_multicast_doubles_viewers_per_disk(self):
        from repro.experiments.multicast import run_multicast

        off, on = run_multicast(duration=60.0)
        assert on.concurrent_peak >= 2 * off.concurrent_peak
        assert on.channels_created > 0
        assert on.channel_occupancy > 1.0
        assert on.slots_saved > 0
        assert on.merges > 0
        assert on.ledger_outstanding == 0.0
        # The network carried each channel packet once, fanned out to
        # every subscriber.
        assert on.multicast_copies > on.multicast_sends
