"""Run a :class:`ChaosSchedule` against a full simulated cluster.

The :class:`ChaosCluster` builds a deliberately mean installation — small
pages, fast heartbeats, multicast batching, page caches — loads a couple
of titles with a replica each, injects every fault at its scheduled
simulated time, runs the mid-simulation invariants on a fixed cadence,
and then *drains*: every downed MSU rejoins, every live viewer quits,
sessions close, and the strict conservation invariants run over the
quiesced books.

Everything is derived from the schedule's seed, so a run is a pure
function of its :class:`~repro.verify.faults.ChaosSchedule` — the
property the shrinker relies on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional

from repro.cache.manager import CacheConfig
from repro.clients import Client
from repro.clients.workload import ChannelSurfer
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.core.replication import ReplicationManager
from repro.edge import EdgeConfig
from repro.errors import CalliopeError
from repro.failover import FailoverConfig, HeartbeatConfig
from repro.live import ChannelSpec, LiveConfig, LiveSource
from repro.media import MpegEncoder, packetize_cbr
from repro.multicast import MulticastConfig
from repro.net import messages as m
from repro.scaleout import ScaleOutConfig
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import MPEG1_RATE
from repro.verify.faults import ChaosSchedule, FaultOp
from repro.verify.invariants import InvariantRegistry, Violation, builtin_registry

__all__ = ["ChaosConfig", "ChaosCluster", "ChaosReport"]

#: Fast failure detection so a 20-second horizon sees whole failover arcs.
FAST = HeartbeatConfig(
    period=0.1, miss_threshold=2, suspect_backoff=0.1,
    backoff_factor=2.0, suspect_probes=1,
)

#: The ghost channel id the deliberate double-charge bug books against.
GHOST_CHANNEL = 99_999

#: Eager edge tier: one proxy, short pinned prefixes (serves must finish
#: inside the drain window), a hot placement loop so a 20-second horizon
#: sees pins appear, serve, and churn.
EDGE = EdgeConfig(
    n_edges=1, prefix_pages=24, placement_period=0.5,
    promote_score=0.5, evict_score=0.05, report_period=0.5,
)


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of the cluster a schedule runs against."""

    n_msus: int = 2
    n_titles: int = 2
    #: Media length per title, seconds (short: streams end inside a run).
    length: float = 8.0
    #: Seconds past the horizon the drain is given to quiesce.
    drain: float = 12.0
    #: Cadence of the mid-simulation invariant sweep.
    check_period: float = 0.5
    #: Seed offset for title content (independent of the fault seed).
    content_seed: int = 11
    #: Edge proxy tier fronting the MSUs (None runs without edges).
    edge: Optional[EdgeConfig] = EDGE
    #: Live channels on the air during the run (0 runs without live TV).
    n_channels: int = 2
    #: Broadcast length per channel, seconds (ends inside the horizon).
    live_length: float = 6.0
    #: Time-shift ring depth, seconds of media kept behind the live edge.
    ring_seconds: float = 3.0
    #: Admission shards (1 keeps the single serial Coordinator; the
    #: defaults stay at 1/False so pinned pre-scale-out plans replay
    #: bit-identically).
    n_shards: int = 1
    #: Keep a warm standby tailing the journal from bring-up.
    standby: bool = False


@dataclass
class ChaosReport:
    """Outcome of one schedule run."""

    schedule: ChaosSchedule
    violations: List[Violation]
    stats: Dict[str, int]
    checks_run: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        acted = ", ".join(
            f"{k}={v}" for k, v in sorted(self.stats.items()) if v
        )
        return (
            f"seed {self.schedule.seed}: {len(self.schedule)} ops, "
            f"{self.checks_run} checks -> {verdict} ({acted})"
        )


class ChaosCluster:
    """A cluster wired to execute one fault schedule deterministically."""

    def __init__(
        self,
        schedule: ChaosSchedule,
        config: Optional[ChaosConfig] = None,
        registry: Optional[InvariantRegistry] = None,
    ) -> None:
        self.schedule = schedule
        self.chaos_config = config or ChaosConfig()
        self.registry = registry or builtin_registry()
        self.sim = Simulator()
        lineup = tuple(
            ChannelSpec(
                name=f"live{c}",
                type_name="mpeg1",
                source_host=f"feed{c}",
                start_at=0.6 + 0.2 * c,
                duration_seconds=self.chaos_config.live_length,
            )
            for c in range(self.chaos_config.n_channels)
        )
        live = None
        if lineup:
            # A forgiving surf gate: storms drain, honest tunes pass.
            live = LiveConfig(
                lineup=lineup,
                ring_seconds=self.chaos_config.ring_seconds,
                surf_rate=15.0,
                surf_burst=12.0,
                off_air_grace=6.0,
            )
        scaleout = None
        if self.chaos_config.n_shards > 1 or self.chaos_config.standby:
            scaleout = ScaleOutConfig(
                shards=self.chaos_config.n_shards,
                standby=self.chaos_config.standby,
            )
        self.cluster = CalliopeCluster(
            self.sim,
            ClusterConfig(
                n_msus=self.chaos_config.n_msus,
                disks_per_hba=(1,),
                ibtree_config=SMALL_PAGES,
                failover=FailoverConfig(heartbeat=FAST),
                multicast=MulticastConfig(batch_window=0.2, patch_horizon=6.0),
                cache=CacheConfig(),
                edge=self.chaos_config.edge,
                live=live,
                scaleout=scaleout,
                seed=schedule.seed,
            ),
        )
        self.cluster.coordinator.db.add_customer("user")
        self.live_channel_names = [spec.name for spec in lineup]
        self.live_sources: List[LiveSource] = []
        for c, spec in enumerate(lineup):
            source = LiveSource(self.sim, self.cluster, spec.source_host)
            source.add_feed(
                spec.name,
                packetize_cbr(
                    MpegEncoder(
                        seed=self.chaos_config.content_seed + 100 + c
                    ).bitstream(self.chaos_config.live_length),
                    MPEG1_RATE, 1024,
                ),
            )
            self.live_sources.append(source)
        self.violations: List[Violation] = []
        self.stats: Dict[str, int] = {}
        self.viewers: List[SimpleNamespace] = []
        self.surfers: List[ChannelSurfer] = []
        self._viewer_seq = 0
        self._surfer_seq = 0
        self._base_latency = self.cluster.delivery_net.latency
        self._base_disk_params = [
            (drive, drive.params)
            for msu in self.cluster.msus
            for drive in msu.machine.disks
        ]
        self._load_titles()
        for op in self.schedule.ops:
            self.sim.at(op.at, self._apply, op)
        self.sim.process(self._periodic_checks(), name="chaos.checks")

    # -- invariant plumbing (checkers read these like a CalliopeCluster) ----

    @property
    def coordinator(self):
        return self.cluster.coordinator

    @property
    def msus(self):
        return self.cluster.msus

    @property
    def edges(self):
        return self.cluster.edges

    @property
    def delivery_net(self):
        return self.cluster.delivery_net

    @property
    def takeovers(self):
        return self.cluster.takeovers

    @property
    def config(self):
        return self.cluster.config

    # -- content ------------------------------------------------------------

    def _load_titles(self) -> None:
        cfg = self.chaos_config
        for t in range(cfg.n_titles):
            packets = packetize_cbr(
                MpegEncoder(seed=cfg.content_seed + t).bitstream(cfg.length),
                MPEG1_RATE, 1024,
            )
            self.cluster.load_content(
                f"title{t}", "mpeg1", packets, msu_index=t % cfg.n_msus
            )

    def _replicate_titles(self) -> None:
        """Give every title a second copy so failover has somewhere to go."""
        cfg = self.chaos_config
        if cfg.n_msus < 2:
            return
        manager = ReplicationManager(self.cluster)
        for t in range(cfg.n_titles):
            target = (t + 1) % cfg.n_msus
            msu = self.cluster.msus[target]
            manager.replicate(f"title{t}", msu.name, msu.disk_ids()[0])

    def _sync_all(self):
        """Flush metadata so a mid-run power cycle remounts every title."""
        for msu in self.cluster.msus:
            yield from msu.admin_sync_all()

    # -- fault application ---------------------------------------------------

    def _bump(self, key: str) -> None:
        self.stats[key] = self.stats.get(key, 0) + 1

    def _apply(self, op: FaultOp) -> None:
        handler = getattr(self, f"_op_{op.kind}", None)
        if handler is None:
            raise CalliopeError(f"no handler for fault kind {op.kind!r}")
        handler(op)

    def _live_views(self) -> List[SimpleNamespace]:
        """Viewers with a running group, in deterministic group-id order."""
        live = [
            viewer
            for viewer in self.viewers
            if viewer.view is not None
            and not viewer.view.done_event.triggered
            and not viewer.view.quit_requested
            and viewer.view.channel is not None
            and viewer.view.channel.open
        ]
        live.sort(key=lambda viewer: viewer.view.group_id)
        return live

    def _op_client_join(self, op: FaultOp) -> None:
        index = self._viewer_seq
        self._viewer_seq += 1
        self.sim.process(
            self._viewer_life(f"cl{index}", op), name=f"chaos.cl{index}"
        )

    def _viewer_life(self, name: str, op: FaultOp):
        title = f"title{op.args['title'] % self.chaos_config.n_titles}"
        try:
            # Construction dials the Coordinator; with it down the join
            # fails the way a real connect would.
            client = Client(
                self.sim, self.cluster, name,
                reconnect_retries=2, reconnect_backoff=0.3,
            )
        except CalliopeError:
            self._bump("joins_failed")
            return
        viewer = SimpleNamespace(name=name, client=client, view=None)
        self.viewers.append(viewer)
        try:
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            view = yield from client.play_with_timeout(
                title, "tv", op.args.get("patience", 3.0)
            )
        except CalliopeError:
            self._bump("joins_failed")
            return
        if view is None:
            self._bump("joins_abandoned")
            return
        viewer.view = view
        self._bump("joins")

    def _op_client_quit(self, op: FaultOp) -> None:
        live = self._live_views()
        if not live:
            return
        viewer = live[op.args["pick"] % len(live)]
        try:
            viewer.client.quit(viewer.view.group_id)
            self._bump("quits")
        except CalliopeError:
            pass

    def _op_vcr_storm(self, op: FaultOp) -> None:
        live = self._live_views()
        if not live:
            return
        viewer = live[op.args["pick"] % len(live)]
        self._bump("storms")
        self.sim.process(
            self._storm(viewer, op.args["commands"], op.args["position"]),
            name=f"chaos.storm{viewer.view.group_id}",
        )

    def _storm(self, viewer: SimpleNamespace, commands, position: float):
        vcr = {"play": m.VCR_PLAY, "pause": m.VCR_PAUSE, "seek": m.VCR_SEEK}
        for command in commands:
            view = viewer.view
            if view.done_event.triggered or view.quit_requested:
                return
            try:
                viewer.client.vcr(view.group_id, vcr[command], position)
            except CalliopeError:
                return
            yield self.sim.timeout(0.15)

    def _op_msu_hang(self, op: FaultOp) -> None:
        index = op.args["msu"] % len(self.cluster.msus)
        if self.cluster.msus[index].up:
            self.cluster.hang_msu(index)
            self._bump("hangs")

    def _op_msu_crash(self, op: FaultOp) -> None:
        index = op.args["msu"] % len(self.cluster.msus)
        if self.cluster.msus[index].up:
            self.cluster.fail_msu(index, crash=True)
            self._bump("crashes")

    def _op_msu_rejoin(self, op: FaultOp) -> None:
        index = op.args["msu"] % len(self.cluster.msus)
        if not self.cluster.msus[index].up:
            self.cluster.rejoin_msu(index)
            self._bump("rejoins")

    def _op_msu_powercycle(self, op: FaultOp) -> None:
        index = op.args["msu"] % len(self.cluster.msus)
        self._bump("powercycles")
        self.sim.process(self._powercycle(index), name=f"chaos.cycle{index}")

    def _powercycle(self, index: int):
        msu = self.cluster.msus[index]
        if msu.up:
            self.cluster.fail_msu(index, crash=True)
        yield self.sim.timeout(0.4)
        yield from msu.admin_remount()
        if not msu.up:
            self.cluster.rejoin_msu(index)

    def _op_net_loss(self, op: FaultOp) -> None:
        net = self.cluster.delivery_net
        net.loss_rate = op.args["rate"]
        self._bump("loss_windows")
        self.sim.schedule(op.args["duration"], setattr, net, "loss_rate", 0.0)

    def _op_net_delay(self, op: FaultOp) -> None:
        net = self.cluster.delivery_net
        net.latency = self._base_latency * op.args["factor"]
        self._bump("delay_windows")
        self.sim.schedule(
            op.args["duration"], setattr, net, "latency", self._base_latency
        )

    def _op_net_partition(self, op: FaultOp) -> None:
        live = self._live_views()
        if not live:
            return
        viewer = live[op.args["pick"] % len(live)]
        net = self.cluster.delivery_net
        net.partition(viewer.name)
        self._bump("partitions")
        self.sim.schedule(op.args["duration"], net.heal, viewer.name)

    def _op_disk_slow(self, op: FaultOp) -> None:
        index = op.args["msu"] % len(self.cluster.msus)
        msu = self.cluster.msus[index]
        factor = op.args["factor"]
        restore = []
        for drive in msu.machine.disks:
            restore.append((drive, drive.params))
            drive.params = dataclasses.replace(
                drive.params, media_rate=drive.params.media_rate / factor
            )
        self._bump("slow_windows")
        self.sim.schedule(op.args["duration"], self._restore_disks, restore)

    @staticmethod
    def _restore_disks(restore) -> None:
        for drive, params in restore:
            drive.params = params

    def _op_coordinator_crash(self, op: FaultOp) -> None:
        if not self.cluster.coordinator_down:
            self.cluster.crash_coordinator()
            self._bump("coordinator_crashes")

    def _op_coordinator_restart(self, op: FaultOp) -> None:
        if self.cluster.coordinator_down:
            self.cluster.restart_coordinator()
            self._bump("coordinator_restarts")

    def _op_coordinator_failover(self, op: FaultOp) -> None:
        """Kill the leader with a warm standby armed to take over.

        A standby is brought up (and fully synced) on first use if the
        config did not start one; the crash then exercises the whole
        detect-promote-reconcile arc with no restart in sight.
        """
        if self.cluster.journal is None or self.cluster.coordinator_down:
            return
        if not self.cluster.standbys:
            standby = self.cluster.create_standby()
            standby.sync()
        self.cluster.crash_coordinator()
        self._bump("failovers")

    def _op_shard_partition(self, op: FaultOp) -> None:
        """One admission shard falls off the coordinator interconnect.

        While partitioned it neither admits (its requests park on the
        durable scheduling queue) nor yields escrow to siblings; healing
        re-runs the queue.
        """
        shards = self.cluster.coordinator.shards
        if shards is None or shards.n <= 1:
            return
        shard = op.args["shard"] % shards.n
        shards.partition(shard)
        self._bump("shard_partitions")
        self.sim.schedule(op.args["duration"], self._heal_shard, shard)

    def _heal_shard(self, shard: int) -> None:
        # Through the *current* coordinator: a restart or takeover may
        # have swapped instances since the partition landed.
        shards = self.cluster.coordinator.shards
        if shards is not None:
            shards.heal(shard)
            self.cluster.coordinator._retry_queue()

    def _op_edge_crash(self, op: FaultOp) -> None:
        edges = self.cluster.edges
        if not edges:
            return
        index = op.args.get("edge", 0) % len(edges)
        if not edges[index].down:
            self.cluster.fail_edge(index)
            self._bump("edge_crashes")

    def _op_edge_restart(self, op: FaultOp) -> None:
        edges = self.cluster.edges
        if not edges:
            return
        index = op.args.get("edge", 0) % len(edges)
        if edges[index].down:
            self.cluster.recover_edge(index)
            self._bump("edge_restarts")

    def _op_bug_double_charge(self, op: FaultOp) -> None:
        """Deliberate accounting bug (harness self-test).

        Books a patch charge against a channel that already closed — the
        double-charge shape a refactor of the merge path could introduce.
        The ledger invariant must catch it both mid-run (closed channel
        with outstanding charges) and at drain (ledger never balances).
        """
        manager = self.cluster.coordinator.channel_manager
        if manager is None:
            return
        ledger = manager.ledger
        ledger.open_channel(GHOST_CHANNEL, "ghost", MPEG1_RATE)
        ledger.close_channel(GHOST_CHANNEL)
        ledger.charge_patch(GHOST_CHANNEL, 1, MPEG1_RATE, False)
        self._bump("bugs_injected")

    def _op_live_ingest_stall(self, op: FaultOp) -> None:
        """One channel's feed goes silent, then resumes shifted."""
        if not self.live_sources:
            return
        source = self.live_sources[op.args["channel"] % len(self.live_sources)]
        # ``at 0.0`` arms the stall for the next packet of whatever
        # broadcast is in flight (one stall per broadcast at most).
        source.stall(0.0, op.args["duration"])
        self._bump("ingest_stalls")

    def _op_surf_storm(self, op: FaultOp) -> None:
        """A burst of channel surfers floods the live lineup."""
        if not self.live_channel_names:
            return
        self._bump("surf_storms")
        for i in range(op.args["surfers"]):
            name = f"surf{self._surfer_seq}"
            self._surfer_seq += 1
            try:
                # Construction dials the Coordinator, like a real tuner.
                surfer = ChannelSurfer(
                    self.sim, self.cluster, name, self.live_channel_names,
                    hops=op.args["hops"], dwell_mean=0.8, tune_timeout=1.5,
                    rewind_seconds=2.0, seed=op.args["pick"] + i,
                )
            except CalliopeError:
                self._bump("joins_failed")
                continue
            surfer.start()
            self.surfers.append(surfer)

    # -- checking and the drain ----------------------------------------------

    def _periodic_checks(self):
        while True:
            yield self.sim.timeout(self.chaos_config.check_period)
            self.violations.extend(self.registry.check(self, "mid"))

    def _restore_environment(self) -> None:
        """Undo every open-ended environmental fault before draining."""
        net = self.cluster.delivery_net
        net.loss_rate = 0.0
        net.latency = self._base_latency
        for host in sorted(net._partitioned):
            net.heal(host)
        for drive, params in self._base_disk_params:
            drive.params = params
        shards = self.cluster.coordinator.shards
        if shards is not None and shards.partitioned:
            for shard in sorted(shards.partitioned):
                shards.heal(shard)
            self.cluster.coordinator._retry_queue()

    def run(self) -> ChaosReport:
        """Execute the schedule, drain, and return the verdict."""
        sim = self.sim
        horizon = self.schedule.horizon
        sim.run(until=0.05)
        self._replicate_titles()
        sync = sim.process(self._sync_all(), name="chaos.sync")
        sim.run(until=horizon)

        # Drain: a clean world again, then let everything wind down.  The
        # Coordinator restarts first so rejoining MSUs have someone to
        # say hello to.
        self._restore_environment()
        if self.cluster.coordinator_down:
            # A standby mid-detection wins over a cold restart — racing
            # both would seat two leaders.
            if self.cluster.standbys:
                self.cluster.standbys[0].takeover()
            else:
                self.cluster.restart_coordinator()
        for index, msu in enumerate(self.cluster.msus):
            if not msu.up:
                self.cluster.rejoin_msu(index)
        for index, proxy in enumerate(self.cluster.edges):
            if proxy.down:
                self.cluster.recover_edge(index)
        sim.run(until=horizon + 0.5)
        for viewer in self._live_views():
            try:
                viewer.client.quit(viewer.view.group_id)
            except CalliopeError:
                pass
        sim.run(until=horizon + 2.0)
        manager = self.cluster.coordinator.live_manager
        if manager is not None:
            # A channel still on the air (a stalled feed, or one the
            # restarted Coordinator re-opened) is signed off now so the
            # fan-out can drain inside the window.
            for channel_id in sorted(manager.channels):
                manager.stop_channel(channel_id)
        for viewer in self.viewers:
            viewer.client.close_session()
        sim.run(until=horizon + self.chaos_config.drain)

        if not sync.triggered:
            self.violations.append(
                Violation("harness", "metadata sync never completed",
                          sim.now, "drain")
            )
        self.violations.extend(self.registry.check(self, "drain"))
        return ChaosReport(
            schedule=self.schedule,
            violations=list(self.violations),
            stats=dict(self.stats),
            checks_run=self.registry.checks_run,
        )
