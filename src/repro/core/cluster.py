"""Cluster assembly: Figure 1 in code.

A :class:`CalliopeCluster` wires up a Coordinator machine, N MSUs, the
intra-server Ethernet and the FDDI delivery network, and provides the
administrative helpers experiments and examples share: pre-loading
content, installing fast-scan companions and connecting clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cache.manager import CacheConfig
from repro.core.coordinator import Coordinator
from repro.edge.proxy import EdgeConfig, EdgeProxy
from repro.core.msu.msu import Msu
from repro.errors import CalliopeError
from repro.failover import FailoverConfig
from repro.hardware.params import MachineParams
from repro.media.content import ContentType
from repro.media.filtering import make_fast_backward, make_fast_forward
from repro.media.mpeg import packetize_cbr
from repro.net.network import ControlChannel, Network
from repro.recovery import JournalStore, RecoveryConfig, recover
from repro.sim import Simulator
from repro.storage.ibtree import IBTreeConfig
from repro.units import ms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.live.manager import LiveConfig
    from repro.multicast.channel import MulticastConfig
    from repro.scaleout import ScaleOutConfig
    from repro.scaleout.standby import StandbyCoordinator, TakeoverOutcome

__all__ = ["ClusterConfig", "CalliopeCluster"]

#: Intra-server network message latency (Ethernet RPC).
INTRA_LATENCY = ms(1.0)


@dataclass
class ClusterConfig:
    """Shape of a Calliope installation."""

    n_msus: int = 1
    #: SCSI topology per MSU (the evaluation testbed: 2 disks, one HBA).
    disks_per_hba: Tuple[int, ...] = (2,)
    #: Delivery network latency (FDDI).
    delivery_latency: float = ms(0.5)
    types: Optional[List[ContentType]] = None
    ibtree_config: IBTreeConfig = field(default_factory=IBTreeConfig)
    #: Build striped MSUs (the §2.3.3 alternative layout) instead of the
    #: paper's per-disk file systems.
    striped_msus: bool = False
    #: Give every MSU an interval/prefix page cache (extension); None
    #: reproduces the paper's deliberate no-cache design (§2.3.3).
    cache: Optional[CacheConfig] = None
    #: Heartbeat detection + stream migration (extension); None
    #: reproduces the paper's TCP-break-only failure handling (§2.2).
    failover: Optional[FailoverConfig] = field(default_factory=FailoverConfig)
    #: Batched multicast channels + patching streams (extension); None
    #: reproduces the paper's one-unicast-stream-per-viewer delivery.
    multicast: Optional[MulticastConfig] = None
    #: Coordinator WAL + snapshots + MSU-state reconciliation (extension);
    #: None reproduces the paper's unrecoverable Coordinator.
    recovery: Optional[RecoveryConfig] = field(default_factory=RecoveryConfig)
    #: Edge proxy tier — popularity-aware prefix caches between the MSUs
    #: and the clients (extension); None keeps the paper's two-tier shape.
    edge: Optional[EdgeConfig] = None
    #: Live-TV tier (EPG lineup, channel ingest, rewind-live); None
    #: keeps the server pure video-on-demand.
    live: Optional[LiveConfig] = None
    #: Coordinator scale-out — warm standby + sharded admission
    #: (extension); None keeps the paper's single serial Coordinator.
    scaleout: Optional["ScaleOutConfig"] = None
    seed: int = 42


class CalliopeCluster:
    """A whole installation: Coordinator + MSUs + both networks."""

    def __init__(self, sim: Simulator, config: ClusterConfig = ClusterConfig()):
        self.sim = sim
        self.config = config
        self.intra_net = Network(sim, "intra", latency=INTRA_LATENCY)
        self.delivery_net = Network(sim, "delivery", latency=config.delivery_latency)
        self.coordinator = self.build_coordinator()
        self.journal: Optional[JournalStore] = None
        self.coordinator_down = False
        if config.recovery is not None:
            self.journal = JournalStore(
                snapshot_every=config.recovery.snapshot_every
            )
            self.coordinator.attach_journal(self.journal)
        #: Warm standbys tailing the journal (repro.scaleout).
        self.standbys: List["StandbyCoordinator"] = []
        #: Completed standby promotions, in order.
        self.takeovers: List["TakeoverOutcome"] = []
        #: Sim time the current/most recent leader actually died.
        self.leader_lost_at = 0.0
        self._beacon_running = False
        heartbeat_period = (
            config.failover.heartbeat.period if config.failover is not None else 0.0
        )
        self.msus: List[Msu] = []
        self._client_channels: Dict[str, ControlChannel] = {}
        self._vcr_listeners: Dict[str, object] = {}
        #: group_id -> channel, populated as MSUs open VCR connections.
        self.vcr_channels: Dict[int, ControlChannel] = {}
        for i in range(config.n_msus):
            msu = Msu(
                sim,
                f"msu{i}",
                self.delivery_net,
                machine_params=MachineParams(
                    name=f"msu{i}", disks_per_hba=config.disks_per_hba
                ),
                seed=config.seed + i,
                ibtree_config=config.ibtree_config,
                client_channel_factory=self._make_vcr_channel,
                striped=config.striped_msus,
                cache_config=config.cache,
                heartbeat_period=heartbeat_period,
            )
            channel = ControlChannel(
                sim, self.coordinator.name, msu.name,
                latency=INTRA_LATENCY, network=self.intra_net,
            )
            self.coordinator.attach_msu(channel)
            msu.attach_coordinator(channel)
            self.msus.append(msu)
        self.edges: List[EdgeProxy] = []
        if config.edge is not None:
            for i in range(config.edge.n_edges):
                proxy = EdgeProxy(
                    sim, f"edge{i}", self.delivery_net, config.edge
                )
                self.edges.append(proxy)
                self._connect_edge(proxy)
        if config.scaleout is not None and config.scaleout.standby:
            self.create_standby()

    # -- coordinator scale-out (repro.scaleout) -----------------------------------

    def build_coordinator(
        self, name: str = "coordinator", standby: bool = False
    ) -> Coordinator:
        """A Coordinator with every part this cluster's config names.

        The one constructor for the acting leader, its cold-restarted
        replacement and every warm-standby shadow, so the journal's
        writer and its readers always hold the same parts.
        """
        config = self.config
        coord = Coordinator(
            self.sim, types=config.types,
            block_size=config.ibtree_config.data_page_size, name=name,
            failover=config.failover, multicast=config.multicast,
            edge=config.edge, live=config.live, standby=standby,
        )
        scaleout = config.scaleout
        if scaleout is not None:
            # Even a single shard gets the escrow/service machinery, so
            # a 1-shard run is an honest baseline for the E24 scaling.
            coord.enable_shards(
                scaleout.shards,
                refill_fraction=scaleout.refill_fraction,
                service_time=scaleout.admit_service_time,
            )
        return coord

    def create_standby(self) -> "StandbyCoordinator":
        """Bring up a warm standby tailing this cluster's journal."""
        if self.journal is None:
            raise CalliopeError("warm standby requires the recovery journal")
        # Imported here: repro.scaleout pulls recovery/replay back in,
        # so a module-level import would be circular.
        from repro.scaleout.standby import StandbyCoordinator

        standby = StandbyCoordinator(
            self, name=f"coordinator-standby{len(self.standbys)}"
        )
        standby.shadow.tracer = self.coordinator.tracer
        standby.shadow.on_capacity_lost = self.coordinator.on_capacity_lost
        self.standbys.append(standby)
        if not self._beacon_running:
            self._beacon_running = True
            self.sim.process(self._leader_beacon(), name="leader.beacon")
        return standby

    def _leader_beacon(self):
        """The acting leader advertises liveness to every standby.

        A crashed leader simply stops beating; each standby's watchdog
        turns the silence into a dead verdict after its configured
        detection latency — no oracle shortcut.
        """
        from repro.scaleout.standby import LEADER_HEARTBEAT

        while True:
            yield self.sim.timeout(LEADER_HEARTBEAT.period)
            if self.coordinator_down or self.coordinator.dead:
                continue
            for standby in self.standbys:
                standby.leader_beat()

    def promote_standby(self, standby: "StandbyCoordinator") -> None:
        """Swap ``standby``'s shadow in as the acting Coordinator.

        Called by the standby's own takeover path (detector verdict) or
        directly by tests.  Unlike :meth:`restart_coordinator` there is
        no ``begin_recovery`` window: the shadow trusts its tailed
        tables, re-opens admissions immediately and reconciles each MSU
        lazily against its next heartbeat's stream positions.
        """
        coord = standby.shadow
        coord.replayed_records = standby.records_tailed
        coord.activate()
        self.standbys.remove(standby)
        self.coordinator = coord
        self.coordinator_down = False
        coord.attach_journal(self.journal)
        if coord.shards is not None:
            # Now the leader: escrow moves originate (and journal) here.
            coord.shards.journal = coord._journal
        up_msus = []
        for msu in self.msus:
            if not msu.up:
                continue
            channel = ControlChannel(
                self.sim, coord.name, msu.name,
                latency=INTRA_LATENCY, network=self.intra_net,
            )
            coord.attach_msu(channel)
            msu.attach_coordinator(channel)
            up_msus.append(msu.name)
        coord.arm_heartbeat_reconcile(up_msus)
        # An MSU that died while the old leader was already gone never
        # journaled its loss, so the replayed database still schedules
        # it.  Declare it failed now — the warm equivalent of the cold
        # restart's missing-StateReport rule; if the machine is merely
        # rebooting it will say MsuHello and re-register.
        up = set(up_msus)
        for msu_name, state in list(coord.db.msus.items()):
            if state.available and msu_name not in up:
                coord._msu_failed(msu_name, reason="takeover")
        for proxy in self.edges:
            if not proxy.down:
                self._connect_edge(proxy)
        coord._retry_queue()

    def _connect_edge(self, proxy: EdgeProxy) -> None:
        """Wire one edge proxy to the (current) Coordinator."""
        channel = ControlChannel(
            self.sim, self.coordinator.name, proxy.name,
            latency=INTRA_LATENCY, network=self.intra_net,
        )
        self.coordinator.attach_edge(channel)
        proxy.attach_coordinator(channel)

    # -- client plumbing ----------------------------------------------------------

    def _make_vcr_channel(self, client_host: str, group_id: int) -> ControlChannel:
        """MSUs call this to open the per-group client control stream."""
        msu_end = f"group{group_id}.msu"
        channel = ControlChannel(
            self.sim, msu_end, client_host, latency=self.config.delivery_latency
        )
        self.vcr_channels[group_id] = channel
        listener = self._vcr_listeners.get(client_host)
        if listener is not None:
            listener(group_id, channel, msu_end)
        return _MsuEndView(channel, msu_end)

    def register_vcr_listener(self, client_host: str, callback) -> None:
        """Clients register to be handed their incoming VCR channels."""
        self._vcr_listeners[client_host] = callback

    def connect_client(self, client_host: str) -> ControlChannel:
        """Open the client <-> Coordinator session channel."""
        if self.coordinator_down:
            raise CalliopeError("coordinator is down")
        channel = ControlChannel(
            self.sim, client_host, self.coordinator.name,
            latency=INTRA_LATENCY, network=self.intra_net,
        )
        self.coordinator.connect_client(channel, client_host)
        self._client_channels[client_host] = channel
        return channel

    # -- failure injection ---------------------------------------------------------

    def fail_msu(self, index: int, crash: bool = False) -> None:
        """Take an MSU down (failure injection).

        ``crash=False`` breaks only the Coordinator connection (a control
        network partition); ``crash=True`` kills the whole machine: device
        processes stop and every client's VCR connection closes.  Either
        way the Coordinator sees the TCP break and marks the MSU
        unavailable (§2.2).  Disks and file systems survive — rejoining
        with :meth:`rejoin_msu` restores it to the scheduling database.
        """
        msu = self.msus[index]
        if crash:
            msu.crash()
        else:
            if msu.coordinator_channel is not None:
                msu.coordinator_channel.close()
            msu.up = False

    def hang_msu(self, index: int) -> None:
        """Freeze an MSU silently (failure injection).

        Unlike :meth:`fail_msu`, no connection breaks: the Coordinator
        learns of the loss only through missed heartbeats — the failure
        mode the failover subsystem's detector exists for.
        """
        self.msus[index].hang()

    def rejoin_msu(self, index: int) -> None:
        """Reconnect a failed MSU; it says hello and is rescheduled."""
        msu = self.msus[index]
        # A hung MSU's old control connection may still be open; retire it
        # before the fresh hello so its late break is recognizably stale.
        if msu.coordinator_channel is not None and msu.coordinator_channel.open:
            msu.coordinator_channel.close()
        msu.reboot()
        msu.up = True
        if self.coordinator_down:
            # Nobody to say hello to; restart_coordinator reconnects it.
            return
        channel = ControlChannel(
            self.sim, self.coordinator.name, msu.name,
            latency=INTRA_LATENCY, network=self.intra_net,
        )
        self.coordinator.attach_msu(channel)
        msu.attach_coordinator(channel)

    def recover(self, index: int) -> None:
        """Bring a failed MSU back (alias for :meth:`rejoin_msu`)."""
        self.rejoin_msu(index)

    def fail_edge(self, index: int) -> None:
        """Kill an edge proxy (failure injection).

        Its pinned prefixes and running serves are gone; the broken
        control connection tells the Coordinator, which refunds the
        in-flight serves and drops the placement view.  Clients fall
        through to plain MSU admission until the edge returns.
        """
        self.edges[index].crash()

    def recover_edge(self, index: int) -> None:
        """Bring a crashed edge back, cold, and re-wire it."""
        proxy = self.edges[index]
        proxy.recover()
        if not self.coordinator_down:
            self._connect_edge(proxy)

    def crash_coordinator(self) -> None:
        """Kill the Coordinator machine (failure injection).

        Every control connection — MSUs, client sessions — breaks.  MSUs
        keep serving their admitted streams unsupervised; anything they
        report into the closed channels is lost (MSU-wins reconciliation
        recovers it later).  Requires the recovery journal: without it a
        Coordinator loss is, as in the paper, not recoverable.
        """
        if self.journal is None:
            raise CalliopeError("no recovery journal configured")
        if self.coordinator_down:
            return
        self.leader_lost_at = self.sim.now
        coord = self.coordinator
        coord.halt()
        for channel in list(coord._msu_channels.values()):
            if channel.open:
                channel.close()
        for channel in list(coord._session_channels.values()):
            if channel.open:
                channel.close()
        for channel in list(self._client_channels.values()):
            if channel.open:
                channel.close()
        self._client_channels.clear()
        for proxy in self.edges:
            if (
                proxy.coordinator_channel is not None
                and proxy.coordinator_channel.open
            ):
                proxy.coordinator_channel.close()
            proxy.coordinator_channel = None
        self.coordinator_down = True

    def restart_coordinator(self) -> None:
        """Cold-start a fresh Coordinator from the journal and reconcile.

        The new instance restores the last snapshot, replays the WAL
        tail, reconnects every live MSU and probes each for a
        ``StateReport``; reconciliation completes when all have answered
        (or the report grace period expires).
        """
        if self.journal is None:
            raise CalliopeError("no recovery journal configured")
        if not self.coordinator_down:
            return
        config = self.config
        old = self.coordinator
        coord = self.build_coordinator()
        coord.tracer = old.tracer
        coord.on_capacity_lost = old.on_capacity_lost
        coord.replayed_records = recover(coord, self.journal)
        self.coordinator = coord
        self.coordinator_down = False
        coord.attach_journal(self.journal)
        expected = [
            state.name for state in coord.db.msus.values() if state.available
        ]
        coord.begin_recovery(expected, config.recovery.report_grace)
        for msu in self.msus:
            if not msu.up:
                continue
            channel = ControlChannel(
                self.sim, coord.name, msu.name,
                latency=INTRA_LATENCY, network=self.intra_net,
            )
            coord.attach_msu(channel)
            msu.attach_coordinator(channel)
        # Live edges reconnect too; each hello triggers edge-wins
        # reconciliation against the replayed placement view.
        for proxy in self.edges:
            if not proxy.down:
                self._connect_edge(proxy)

    # -- administrative helpers -----------------------------------------------------

    def msu_named(self, name: str) -> Msu:
        for msu in self.msus:
            if msu.name == name:
                return msu
        raise CalliopeError(f"no MSU named {name!r}")

    def load_content(
        self,
        name: str,
        type_name: str,
        packets: Sequence,
        msu_index: int = 0,
        disk_index: int = 0,
        duration_us: Optional[int] = None,
    ):
        """Pre-load packets as stored content and register it (admin path)."""
        msu = self.msus[msu_index]
        disk_id = msu.disk_ids()[disk_index]
        handle = msu.admin_load(disk_id, name, type_name, packets, duration_us)
        self.coordinator.admin_add_content(
            name, type_name, msu.name, disk_id,
            blocks=handle.nblocks, duration_us=handle.duration_us,
        )
        return handle

    def load_composite(
        self,
        name: str,
        type_name: str,
        component_packets: Dict[str, Sequence],
        msu_index: int = 0,
    ) -> None:
        """Pre-load a composite item: one file per component, same MSU."""
        msu = self.msus[msu_index]
        names = []
        for i, (comp_type, packets) in enumerate(sorted(component_packets.items())):
            comp_name = f"{name}.{comp_type}"
            disk_id = msu.disk_ids()[i % len(msu.disk_ids())]
            handle = msu.admin_load(disk_id, comp_name, comp_type, packets)
            self.coordinator.admin_add_content(
                comp_name, comp_type, msu.name, disk_id,
                blocks=handle.nblocks, duration_us=handle.duration_us,
            )
            names.append(comp_name)
        self.coordinator.admin_add_content(
            name, type_name, msu.name, "", components=tuple(names)
        )

    def install_fast_scans(
        self,
        name: str,
        bitstream: bytes,
        rate: float,
        packet_size: int,
        step: int = 15,
        msu_index: int = 0,
        disk_index: int = 0,
    ) -> None:
        """Run the offline filter and load ff/fb companions (§2.3.1).

        ``bitstream`` is the original MPEG-like stream that was loaded as
        ``name``; the filter parses it, selects every ``step``-th frame and
        the companions are loaded and linked through the admin interface.
        """
        msu = self.msus[msu_index]
        disk_id = msu.disk_ids()[disk_index]
        ff_stream, _ = make_fast_forward(bitstream, step)
        fb_stream, _ = make_fast_backward(bitstream, step)
        ff_name, fb_name = f"{name}.ff", f"{name}.fb"
        msu.admin_load(disk_id, ff_name, "mpeg1", packetize_cbr(ff_stream, rate, packet_size))
        msu.admin_load(disk_id, fb_name, "mpeg1", packetize_cbr(fb_stream, rate, packet_size))
        msu.admin_link_fast_scan(disk_id, name, ff_name, fb_name)


class _MsuEndView:
    """Presents a VCR channel to the MSU under the MSU's own name.

    The MSU sends and receives as ``msu.name``; the wire end is the
    per-group alias the cluster created.  This keeps the channel API
    symmetric without the MSU knowing its alias.
    """

    def __init__(self, channel: ControlChannel, msu_end: str):
        self._channel = channel
        self._msu_end = msu_end

    @property
    def open(self) -> bool:
        return self._channel.open

    def send(self, _sender: str, message, nbytes: int = 128) -> None:
        self._channel.send(self._msu_end, message, nbytes)

    def recv(self, _end: str):
        return self._channel.recv(self._msu_end)

    def close(self) -> None:
        self._channel.close()
