"""The Coordinator: Calliope's global resource manager (§2.2).

The Coordinator authenticates clients, serves the table of contents,
admits play/record requests against per-disk bandwidth and per-MSU
delivery budgets, queues requests that cannot be placed, builds stream
groups for composite types, and detects MSU failures through broken
control connections.  The paper left it a single point of failure
("Calliope does not recover from Coordinator failures"); the
:mod:`repro.recovery` extension closes that gap — every control-plane
mutation is journaled to a write-ahead log, and a restarted Coordinator
replays snapshot + WAL and then reconciles against MSU StateReports,
so already-admitted streams survive the outage.

Per-request CPU costs are charged on the Coordinator machine's simulated
processor; the scalability experiment (§3.3) measures exactly this
utilization plus the intra-server network load.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.core.admission import (
    PRIORITY_RESUME,
    AdmissionControl,
    Allocation,
    QueuedRequest,
    play_priority,
)
from repro.core.database import AdminDatabase, ContentEntry
from repro.core.sessions import (
    DisplayPort,
    GroupRecord,
    Session,
    SessionTable,
    StreamTables,
    match_ports,
)
from repro.core.unicast import UnicastLane
from repro.errors import CalliopeError, TypeMismatchError
from repro.hardware.machine import Machine
from repro.hardware.params import ETHERNET_10, MachineParams
from repro.media.content import DEFAULT_TYPES, ContentType, ContentTypeRegistry
from repro.net import messages as m
from repro.net.network import ControlChannel
from repro.recovery.parts import image
from repro.recovery.reconcile import reconcile
from repro.recovery.state import snapshot_state
from repro.sim import Event, Simulator
from repro.units import BLOCK_SIZE, ms

__all__ = ["Coordinator", "GroupRecord"]


class Coordinator:
    """The non-real-time half of Calliope."""

    #: CPU to parse/authenticate/place one client request.
    REQUEST_CPU = ms(1.6)
    #: CPU to emit one schedule message to an MSU.
    SCHEDULE_CPU = ms(0.3)
    #: CPU to process one stream-termination notification.
    TERMINATION_CPU = ms(0.5)
    #: Requests after which a title counts as hot enough to pin its
    #: prefix in the home MSU's page cache (popularity-aware admission).
    PREFIX_HOT_REQUESTS = 3
    #: Opening pages to pin per hot title.
    PREFIX_PIN_PAGES = 16

    def __init__(
        self,
        sim: Simulator,
        types: Optional[List[ContentType]] = None,
        machine_params: Optional[MachineParams] = None,
        block_size: int = BLOCK_SIZE,
        name: str = "coordinator",
        standby: bool = False,
    ):
        self.sim = sim
        self.name = name
        #: True while this instance is a *shadow* (a warm standby, or a
        #: cold restart replaying): it applies journal records but owns no
        #: cluster — background managers (EPG, edge placement) stay
        #: passive until :meth:`activate`.
        self.standby = standby
        params = machine_params or MachineParams(name=name, disks_per_hba=())
        self.machine = Machine(sim, params)
        self.nic = self.machine.add_nic(ETHERNET_10)
        self.types = ContentTypeRegistry(types if types is not None else DEFAULT_TYPES)
        self.db = AdminDatabase()
        self.admission = AdmissionControl(self.db, block_size)
        self.sessions = SessionTable()
        #: Sessions, stream groups and the group/stream id allocator.
        self.tables = StreamTables(self.db, self.sessions)
        self.groups: Dict[int, GroupRecord] = self.tables.groups
        self._msu_channels: Dict[str, ControlChannel] = {}
        self._session_channels: Dict[int, ControlChannel] = {}
        #: MSU/edge message class -> its one handler (see :meth:`install`);
        #: subsystem managers add their own kinds as they are built.
        self.handlers: Dict[type, Callable] = {}
        #: Kinds held in ``_recovery_backlog`` while reconciling.
        self.held_kinds: set = set()
        self.install(m.StateReport, self._state_reported)
        self.install(m.Heartbeat, self._heartbeat)
        self.install(m.CacheReport, self._cache_report)
        self.install(m.StreamTerminated, self._terminated, held=True)
        self.install(m.PatchDrained, self._patch_drained, held=True)
        # Subsystem parts; repro.core.cluster.build_coordinator attaches
        # the configured ones.  None keeps the paper's behaviour.
        #: Heartbeat failure detector (repro.failover); None falls back
        #: to the paper's broken-connection signal only.
        self.monitor = None
        #: Stream migrator (repro.failover); None means failed streams
        #: just queue.
        self.migrator = None
        #: Installed delivery lanes (repro.multicast.book.ChannelBook) in
        #: the order ``_play`` offers them a request, before ``unicast``,
        #: the paper's one private stream per viewer, which takes the rest.
        self.lanes: list = []
        self.unicast = UnicastLane(self)
        #: Edge-tier placement manager (prefix caches near the clients);
        #: None keeps every byte flowing from the MSUs.
        self.placement = None
        #: Hook fired as ``callback(msu_name, lost_titles)`` after a
        #: failure; the ReplicationManager's watch() uses it to restore
        #: replica counts for titles that just lost a copy.
        self.on_capacity_lost = None
        #: Every stateful part, in reconcile order (repro.recovery.parts):
        #: snapshots, replay and reconciliation walk this list.
        self.parts = [self.db, self.admission, self.tables]
        #: Write-ahead log (repro.recovery); None disables journaling.
        self.journal = None
        #: True once halt() ran — this instance is a dead process image.
        self.dead = False
        #: True between begin_recovery() and reconciliation completing.
        self.recovering = False
        self._recovery_expected: set = set()
        self._recovery_missing: set = set()
        self._recovery_reports: Dict[str, m.StateReport] = {}
        self._recovery_backlog: List[object] = []
        self._recovery_started = 0.0
        self._recovery_done = None
        #: WAL records replayed at restart (cluster sets it; metrics).
        self.replayed_records = 0
        #: The most recent restart's RecoveryOutcome, if any.
        self.last_recovery = None
        self.db.on_journal = self._journal
        self.admission.on_journal = self._journal
        self.requests_handled = 0
        self.terminations_handled = 0
        self.prefix_hot_requests = self.PREFIX_HOT_REQUESTS
        self.prefix_pin_pages = self.PREFIX_PIN_PAGES
        #: Optional structured event log (repro.metrics.tracing.Tracer).
        self.tracer = None
        #: Sharded admission escrow (repro.scaleout); None keeps the
        #: single-process books.  Installed via :meth:`enable_shards`.
        self.shards = None

    # -- scale-out (repro.scaleout) -----------------------------------------------

    def enable_shards(self, shards):
        """Split the per-disk bandwidth books into escrowed ``shards`` (a
        :class:`~repro.scaleout.escrow.ShardSet` over this ``db``)."""
        self.shards = shards
        self.shards.journal = self._journal
        # A shadow's escrow moves arrive from the tail, never originate.
        self.shards.replaying = self.standby
        self.admission.observer = self.shards
        self.add_part(self.shards)
        return self.shards

    def install(self, kind: type, handler: Callable, held: bool = False) -> None:
        """Route MSU/edge message ``kind`` to ``handler``, its one owner;
        a ``held`` kind waits out reconciliation (DESIGN §3)."""
        if kind in self.handlers:
            raise ValueError(f"message kind already owned: {kind.__name__}")
        self.handlers[kind] = handler
        if held:
            self.held_kinds.add(kind)

    def add_part(self, part) -> None:
        """Give a stateful subsystem its snapshot sections, journal kinds,
        reconcile pass and lifecycle hooks (a
        :class:`~repro.recovery.parts.Part`)."""
        owned = {kind for other in self.parts for kind in other.REPLAY}
        if owned & set(part.REPLAY):
            raise ValueError(
                f"journal kinds already owned: {sorted(owned & set(part.REPLAY))}"
            )
        self.parts.append(part)

    def set_replaying(self, replaying: bool) -> None:
        """Escrow refills must not originate while journal records replay
        (they arrive as replayed records of their own)."""
        if self.shards is not None:
            self.shards.replaying = replaying or self.standby

    def activate(self) -> None:
        """Promote a shadow into the acting leader.

        Flips the passive flag and lets every part start the background
        loops the shadow suppressed — the EPG slots that have not fired
        yet (each re-checks ``fired`` and the current time, so late
        spawning is safe) and the edge placement loop.
        """
        self.standby = False
        for part in self.parts:
            part.activate()
        self.set_replaying(False)

    def _trace(self, category: str, subject, detail: str = "") -> None:
        if self.tracer is not None:
            self.tracer.record(self.name, category, subject, detail)

    def allocate_group_id(self) -> int:
        """Hand out the next stream-group identifier."""
        group_id = self.tables.next_group
        self.tables.next_group += 1
        return group_id

    def allocate_stream_id(self) -> int:
        """Hand out the next stream identifier."""
        stream_id = self.tables.next_stream
        self.tables.next_stream += 1
        return stream_id

    # -- crash recovery (repro.recovery) -----------------------------------------

    def _journal(self, kind: str, payload: dict) -> None:
        """Append one mutation to the write-ahead log, snapshotting as due.

        A single hook serves the database, the admission books and the
        Coordinator's own structural mutations; records and their matching
        control-channel sends happen in one synchronous block, so the log
        never tears mid-operation.
        """
        if self.journal is None or self.dead:
            return
        self.journal.append(kind, payload)
        if not self.recovering and self.journal.snapshot_due():
            self.journal.install_snapshot(snapshot_state(self))

    def attach_journal(self, store) -> None:
        """Start journaling to ``store`` (a JournalStore), seeding it with
        a snapshot of the current state if it has none yet."""
        self.journal = store
        if store.snapshot is None:
            store.install_snapshot(snapshot_state(self))

    def halt(self) -> None:
        """Simulate the Coordinator process dying.

        The in-memory state freezes (this instance is discarded), the
        journal detaches — it belongs to stable storage, i.e. the cluster
        — and the heartbeat watchers stop so the corpse cannot declare
        MSUs dead.  The caller closes the control channels.
        """
        self.dead = True
        self.recovering = False
        self.journal = None
        if self.monitor is not None:
            self.monitor.stop_all()

    def begin_recovery(self, attached, grace: float) -> Event:
        """Enter the reconciliation window after replaying the journal.

        Every MSU that says hello meanwhile is probed with
        :class:`~repro.net.messages.ReportState` and expected to answer;
        so is each MSU in ``attached`` (the ones being reconnected) that
        the replayed database believes is up.  Every other MSU it
        believes is up is missing at once.  Reconciliation runs when
        every expected MSU has reported or ``grace`` seconds elapse —
        whichever comes first — and declares the missing and the silent
        ones failed.  The returned event fires, with the
        :class:`~repro.recovery.RecoveryOutcome`, as admissions reopen.
        """
        available = {
            name for name, state in self.db.msus.items() if state.available
        }
        self.recovering = True
        self._recovery_expected = available & set(attached)
        self._recovery_missing = available - self._recovery_expected
        self._recovery_reports = {}
        self._recovery_backlog = []
        self._recovery_started = self.sim.now
        self._recovery_done = done = self.sim.event("coord.recovered")
        if not self._recovery_expected:
            self._complete_recovery()
            return done

        def _grace_timer() -> Generator:
            yield self.sim.timeout(grace)
            if self.recovering:
                self._complete_recovery()

        self.sim.process(_grace_timer(), name="coord.recovery-grace")
        return done

    def _state_reported(self, msg: m.StateReport) -> None:
        if not self.recovering:
            return
        self._recovery_reports[msg.msu_name] = msg
        if self._recovery_expected <= set(self._recovery_reports):
            self._complete_recovery()

    def _complete_recovery(self) -> None:
        """Reconcile against the collected StateReports and resume service."""
        if not self.recovering:
            return
        self.recovering = False
        reports = [
            self._recovery_reports[name]
            for name in sorted(self._recovery_reports)
        ]
        missing = sorted(
            (self._recovery_missing | self._recovery_expected)
            - set(self._recovery_reports)
        )
        outcome = reconcile(self, reports, missing)
        outcome.time_to_recover = self.sim.now - self._recovery_started
        outcome.wal_records = self.replayed_records
        if self.journal is not None:
            outcome.snapshot_seq = self.journal.snapshot_seq
        # Held kinds that raced the reconciliation window, in arrival
        # order; the queue retries once, below.
        backlog, self._recovery_backlog = self._recovery_backlog, []
        for msg in backlog:
            self.handlers[type(msg)](msg)
        # A fresh snapshot folds the recovery-window churn out of the WAL.
        if self.journal is not None:
            self.journal.install_snapshot(snapshot_state(self))
        self.last_recovery = outcome
        self._trace(
            "recovered",
            f"msus={outcome.msus_reported}",
            f"dropped={outcome.streams_dropped} adopted={outcome.streams_adopted} "
            f"tickets={outcome.tickets_recovered}",
        )
        self._recovery_done.succeed(outcome)
        self._retry_queue()

    def register_group(self, group: GroupRecord, session: Optional[Session]) -> None:
        """Install a scheduled group and journal its full image."""
        self.tables.add(group, session)
        self._journal("group-open", {"group": image(group)})

    # -- wiring ------------------------------------------------------------------

    def attach_msu(self, channel: ControlChannel) -> None:
        """Accept an MSU control connection; it will say hello."""
        self.sim.process(self._msu_loop(channel), name="coord.msu")

    def connect_client(self, channel: ControlChannel, client_host: str) -> None:
        """Accept a client control connection."""
        self.sim.process(self._client_loop(channel, client_host), name="coord.client")

    # -- MSU side -------------------------------------------------------------------

    def _msu_loop(self, channel: ControlChannel) -> Generator:
        msu_name = None
        while True:
            msg = yield channel.recv(self.name)
            if msg is None:
                # Only a break on the MSU's *current* channel is a
                # failure; a stale channel closed during rejoin (or after
                # the heartbeat monitor already declared death) is not —
                # and a halted Coordinator's closing channels are not
                # MSU failures at all.
                if (
                    not self.dead
                    and msu_name is not None
                    and self._msu_channels.get(msu_name) is channel
                ):
                    self._msu_failed(msu_name)
                return
            if isinstance(msg, m.MsuHello):
                msu_name = msg.msu_name
                self._msu_channels[msu_name] = channel
                self.db.register_msu(msu_name, list(msg.disks), msg.cache_bps)
                self._trace("msu-up", msu_name, f"disks={len(msg.disks)}")
                if self.recovering:
                    # Restart protocol: ask what it is actually serving.
                    self._recovery_expected.add(msu_name)
                    channel.send(self.name, m.ReportState(), nbytes=m.WIRE_BYTES)
                else:
                    self._retry_queue()
            else:
                yield from self._receive(msg)

    def _receive(self, msg) -> Generator:
        """Dispatch one MSU or edge message; a handler returning True
        freed resources, so the queue retries.  Unowned kinds drop."""
        if self.recovering and type(msg) in self.held_kinds:
            # Applying it now would fight the StateReports collected.
            self._recovery_backlog.append(msg)
            return
        if isinstance(msg, m.StreamTerminated):
            yield self.machine.cpu.execute(self.TERMINATION_CPU)
            self._trace("terminated", f"group={msg.group_id}",
                        f"stream={msg.stream_id} reason={msg.reason}")
        handler = self.handlers.get(type(msg))
        if handler is not None and handler(msg):
            self._retry_queue()

    def _heartbeat(self, msg: m.Heartbeat) -> None:
        if self.monitor is not None:
            self.monitor.beat(msg)

    def _terminated(self, msg: m.StreamTerminated) -> bool:
        self.terminations_handled += 1
        self._stream_terminated(msg)
        return True

    def _patch_drained(self, msg: m.PatchDrained) -> bool:
        """The one kind two lanes consume: each owns a channel-id range."""
        for lane in self.lanes:
            if lane.owns_channel(msg.channel_id):
                lane.patch_drained(msg)
                return True  # a refunded patch or rewind slot frees bandwidth
        return False

    def _cache_report(self, msg: m.CacheReport) -> None:
        """Fold an MSU's cache statistics into its resource record."""
        state = self.db.msus.get(msg.msu_name)
        if state is None:
            return
        state.cache_hits = msg.hits
        state.cache_misses = msg.misses
        state.cache_bytes_served = msg.bytes_served
        state.cache_slots_saved = msg.slots_saved
        state.cache_pool_used = msg.pool_used
        state.cache_pool_capacity = msg.pool_capacity

    def _heartbeat_dead(self, msu_name: str) -> None:
        """The heartbeat monitor gave up on an MSU before the TCP break."""
        if self.dead:
            return
        self._msu_failed(msu_name, reason="heartbeat")

    def _msu_failed(self, msu_name: str, reason: str = "connection-lost") -> None:
        """An MSU died: take it out of scheduling, recover its streams.

        Reached from either failure detector — the broken control
        connection (§2.2) or the heartbeat monitor — and idempotent,
        since both can fire for a single failure.  Beyond the paper's
        bookkeeping it releases every per-stream allocation, detaches the
        dead groups from their sessions, hands playback groups to the
        stream migrator, and nudges replication for titles that just
        lost a copy.
        """
        self._msu_channels.pop(msu_name, None)
        state = self.db.msus.get(msu_name)
        if state is None or not state.available:
            return
        self._trace("msu-down", msu_name, reason)
        self.db.mark_msu_down(msu_name)
        if self.monitor is not None:
            self.monitor.forget_msu(msu_name)
        affected: List[GroupRecord] = []
        for group in list(self.groups.values()):
            if group.msu_name != msu_name:
                continue
            affected.append(group)
            self.tables.drop(group)
            for alloc in group.allocations.values():
                self.admission.release(alloc)
            group.allocations.clear()
            dropped_contents = []
            for content_name, _type_name in group.recordings.values():
                # A half-made recording died with its MSU's buffers.
                self.db.contents.pop(content_name, None)
                dropped_contents.append(content_name)
            self._journal(
                "group-drop",
                {
                    "group_id": group.group_id,
                    "dropped_contents": dropped_contents,
                },
            )
        self.admission.release_msu(msu_name)
        # Books already zeroed wholesale: parts forget what ran there
        # without releasing it (multicast force-closes its ledger, live
        # channels go dark), and the subscriber groups in ``affected``
        # resume as plain unicast via the migrator below.
        for part in self.parts:
            part.msu_failed(msu_name)
        lost_titles = [
            entry.name
            for entry in self.db.contents.values()
            if not entry.components
            and any(loc[0] == msu_name for loc in entry.locations())
        ]
        if self.migrator is not None:
            self.migrator.msu_failed(msu_name, affected)
        if self.on_capacity_lost is not None and lost_titles:
            self.on_capacity_lost(msu_name, lost_titles)
        if self.recovering:
            # An expected MSU that died mid-recovery will never report.
            self._recovery_expected.discard(msu_name)
            if self._recovery_expected <= set(self._recovery_reports):
                self._complete_recovery()

    def _stream_terminated(self, msg: m.StreamTerminated) -> None:
        # A channel's own termination is fully handled by its part; a
        # subscriber's detaches there and releases here.  Parts claim
        # disjoint group ids, so the walk order does not matter.
        if any(part.handle_terminated(msg) for part in self.parts):
            return
        group = self.groups.get(msg.group_id)
        if group is None:
            return
        self._journal(
            "stream-end",
            {
                "group_id": msg.group_id,
                "stream_id": msg.stream_id,
                "reason": msg.reason,
                "recorded_blocks": msg.recorded_blocks,
            },
        )
        alloc = group.allocations.pop(msg.stream_id, None)
        if alloc is not None:
            self.admission.release(alloc, blocks_used=msg.recorded_blocks)
        recording = group.recordings.pop(msg.stream_id, None)
        if recording is not None and msg.reason == "record-complete":
            content_name, _type_name = recording
            entry = self.db.contents.get(content_name)
            if entry is not None:  # adopted orphans may lack an entry
                entry.blocks = msg.recorded_blocks
        if not group.allocations and not group.recordings:
            self.tables.drop(group)

    # -- client side -------------------------------------------------------------------

    def _client_loop(self, channel: ControlChannel, client_host: str) -> Generator:
        while True:
            msg = yield channel.recv(self.name)
            if msg is None:
                return
            yield self.machine.cpu.execute(self.REQUEST_CPU)
            self.requests_handled += 1
            reply = None
            try:
                if isinstance(msg, m.OpenSession):
                    reply = self._open_session(msg, client_host, channel)
                elif isinstance(msg, m.ListContents):
                    reply = m.ContentListing(tuple(self.db.listing()))
                elif isinstance(msg, m.RegisterPort):
                    reply = self._register_port(msg)
                elif isinstance(msg, m.RegisterCompositePort):
                    reply = self._register_composite(msg)
                elif isinstance(msg, m.PlayRequest):
                    reply = yield from self._play(msg, channel)
                elif isinstance(msg, m.RecordRequest):
                    reply = yield from self._record(msg, channel)
                elif isinstance(msg, m.DeleteContent):
                    reply = self._delete(msg)
                elif isinstance(msg, m.CloseSession):
                    if self.sessions.lookup(msg.session_id) is not None:
                        self._journal(
                            "session-close", {"session_id": msg.session_id}
                        )
                    self.sessions.close(msg.session_id)
                    self._session_channels.pop(msg.session_id, None)
            except CalliopeError as err:  # bad input becomes a reply
                reply = m.RequestFailed(str(err))
            self.reply(channel, msg, reply)

    def reply(self, channel: Optional[ControlChannel], request, reply) -> None:
        """Answer ``request`` on a client's channel, stamped with its id."""
        if reply is None or channel is None:
            return
        reply = dataclasses.replace(
            reply, request_id=getattr(request, "request_id", 0)
        )
        channel.send(self.name, reply, nbytes=m.WIRE_BYTES)

    def _open_session(
        self,
        msg: m.OpenSession,
        client_host: str,
        channel: Optional[ControlChannel] = None,
    ):
        customer = self.db.authenticate(msg.customer)
        if customer is None:
            return m.RequestFailed(f"unknown customer {msg.customer!r}")
        session = self.sessions.open(customer, client_host)
        self._journal(
            "session-open",
            {
                "session_id": session.session_id,
                "customer": customer.name,
                "client_host": client_host,
            },
        )
        if channel is not None:
            # Kept for unsolicited notices (StreamMigrated on failover).
            self._session_channels[session.session_id] = channel
        return m.SessionOpened(session.session_id)

    def notify_session(self, session_id: int, message) -> None:
        """Push an unsolicited notice down a session's control channel."""
        channel = self._session_channels.get(session_id)
        if channel is not None and channel.open:
            channel.send(self.name, message, nbytes=m.WIRE_BYTES)

    def _register_port(self, msg: m.RegisterPort):
        session = self.sessions.get(msg.session_id)
        ctype = self.types.get(msg.type_name)
        if ctype.is_composite:
            raise TypeMismatchError(
                f"type {msg.type_name!r} is composite; register components first"
            )
        port = DisplayPort(msg.port_name, msg.type_name, address=tuple(msg.address))
        session.register_port(port)
        self._journal(
            "port-add",
            {"session_id": msg.session_id, "port": image(port)},
        )
        return m.PortRegistered(msg.port_name)

    def _register_composite(self, msg: m.RegisterCompositePort):
        session = self.sessions.get(msg.session_id)
        ctype = self.types.get(msg.type_name)
        if not ctype.is_composite:
            raise TypeMismatchError(f"type {msg.type_name!r} is not composite")
        component_types = sorted(c.name for c in self.types.atomic_components(msg.type_name))
        port_types = sorted(
            session.port(p).type_name for p in msg.component_ports
        )
        if component_types != port_types:
            raise TypeMismatchError(
                f"composite {msg.type_name!r} needs ports of types "
                f"{component_types}, got {port_types}"
            )
        port = DisplayPort(
            msg.port_name, msg.type_name,
            component_ports=tuple(msg.component_ports),
        )
        session.register_port(port)
        self._journal(
            "port-add",
            {"session_id": msg.session_id, "port": image(port)},
        )
        return m.PortRegistered(msg.port_name)

    # -- play ----------------------------------------------------------------------------

    def _maybe_pin_prefix(self, entry: ContentEntry) -> None:
        """Ask a hot title's home MSU to pin its prefix (extension).

        Fired once per title, the first time its demand crosses the hot
        threshold; a no-op for MSUs that advertised no cache bandwidth.
        """
        if entry.prefix_pinned or not entry.msu_name:
            return
        if entry.demand < self.prefix_hot_requests:
            return
        state = self.db.msus.get(entry.msu_name)
        if state is None or state.cache_capacity <= 0:
            return
        msu_channel = self._msu_channels.get(entry.msu_name)
        if msu_channel is None:
            return
        entry.prefix_pinned = True
        self._journal("prefix-pin", {"name": entry.name})
        msu_channel.send(
            self.name,
            m.PinPrefix(entry.name, entry.disk_id, self.prefix_pin_pages),
            nbytes=m.WIRE_BYTES,
        )
        self._trace("prefix-pin", entry.name,
                    f"msu={entry.msu_name} pages={self.prefix_pin_pages}")

    def _admission_gate(self, msg) -> Generator:
        """True when the books cannot decide a request yet and the caller
        parks it; False after waiting out its shard's service delay."""
        if self.recovering:
            return True  # the books are mid-reconciliation
        if self.shards is not None:
            shard = self.shards.shard_for(msg.content_name)
            if self.shards.is_partitioned(shard):
                # The owning shard is unreachable; nobody else may spend
                # its escrow, so the request parks until the heal.
                self._trace(
                    "queued", msg.content_name, f"shard {shard} partitioned"
                )
                return True
            delay = self.shards.admission_delay(shard, self.sim.now)
            if delay > 0.0:
                yield self.sim.timeout(delay)
        return False

    def _play(
        self, msg: m.PlayRequest, channel: ControlChannel, fresh: bool = True
    ) -> Generator:
        """One admission decision per play (§2.2): the shared steps,
        then the first lane that takes the title, unicast last."""
        if (yield from self._admission_gate(msg)):
            # In the band its title earns; an unknown title fails now.
            self.park_play(msg, channel, self.db.content(msg.content_name))
            return None
        session = self.sessions.get(msg.session_id)
        if fresh:  # retries of a queued request are not new demand
            for part in self.parts:
                part.note_request(msg.content_name)
        entry = self.db.content(msg.content_name)
        self._maybe_pin_prefix(entry)
        port = session.port(msg.port_name)
        if port.type_name != entry.type_name:
            raise TypeMismatchError(
                f"content is {entry.type_name!r} but port is {port.type_name!r}"
            )
        for lane in (*self.lanes, self.unicast):
            if lane.takes(entry):
                # The lane replies now, later through its own reply, or
                # parks the request itself.
                return (yield from lane.play(msg, channel, session, entry, port))

    def park_play(self, msg: m.PlayRequest, channel, entry: ContentEntry) -> None:
        """Queue a play nothing could take now, in the degraded-mode
        band its title earns at enqueue time (``play_priority``)."""
        self.admission.park(QueuedRequest(
            "play", msg.session_id, msg, channel,
            priority=play_priority(self.db, entry),
        ))

    # -- place, send, commit ---------------------------------------------------------------

    def place_group(
        self, members: list, place: Optional[Callable] = None
    ) -> Optional[List[Allocation]]:
        """Place every member of a stream group on the first one's MSU
        (§2.2), or release the partial charges and return None.

        ``place(member, msu_pin)`` charges one member; by default it
        admits a playback of ``member[0]``, a ContentEntry.
        """
        if place is None:
            def place(member, msu_pin):
                ctype = self.types.get(member[0].type_name)
                return self.admission.place_read(member[0], ctype, msu_pin=msu_pin)
        placed: List[Allocation] = []
        for member in members:
            alloc = place(member, placed[0].msu_name if placed else None)
            if alloc is None:
                for granted in placed:
                    self.admission.release(granted)
                return None
            placed.append(alloc)
        return placed

    def send_schedules(self, group: GroupRecord, messages: list) -> Generator:
        """Send a placed group's messages, one SCHEDULE_CPU hold each;
        False means its MSU failed meanwhile and the group is undone.

        ``_msu_failed`` may run inside a hold and never saw this group,
        so it must not be registered: its allocations drop unreleased
        (``release_msu`` zeroed the books) and a recording's content
        entries go.  The caller refunds any charge it holds outside the
        group and parks the request, as if the failure had come before
        placement.  A group whose MSU has not said hello yet is undone
        before the first hold, and its charges are released: nothing
        zeroed them.
        """
        msu_channel = self._msu_channels.get(group.msu_name)
        if msu_channel is None:
            for alloc in group.allocations.values():
                self.admission.release(alloc)
        else:
            for message in messages:
                yield self.machine.cpu.execute(self.SCHEDULE_CPU)
                msu_channel.send(self.name, message, nbytes=m.WIRE_BYTES)
            if self._msu_channels.get(group.msu_name) is msu_channel:
                return True
        group.allocations.clear()
        for content_name, _type_name in group.recordings.values():
            if content_name in self.db.contents:
                self.db.remove_content(content_name)
        self._trace("queued", f"group={group.group_id}",
                    f"msu {group.msu_name} lost while scheduling")
        return False

    # -- record --------------------------------------------------------------------------

    def _record(self, msg: m.RecordRequest, channel: ControlChannel) -> Generator:
        queued = QueuedRequest("record", msg.session_id, msg, channel)
        if (yield from self._admission_gate(msg)):
            self.admission.park(queued)
            return None
        session = self.sessions.get(msg.session_id)
        ctype = self.types.get(msg.type_name)
        port = session.port(msg.port_name)
        if port.type_name != msg.type_name:
            raise TypeMismatchError(
                f"recording type {msg.type_name!r} but port is {port.type_name!r}"
            )
        if msg.content_name in self.db.contents:
            raise TypeMismatchError(f"content {msg.content_name!r} already exists")
        if ctype.is_composite:
            comp_types = self.types.atomic_components(msg.type_name)
            ports = match_ports(
                session.atomic_ports_for(msg.port_name, self.types),
                [comp.name for comp in comp_types],
            )
            members = [
                (f"{msg.content_name}.{comp.name}", comp, comp_port)
                for comp, comp_port in zip(comp_types, ports)
            ]
        else:
            members = [(msg.content_name, ctype, port)]
        # Place all members on one MSU (stream groups stay together, §2.2).
        placed = self.place_group(
            members,
            lambda member, msu_pin: self.admission.place_record(
                member[1], msg.estimate_seconds, msu_name=msu_pin
            ),
        )
        if placed is None:
            self.admission.park(queued)
            return None
        group = GroupRecord(self.allocate_group_id(), msg.session_id, placed[0].msu_name)
        messages = []
        for (content_name, comp_type, comp_port), alloc in zip(members, placed):
            stream_id = self.allocate_stream_id()
            group.allocations[stream_id] = alloc
            group.recordings[stream_id] = (content_name, comp_type.name)
            self.db.add_content(
                ContentEntry(
                    content_name, comp_type.name, group.msu_name, alloc.disk_id
                )
            )
            messages.append(m.ScheduleRecord(
                group.group_id, stream_id, content_name, alloc.disk_id,
                comp_type.protocol, comp_type.bandwidth_rate, comp_type.variable,
                tuple(comp_port.address) if comp_port.address else ("", 0),
                alloc.reserved_blocks, session.client_host, group_size=len(members),
            ))
        if not (yield from self.send_schedules(group, messages)):
            self.admission.park(queued)
            return None
        if ctype.is_composite:
            self.db.add_content(
                ContentEntry(
                    msg.content_name, msg.type_name, group.msu_name,
                    components=tuple(name for name, _, _ in members),
                )
            )
        self.register_group(group, session)
        return m.StreamScheduled(group.group_id, group.msu_name)

    # -- delete ---------------------------------------------------------------------------

    def _delete(self, msg: m.DeleteContent):
        session = self.sessions.get(msg.session_id)
        if not session.customer.admin:
            return m.RequestFailed("delete requires administrative permission")
        entry = self.db.remove_content(msg.content_name)
        for comp_name in entry.components:
            comp = self.db.remove_content(comp_name)
            self._delete_on_msu(comp)
        if entry.msu_name:
            self._delete_on_msu(entry)
        return m.Deleted(msg.content_name)

    def _delete_on_msu(self, entry: ContentEntry) -> None:
        channel = self._msu_channels.get(entry.msu_name)
        if channel is not None:
            channel.send(
                self.name, m.DeleteFile(entry.name, entry.disk_id), nbytes=m.WIRE_BYTES
            )
            self.db.adjust_free_blocks(entry.msu_name, entry.disk_id, entry.blocks)

    # -- queued-request retry --------------------------------------------------------------

    def queue_resume(self, ticket) -> None:
        """Park an unplaceable resume ticket at the head of the queue."""
        self.admission.park(
            QueuedRequest(
                "resume", ticket.session_id, ticket, None,
                priority=PRIORITY_RESUME,
            )
        )

    def _retry_queue(self) -> None:
        """Resources changed: re-attempt parked requests in queue order.

        The queue is kept priority-sorted by enqueue(); FIFO within a
        band, resume tickets first.  Suppressed while recovering — the
        books are not trustworthy until reconciliation finishes.
        """
        if self.dead or self.recovering:
            return
        if not self.admission.queue:
            return
        pending = list(self.admission.queue)
        self.admission.queue.clear()
        for req in pending:
            self.sim.process(self._retry_one(req), name="coord.retry")

    def _retry_one(self, req: QueuedRequest) -> Generator:
        if self.dead:
            return
        if req.ticket_id:
            # At-most-once: the durable ticket is consumed up front; a
            # failed placement re-enqueues under a fresh ticket id.
            self._journal("ticket-remove", {"ticket_id": req.ticket_id})
        if req.kind == "resume":
            if self.migrator is not None:
                yield from self.migrator.migrate(req.message)
            return
        try:
            if req.kind == "play":
                reply = yield from self._play(req.message, req.channel, fresh=False)
            else:
                reply = yield from self._record(req.message, req.channel)
        except CalliopeError as err:
            reply = m.RequestFailed(str(err))
        self.reply(req.channel, req.message, reply)

    # -- administrative registration (content pre-loaded on MSUs) ---------------------------

    def admin_add_content(
        self,
        name: str,
        type_name: str,
        msu_name: str,
        disk_id: str,
        blocks: int = 0,
        duration_us: int = 0,
        components: Tuple[str, ...] = (),
    ) -> ContentEntry:
        """Register pre-loaded content in the table of contents."""
        entry = ContentEntry(
            name, type_name, msu_name, disk_id, blocks, duration_us, components
        )
        self.db.add_content(entry)
        return entry
