"""The four real-stack workloads.

Each workload builds its system from the public API, generates its
requests up front from the seed (``generators.py``), runs one measured
phase, and checks its own outputs.  The life cycle is::

    w = Workload(seed, seconds, traced)
    w.setup()      # cluster, content, sessions: everything before T0
    w.run()        # the measured phase, T0 -> end of drain
    w.finish()     # output checks, host-timed read-back / replay

``seconds`` sizes the measured phase: every workload covers
``seconds * SIM_PER_SECOND`` simulated seconds of load, where
``SIM_PER_SECOND`` is the speed this tree had when the benchmark was
defined.  The amount of simulated work is therefore a function of
``(seed, seconds)`` only, every simulated number repeats exactly, and a
faster tree finishes the same work in less wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Generator, List, Optional

import numpy as np

import generators as gen
from layers import TimingJournal

from repro.clients.client import Client
from repro.clients.fake_msu import FakeMsu
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.core.coordinator import Coordinator
from repro.core.database import ContentEntry
from repro.edge import EdgeConfig
from repro.errors import CalliopeError
from repro.media.mpeg import MpegEncoder, packetize_cbr
from repro.multicast import MulticastConfig
from repro.net import messages as m
from repro.net.network import ControlChannel, Network
from repro.recovery import JournalStore, RecoveryConfig, books_state, recover
from repro.sim import Simulator
from repro.storage.ibtree import IBTreeConfig, IBTreeReader
from repro.units import CBR_PACKET_SIZE, MPEG1_RATE, ms

__all__ = ["WORKLOADS", "Request", "Workload"]


@dataclass
class Request:
    """One request's life in simulated time (the request-span record)."""

    kind: str  # "play" | "record" | "ctrl"
    due: float
    scheduled: Optional[float] = None  # StreamScheduled reached the client
    first: Optional[float] = None  # first useful response
    ended: Optional[float] = None
    #: "served" | "refused" | "abandoned" | "short" | "" (still open)
    outcome: str = ""
    packets: int = 0  # delivered to the port, or durably stored


class Workload:
    """Shared plumbing: counters, checks and the measured-phase bounds."""

    name = ""
    #: Simulated seconds of load per requested wall second (see module doc).
    SIM_PER_SECOND = 1.0
    #: What one unit of useful work is, for ``events_per_unit``.
    UNIT = "packet"

    def __init__(self, seed: int, seconds: float, traced: bool = False):
        self.seed = seed
        self.load_seconds = seconds * self.SIM_PER_SECOND
        self.traced = traced
        self.sim = Simulator()
        self.cluster: Optional[CalliopeCluster] = None
        self.coordinator: Optional[Coordinator] = None
        self.intra_net: Optional[Network] = None
        self.journal: Optional[JournalStore] = None
        self.requests: List[Request] = []
        #: (name, passed, detail) — any False fails the run.
        self.checks: List[tuple] = []
        #: Host seconds of synchronous calls the trace hook cannot see.
        self.host_s: Dict[str, float] = {
            "media.encode_s": 0.0, "storage.load_s": 0.0,
            "storage.verify_s": 0.0, "recovery.replay_s": 0.0,
        }
        self.peak_streams = 0
        self.t0 = 0.0
        self._base: Dict[str, float] = {}

    # -- the three phases (subclasses) ---------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    # -- helpers --------------------------------------------------------------

    def _adopt(self, cluster: CalliopeCluster) -> None:
        self.cluster = cluster
        self.coordinator = cluster.coordinator
        self.intra_net = cluster.intra_net
        self.journal = cluster.journal

    def _begin(self) -> None:
        """Mark T0: everything after this is the measured phase."""
        self.t0 = self.sim.now
        self._base = self._cumulative()

    def _check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def _timed(self, key: str, fn, *args, **kwargs):
        began = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.host_s[key] += perf_counter() - began

    def _encode(self, seconds: float, packet_size: int) -> list:
        """Generate ``seconds`` of MPEG-1 CBR content from the seed."""
        def encode():
            stream = MpegEncoder(rate=MPEG1_RATE, seed=self.seed).bitstream(seconds)
            return packetize_cbr(stream, MPEG1_RATE, packet_size)
        return self._timed("media.encode_s", encode)

    def _load(self, name: str, packets: list, disk_index: int) -> None:
        self._timed(
            "storage.load_s", self.cluster.load_content,
            name, "mpeg1", packets, disk_index=disk_index,
        )

    def _uncap_admission(self) -> None:
        """Let the workload, not the Coordinator, set the stream count."""
        for state in self.coordinator.db.msus.values():
            state.delivery_capacity = 1e12
            for disk in state.disks.values():
                disk.bandwidth_capacity = 1e12

    @property
    def _msus(self) -> list:
        return self.cluster.msus if self.cluster is not None else []

    def _cumulative(self) -> Dict[str, float]:
        """Every monotone counter read from public attributes."""
        coord = self.coordinator
        msus = self._msus
        edges = self.cluster.edges if self.cluster is not None else []
        disks = [d for msu in msus for d in msu.machine.disks]
        dps = [dp for msu in msus for dp in msu.disk_processes.values()]
        delivery = self.cluster.delivery_net if self.cluster is not None else None
        manager = coord.channel_manager
        c: Dict[str, float] = {
            "hardware.disk_busy_s": sum(d.busy_time for d in disks),
            "hardware.membus_busy_s": sum(x.machine.memory.busy_time for x in msus),
            "hardware.nic_line_busy_s": sum(x.nic.line_busy_time for x in msus),
            "hardware.scsi_cmds": sum(
                h.commands_issued for x in msus for h in x.machine.hbas
            ),
            "hardware.enobufs": sum(x.nic.enobufs_count for x in msus),
            "core.msu.cycles": sum(dp.cycles for dp in dps),
            "core.msu.pages_read": sum(dp.pages_read for dp in dps),
            "core.msu.pages_written": sum(dp.pages_written for dp in dps),
            "core.msu.pages_from_cache": sum(dp.pages_from_cache for dp in dps),
            "core.msu.packets_sent": sum(x.iop.packets_sent for x in msus),
            "net.datagrams_carried": delivery.datagrams_carried if delivery else 0,
            "net.datagrams_lost": delivery.datagrams_lost if delivery else 0,
            "net.multicast_copies": delivery.multicast_copies if delivery else 0,
            "net.ctrl_msgs": self.intra_net.datagrams_carried,
            "net.ctrl_bytes": self.intra_net.bytes_carried,
            "core.requests_handled": coord.requests_handled,
            "core.admitted": coord.admission.admitted,
            "core.queued": coord.admission.queued,
            "core.rejected": coord.admission.rejected,
            "core.edge_admitted": coord.admission.edge_admitted,
            "multicast.channels_created": manager.channels_created if manager else 0,
            "multicast.batched_joins": manager.batched_joins if manager else 0,
            "multicast.patched_joins": manager.patched_joins if manager else 0,
            "multicast.merges": manager.merges if manager else 0,
            "edge.hits": sum(e.hits for e in edges),
            "edge.misses": sum(e.misses for e in edges),
            "edge.bytes_served": sum(
                e.prefix_bytes_served + e.patch_bytes_served for e in edges
            ),
            "cache.hits": sum(e.prefix.hits for e in edges) + sum(
                x.cache.prefix.hits + x.cache.interval.hits
                for x in msus if x.cache is not None
            ),
            "cache.bytes_served": sum(e.prefix_bytes_served for e in edges) + sum(
                x.cache.bytes_served for x in msus if x.cache is not None
            ),
            "recovery.wal_records": self.journal.appends if self.journal else 0,
            "recovery.snapshots": self.journal.snapshots_taken if self.journal else 0,
            "storage.blocks_written": sum(
                fs.allocator.used_blocks
                for x in msus for fs in x.filesystems.values()
            ),
        }
        machines = [coord.machine] + [x.machine for x in msus]
        for i, machine in enumerate(machines):
            c[f"_cpu{i}"] = machine.cpu.busy_time
        return c

    def counters(self) -> Dict[str, float]:
        """Per-layer modelled-component counters over the measured phase."""
        now = self._cumulative()
        c = {k: v - self._base.get(k, 0) for k, v in now.items()}
        span = self.sim.now - self.t0
        msus = self._msus
        n_disks = sum(len(x.machine.disks) for x in msus)
        out = {k: v for k, v in c.items() if not k.startswith("_") and not k.endswith("_busy_s")}
        out["hardware.disk_busy_frac"] = (
            c["hardware.disk_busy_s"] / (span * n_disks) if n_disks else 0.0
        )
        for part in ("membus", "nic_line"):
            out[f"hardware.{part}_busy_frac"] = (
                c[f"hardware.{part}_busy_s"] / (span * len(msus)) if msus else 0.0
            )
        # The busiest CPU: an MSU's on the media workloads, the
        # Coordinator's on ctrl_storm.
        out["hardware.cpu_busy_frac"] = max(
            v for k, v in c.items() if k.startswith("_cpu")
        ) / span
        manager = self.coordinator.channel_manager
        placement = self.coordinator.placement
        out["multicast.ledger_outstanding"] = (
            manager.ledger.outstanding() if manager else 0.0
        )
        out["edge.uplink_outstanding"] = (
            sum(v.uplink_used for v in placement.edges.values()) if placement else 0.0
        )
        out["storage.ibtree_pages"] = sum(
            handle.nblocks
            for x in msus for fs in x.filesystems.values()
            for handle in fs.list_files()
        )
        out["clients.packets_received"] = sum(
            r.packets for r in self.requests if r.kind == "play"
        )
        return out

    def lateness_seconds(self):
        """Signed send lateness of every playback packet, pooled over MSUs."""
        parts = [
            np.asarray(x.iop.collector.late_seconds, dtype=float) for x in self._msus
        ]
        return np.concatenate(parts) if parts else np.empty(0)

    def units(self) -> int:
        """Useful work done: packets delivered to a port or durably stored."""
        return sum(r.packets for r in self.requests)

    def _audit_collectors(self) -> None:
        problems = [line for x in self._msus for line in x.iop.collector.audit()]
        self._check("collector.audit() is empty", not problems, "; ".join(problems))

    def _check_all_finished(self, procs) -> None:
        stuck = [p.name for p in procs if p.is_alive]
        broken = [p.name for p in procs if not p.is_alive and not p.ok]
        self._check(
            "every request process finished cleanly", not stuck and not broken,
            f"alive={stuck[:5]} failed={broken[:5]}",
        )


# -- cbr22 --------------------------------------------------------------------


class Cbr22(Workload):
    """Graph 1's rig at 22 streams: the pure unicast data path."""

    name = "cbr22"
    SIM_PER_SECOND = 13.0
    STREAMS = 22
    STAGGER = 2.0

    def setup(self) -> None:
        sim = self.sim
        self._adopt(CalliopeCluster(sim, ClusterConfig()))
        self.coordinator.db.add_customer("user")
        self.client = Client(sim, self.cluster, "client0")
        self.msu = self.cluster.msus[0]
        sim.run(until=0.01)  # the MSU's hello registers its disks
        self._uncap_admission()
        # One movie per disk, exactly as long as the window, so every
        # stream plays its file to the end and the packet count is exact.
        self.packets = self._encode(self.load_seconds, CBR_PACKET_SIZE)
        self.ndisks = len(self.msu.disk_ids())
        for d in range(self.ndisks):
            self._load(f"movie-d{d}", self.packets, d)
        self.stagger = gen.staggered_starts(self.seed, self.STREAMS, self.STAGGER)
        self._begin()

    def _open_streams(self) -> Generator:
        client = self.client
        yield from client.open_session("user")
        for i in range(self.STREAMS):
            port = yield from client.register_port(f"port{i}", "mpeg1")
            request = Request("play", due=self.sim.now)
            self.requests.append(request)
            self.views.append(
                (yield from client.play(f"movie-d{i % self.ndisks}", f"port{i}"))
            )
            request.scheduled = self.sim.now
            self.ports.append(port)

    def run(self) -> None:
        sim, iop = self.sim, self.msu.iop
        self.views: list = []
        self.ports: list = []
        iop.hold_starts = True
        # Closed loop, as in the paper's test: one client opens the streams
        # one after another; each request is due when the previous one
        # was answered.
        opener = sim.process(self._open_streams(), name="opener")
        sim.run_until_event(opener, limit=sim.now + 30.0)
        guard = sim.now + 30.0
        while not (len(iop.play_streams) == self.STREAMS and iop.all_loaded()):
            if sim.peek() > guard:
                raise RuntimeError("streams failed to buffer within 30 s")
            sim.step()
        iop.collector.reset()
        released = sim.now
        iop.release_starts({
            s.stream_id: off for s, off in zip(iop.play_streams, self.stagger)
        })
        sim.run(until=released + self.STAGGER + self.load_seconds + 2.0)

    def finish(self) -> None:
        expected = len(self.packets)
        wrong = []
        for i, (request, port, view) in enumerate(
            zip(self.requests, self.ports, self.views)
        ):
            stats = port.stats
            request.first = stats.first_arrival
            request.ended = stats.last_arrival
            request.packets = stats.packets
            complete = stats.packets == expected and view.done_event.triggered
            request.outcome = "served" if complete else "short"
            if not complete:
                wrong.append(f"port{i}={stats.packets}")
        self._check(
            f"every stream delivered its {expected} scheduled packets",
            len(self.requests) == self.STREAMS and not wrong, " ".join(wrong),
        )
        self._audit_collectors()
        self.peak_streams = _peak_overlap(
            [(r.first, r.ended) for r in self.requests if r.first is not None]
        )


# -- rec_play_mix -------------------------------------------------------------


class RecPlayMix(Workload):
    """Recordings beside playbacks on one two-disk MSU."""

    name = "rec_play_mix"
    SIM_PER_SECOND = 13.0
    RECORDINGS = 4
    PLAYBACKS = 16
    START_SPAN = 4.0

    def setup(self) -> None:
        sim = self.sim
        self._adopt(CalliopeCluster(sim, ClusterConfig(n_msus=1)))
        self.coordinator.db.add_customer("user")
        sim.run(until=0.01)
        self._uncap_admission()
        self.msu = self.cluster.msus[0]
        self.client = Client(sim, self.cluster, "studio")
        self.movie = self._encode(self.load_seconds, CBR_PACKET_SIZE)
        self.ndisks = len(self.msu.disk_ids())
        for d in range(self.ndisks):
            self._load(f"movie-d{d}", self.movie, d)
        self.source = gen.cbr_payloads(
            self.seed, len(self.movie), CBR_PACKET_SIZE, MPEG1_RATE
        )
        n = self.RECORDINGS + self.PLAYBACKS
        self.dues = gen.staggered_starts(self.seed, n, self.START_SPAN)
        sim.run_until_event(
            sim.process(self.client.open_session("user")), limit=sim.now + 1.0
        )
        self._begin()

    def _playback(self, i: int, request: Request) -> Generator:
        client, sim = self.client, self.sim
        yield sim.timeout(request.due - sim.now)
        port = yield from client.register_port(f"tv{i}", "mpeg1")
        self.ports[i] = port
        view = yield from client.play(f"movie-d{i % self.ndisks}", f"tv{i}")
        request.scheduled = sim.now
        yield from client.wait_done(view)

    def _recording(self, j: int, request: Request) -> Generator:
        client, sim = self.client, self.sim
        yield sim.timeout(request.due - sim.now)
        yield from client.register_port(f"cam{j}", "mpeg1")
        view = yield from client.record(
            f"take{j}", "mpeg1", f"cam{j}", self.load_seconds + 30.0
        )
        request.scheduled = sim.now
        yield from client.wait_ready(view)
        request.first = sim.now  # record-ready: the source may start
        address = view.record_addresses()[f"take{j}"]
        yield from client.send_stream(f"cam{j}", address, self.source)
        yield sim.timeout(0.5)  # the tail packets cross the wire
        client.quit(view.group_id)
        yield from client.wait_done(view)
        request.ended = sim.now

    def run(self) -> None:
        sim = self.sim
        self.ports: Dict[int, object] = {}
        self.procs = []
        for k, offset in enumerate(self.dues):
            if k < self.RECORDINGS:
                request = Request("record", due=self.t0 + offset)
                body = self._recording(k, request)
            else:
                request = Request("play", due=self.t0 + offset)
                body = self._playback(k - self.RECORDINGS, request)
            self.requests.append(request)
            self.procs.append(sim.process(body, name=f"req{k}"))
        sim.run(until=self.t0 + self.START_SPAN + self.load_seconds + 8.0)

    def finish(self) -> None:
        self._check_all_finished(self.procs)
        sent = len(self.source)
        stored_total = 0
        plays = [r for r in self.requests if r.kind == "play"]
        records = [r for r in self.requests if r.kind == "record"]

        def read_back(name: str) -> int:
            entry = self.coordinator.db.content(name)
            fs = self.msu.filesystems[entry.disk_id]
            handle = fs.open(name)
            return sum(
                len(IBTreeReader.parse_page(fs.read_block_sync(handle, b)))
                for b in range(handle.nblocks)
            )

        for j, request in enumerate(records):
            request.packets = self._timed("storage.verify_s", read_back, f"take{j}")
            stored_total += request.packets
            request.outcome = "served" if request.packets == sent else "short"
        self._check(
            "packets stored == packets sent (parse_page read-back)",
            stored_total == sent * len(records),
            f"stored={stored_total} sent={sent * len(records)}",
        )
        short = []
        for i, request in enumerate(plays):
            port = self.ports.get(i)
            if port is not None:
                request.first = port.stats.first_arrival
                request.ended = port.stats.last_arrival
                request.packets = port.stats.packets
            request.outcome = (
                "served" if request.packets == len(self.movie) else "short"
            )
            if request.outcome != "served":
                short.append(f"tv{i}={request.packets}")
        self._check(
            f"every playback delivered its {len(self.movie)} packets",
            not short, " ".join(short),
        )
        self._audit_collectors()
        self.peak_streams = _peak_overlap(
            [(r.first, r.ended) for r in self.requests if r.first and r.ended]
        )


# -- zipf_mcast_edge ----------------------------------------------------------


class ZipfMcastEdge(Workload):
    """E21's edged configuration under open-loop Zipf arrivals."""

    name = "zipf_mcast_edge"
    SIM_PER_SECOND = 6.0
    ERLANGS = 110.0
    MEAN_WATCH = 8.0
    TITLES = 8
    ZIPF_S = 1.0
    PATIENCE = 2.0
    PACKET = 1024
    DRAIN = 60.0  # in-flight viewers plus the longest possible edge patch

    def setup(self) -> None:
        sim = self.sim
        config = ClusterConfig(
            n_msus=1,
            disks_per_hba=(1,),
            delivery_latency=gen.access_latency(self.seed, ms(0.5)),
            ibtree_config=IBTreeConfig(
                data_page_size=16 * 1024, internal_page_size=1024, max_keys=32
            ),
            multicast=MulticastConfig(batch_window=0.5, patch_horizon=6.0),
            edge=EdgeConfig(
                n_edges=1, prefix_pages=256, placement_period=0.5,
                promote_score=0.5, evict_score=0.01, decay=0.9,
            ),
        )
        self._adopt(CalliopeCluster(sim, config))
        self.coordinator.db.add_customer("user")
        packets = self._encode(self.MEAN_WATCH * 6.0, self.PACKET)
        self.titles = [f"title{t}" for t in range(self.TITLES)]
        for title in self.titles:
            self._load(title, packets, 0)
        sim.run(until=0.01)
        self.client = Client(sim, self.cluster, "audience")
        sim.run_until_event(
            sim.process(self.client.open_session("user")), limit=sim.now + 1.0
        )
        self.viewings = gen.zipf_viewings(
            self.seed, self.load_seconds, self.ERLANGS, self.MEAN_WATCH,
            self.TITLES, self.ZIPF_S,
        )
        self._active = 0
        self._begin()

    def _arrivals(self) -> Generator:
        sim = self.sim
        for number, viewing in enumerate(self.viewings):
            due = self.t0 + viewing.due
            yield sim.timeout(due - sim.now)
            request = Request("play", due=due)
            self.requests.append(request)
            self.procs.append(
                sim.process(self._viewer(number, viewing, request), name=f"v{number}")
            )

    def _viewer(self, number: int, viewing: gen.Viewing, request: Request) -> Generator:
        client, sim = self.client, self.sim
        name = f"viewer{number}"
        try:
            port = yield from client.register_port(name, "mpeg1")
        except CalliopeError:
            request.outcome, request.ended = "refused", sim.now
            return
        try:
            view = yield from client.play_with_timeout(
                self.titles[viewing.title], name, self.PATIENCE
            )
        except CalliopeError:
            request.outcome, request.ended = "refused", sim.now
            client.close_port(name)
            return
        if view is None:  # gave up waiting in the scheduling queue
            request.outcome, request.ended = "abandoned", sim.now
            client.close_port(name)
            return
        request.scheduled = sim.now
        self._active += 1
        self.peak_streams = max(self.peak_streams, self._active)
        yield sim.timeout(viewing.watch)
        try:
            client.quit(view.group_id)
        except CalliopeError:
            pass  # the stream already ended on its own
        self._active -= 1
        request.ended = sim.now
        request.first = port.stats.first_arrival
        request.packets = port.stats.packets
        request.outcome = "served"
        client.close_port(name)

    def run(self) -> None:
        sim = self.sim
        self.procs: list = []
        feeder = sim.process(self._arrivals(), name="arrivals")
        self.procs.append(feeder)
        sim.run(until=self.t0 + self.load_seconds + self.DRAIN)

    def finish(self) -> None:
        self._check_all_finished(self.procs)
        self._check(
            "every drawn arrival was issued",
            len(self.requests) == len(self.viewings),
            f"{len(self.requests)}/{len(self.viewings)}",
        )
        after = self.counters()
        ledger = after["multicast.ledger_outstanding"]
        uplink = after["edge.uplink_outstanding"]
        self._check("multicast ledger outstanding is 0 after the drain",
                    ledger == 0.0, f"{ledger}")
        self._check("edge uplink outstanding is 0 after the drain",
                    uplink == 0.0, f"{uplink}")
        self._audit_collectors()


# -- ctrl_storm ---------------------------------------------------------------


class CtrlStorm(Workload):
    """§3.3's fake-MSU request storm against a bare, journaled Coordinator."""

    name = "ctrl_storm"
    SIM_PER_SECOND = 40.0
    UNIT = "request"
    RATE = 200.0
    FAKE_MSUS = 8
    GENERATORS = 2

    def setup(self) -> None:
        sim = self.sim
        self.intra_net = Network(sim, "intra", latency=ms(1.0))
        coord = self.coordinator = Coordinator(sim)
        snapshot_every = RecoveryConfig().snapshot_every
        self.journal = (TimingJournal if self.traced else JournalStore)(
            snapshot_every=snapshot_every
        )
        coord.attach_journal(self.journal)
        coord.db.add_customer("user")
        for i in range(self.FAKE_MSUS):
            fake = FakeMsu(sim, f"fake{i}")
            channel = ControlChannel(
                sim, coord.name, fake.name, latency=ms(1.0), network=self.intra_net
            )
            coord.attach_msu(channel)
            fake.attach_coordinator(channel)
        sim.run(until=0.01)  # let the hellos land
        self.contents = []
        for i in range(self.FAKE_MSUS):
            for d in range(2):
                name = f"clip-{i}-{d}"
                coord.db.add_content(
                    ContentEntry(name, "mpeg1", f"fake{i}", f"fake{i}.sd{d}", blocks=10)
                )
                self.contents.append(name)
        total = int(self.RATE * self.load_seconds)
        self.schedule = gen.storm_schedule(
            self.seed, self.GENERATORS, total, self.RATE, len(self.contents)
        )
        self.channels = []
        self.sessions: List[int] = []
        for g in range(self.GENERATORS):
            name = f"loadgen{g}"
            channel = ControlChannel(
                sim, name, coord.name, latency=ms(1.0), network=self.intra_net
            )
            coord.connect_client(channel, name)
            self.channels.append(channel)
            sim.run_until_event(
                sim.process(self._open(g, channel)), limit=sim.now + 1.0
            )
        self.failed_replies = 0
        self._begin()

    def _open(self, g: int, channel: ControlChannel) -> Generator:
        name = f"loadgen{g}"
        channel.send(name, m.OpenSession("user"), nbytes=m.WIRE_BYTES)
        reply = yield channel.recv(name)
        self.sessions.append(reply.session_id)
        channel.send(
            name,
            m.RegisterPort(reply.session_id, "p0", "mpeg1", (name, 6000)),
            nbytes=m.WIRE_BYTES,
        )
        yield channel.recv(name)

    def _send(self, g: int, requests: List[Request]) -> Generator:
        sim, channel, name = self.sim, self.channels[g], f"loadgen{g}"
        session = self.sessions[g]
        for rid, request in enumerate(requests, start=1):
            yield sim.timeout(request.due - sim.now)
            content = self.contents[self.schedule[g][rid - 1][1]]
            channel.send(
                name, m.PlayRequest(session, content, "p0", request_id=rid),
                nbytes=m.WIRE_BYTES,
            )

    def _drain(self, g: int, requests: List[Request]) -> Generator:
        """Match replies to requests; sample the books at each admission."""
        sim, channel, name = self.sim, self.channels[g], f"loadgen{g}"
        msus = self.coordinator.db.msus
        while True:
            reply = yield channel.recv(name)
            if reply is None:
                return
            request = requests[reply.request_id - 1]
            if isinstance(reply, m.StreamScheduled):
                request.scheduled = request.first = request.ended = sim.now
                request.outcome = "served"
                request.packets = 1  # one completed request = one unit
                active = sum(state.active_streams for state in msus.values())
                if active > self.peak_streams:
                    self.peak_streams = active
            else:
                request.outcome, request.ended = "refused", sim.now

    def lateness_seconds(self):
        """How much later than an idle Coordinator's each reply left.

        The storm carries no media, so its unit of output is the
        ``StreamScheduled`` reply and that reply's schedule is the
        fastest reply of the run (no queueing at the Coordinator).
        """
        waits = np.asarray(
            [r.first - r.due for r in self.requests if r.first is not None]
        )
        return waits - waits.min() if len(waits) else waits

    def run(self) -> None:
        sim = self.sim
        senders = []
        for g in range(self.GENERATORS):
            requests = [Request("ctrl", due=self.t0 + due) for due, _ in self.schedule[g]]
            self.requests.extend(requests)
            sim.process(self._drain(g, requests), name=f"loadgen{g}.drain")
            senders.append(sim.process(self._send(g, requests), name=f"loadgen{g}.gen"))
        for sender in senders:
            sim.run_until_event(sender)
        sim.run(until=sim.now + 1.0)  # drain in-flight terminations

    def finish(self) -> None:
        coord = self.coordinator
        sent = len(self.requests)
        handled = coord.requests_handled - self._base["core.requests_handled"]
        self._check("requests handled == requests sent", handled == sent,
                    f"handled={handled} sent={sent}")
        self._check(
            "every scheduled stream was terminated",
            coord.terminations_handled == sum(
                1 for r in self.requests if r.outcome == "served"
            ),
            f"terminations={coord.terminations_handled}",
        )

        def replay() -> dict:
            store = JournalStore.from_json(self.journal.to_json())
            fresh = Coordinator(Simulator())
            recover(fresh, store)
            return books_state(fresh)

        replayed = self._timed("recovery.replay_s", replay)
        self._check("replayed books_state == live books_state",
                    replayed == books_state(coord))


def _peak_overlap(intervals) -> int:
    """Most intervals open at one instant."""
    edges = sorted(
        [(start, 1) for start, _ in intervals] + [(end, -1) for _, end in intervals]
    )
    peak = open_now = 0
    for _, step in edges:
        open_now += step
        peak = max(peak, open_now)
    return peak


WORKLOADS = {w.name: w for w in (Cbr22, ZipfMcastEdge, RecPlayMix, CtrlStorm)}
