"""Cross-subsystem invariants over a live :class:`CalliopeCluster`.

Each checker inspects one subsystem's books and returns human-readable
problem strings; the :class:`InvariantRegistry` stamps them with the
simulation time and the phase they were caught in.  Checkers come in two
patience classes:

``mid``
    One-sided safety properties that hold at *every* instant between
    event callbacks: books never go negative, pool bytes are always
    explained by pages, a group id lives on at most one running MSU.

``drain``
    Exact conservation, only meaningful once the cluster has quiesced:
    admission books equal the sum of live allocations, the multicast
    ledger balances, file systems check clean, no stream state lingers.

The registry's built-in families mirror the subsystems the prior
tentpoles added — admission, multicast ledger + subscriber accounting,
cache pin/refcount balance, failover group identity, storage
allocator/free-map consistency, per-stream delivery-deadline
accounting, edge-lane charge isolation (no double charge between an
edge serve and the MSU books), live-channel ring-window bounds plus
no-viewer-starves coverage, and recovery reconciliation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.recovery import books_state, expected_books
from repro.storage.check import check_filesystem

__all__ = ["Violation", "InvariantRegistry", "builtin_registry"]

EPS = 1e-6


@dataclass(frozen=True)
class Violation:
    """One broken invariant, caught at one instant."""

    invariant: str
    detail: str
    at: float
    phase: str  # "mid" | "drain"

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"[{self.at:10.4f}s {self.phase}] {self.invariant}: {self.detail}"


class InvariantRegistry:
    """Named checkers over a cluster, grouped by when they may run.

    A checker is any callable ``fn(cluster) -> iterable of str``; an empty
    result means the invariant holds.  ``when`` is ``"mid"``, ``"drain"``
    or ``"both"``.
    """

    def __init__(self) -> None:
        self._checkers: List[Tuple[str, Callable, str]] = []
        self.checks_run = 0

    def register(self, name: str, fn: Callable, when: str = "both") -> None:
        if when not in ("mid", "drain", "both"):
            raise ValueError(f"unknown check phase {when!r}")
        self._checkers.append((name, fn, when))

    def names(self) -> List[str]:
        return [name for name, _, _ in self._checkers]

    def check(self, cluster, phase: str = "mid") -> List[Violation]:
        """Run every checker registered for ``phase``; [] means all green."""
        violations = []
        now = cluster.sim.now
        for name, fn, when in self._checkers:
            if when != "both" and when != phase:
                continue
            self.checks_run += 1
            try:
                details = list(fn(cluster))
            except Exception as exc:
                # A crashing checker is itself a finding — report it
                # instead of aborting the remaining checks mid-run.
                details = [f"checker raised {type(exc).__name__}: {exc}"]
            for detail in details:
                violations.append(Violation(name, detail, now, phase))
        return violations


# -- 1. admission bandwidth/ledger conservation ------------------------------


def check_admission_books(cluster) -> List[str]:
    """One-sided admission safety (valid at any instant)."""
    return cluster.coordinator.admission.audit()


def _expected_charges(cluster):
    """Books implied by every live allocation the Coordinator holds."""
    coord = cluster.coordinator
    delivery: Dict[str, float] = {}
    cache: Dict[str, float] = {}
    disk_bw: Dict[Tuple[str, str], float] = {}
    streams: Dict[str, int] = {}
    active: Dict[Tuple[str, Tuple[str, str]], int] = {}

    def charge(alloc):
        delivery[alloc.msu_name] = delivery.get(alloc.msu_name, 0.0) + alloc.bandwidth
        streams[alloc.msu_name] = streams.get(alloc.msu_name, 0) + 1
        if alloc.cache_covered:
            cache[alloc.msu_name] = cache.get(alloc.msu_name, 0.0) + alloc.bandwidth
        else:
            loc = (alloc.msu_name, alloc.disk_id)
            disk_bw[loc] = disk_bw.get(loc, 0.0) + alloc.bandwidth
        if alloc.content_name:
            key = (alloc.content_name, (alloc.msu_name, alloc.disk_id))
            active[key] = active.get(key, 0) + 1

    for part in coord.parts:
        for alloc in part.held_allocations():
            charge(alloc)
    return delivery, cache, disk_bw, streams, active


def check_admission_conservation(cluster) -> List[str]:
    """Exact conservation: books == sum of live allocations (drain only).

    Mid-simulation this is deliberately *not* checked: every request
    path places (charges) its group, spends its schedule holds in
    ``send_schedules`` and registers the group only after them, so the
    books legitimately run ahead of the group table inside those holds.
    """
    coord = cluster.coordinator
    delivery, cache, disk_bw, streams, active = _expected_charges(cluster)
    problems = []
    for state in coord.db.msus.values():
        expected = delivery.get(state.name, 0.0)
        if abs(state.delivery_used - expected) > EPS:
            problems.append(
                f"{state.name}: delivery_used {state.delivery_used} != "
                f"{expected} summed over live allocations"
            )
        expected = cache.get(state.name, 0.0)
        if abs(state.cache_used - expected) > EPS:
            problems.append(
                f"{state.name}: cache_used {state.cache_used} != {expected} "
                f"summed over live cache-covered allocations"
            )
        expected = streams.get(state.name, 0)
        if state.active_streams != expected:
            problems.append(
                f"{state.name}: active_streams {state.active_streams} != "
                f"{expected} live allocations"
            )
        for disk in state.disks.values():
            expected = disk_bw.get((state.name, disk.disk_id), 0.0)
            if abs(disk.bandwidth_used - expected) > EPS:
                problems.append(
                    f"{state.name}/{disk.disk_id}: bandwidth_used "
                    f"{disk.bandwidth_used} != {expected} summed over "
                    f"live allocations"
                )
    for entry in coord.db.contents.values():
        locations = set(entry.active)
        locations |= {loc for (name, loc) in active if name == entry.name}
        for loc in sorted(locations):
            have = entry.active.get(loc, 0)
            expected = active.get((entry.name, loc), 0)
            if have != expected:
                problems.append(
                    f"content {entry.name!r} at {loc}: active count {have} "
                    f"!= {expected} live allocations"
                )
    return problems


# -- 2./3. multicast ledger + subscriber accounting --------------------------


def check_multicast_books(cluster) -> List[str]:
    """Ledger safety plus manager/record cross-consistency (any instant)."""
    manager = cluster.coordinator.channel_manager
    if manager is None:
        return []
    problems = list(manager.ledger.audit())
    if manager.ledger.outstanding() < -EPS:
        problems.append(
            f"ledger outstanding {manager.ledger.outstanding()} < 0"
        )
    problems.extend(manager.audit())
    for channel_id, record in manager.channels.items():
        entry = manager.ledger.channels.get(channel_id)
        if entry is not None and not entry.closed:
            for group_id in entry.patch_charges:
                if group_id not in record.subscribers:
                    problems.append(
                        f"channel {channel_id}: patch charged to group "
                        f"{group_id} which is not a subscriber"
                    )
    return problems


def check_multicast_drain(cluster) -> List[str]:
    """After drain the multicast books balance and nothing lingers."""
    manager = cluster.coordinator.channel_manager
    if manager is None:
        return []
    problems = []
    if not manager.ledger.balanced():
        problems.append(
            f"ledger not balanced: {manager.ledger.outstanding()} "
            f"outstanding across "
            f"{sum(1 for e in manager.ledger.channels.values() if not e.closed)}"
            f" unclosed channels"
        )
    if manager.channels:
        problems.append(
            f"{len(manager.channels)} channel records outlive the drain"
        )
    for msu in cluster.msus:
        if msu.up and msu.channels:
            problems.append(
                f"{msu.name}: {len(msu.channels)} MSU channel states "
                f"outlive the drain"
            )
    stale_groups = getattr(cluster.delivery_net, "_groups", {})
    if stale_groups:
        problems.append(
            f"delivery network still has multicast members: "
            f"{sorted(stale_groups)}"
        )
    return problems


# -- 4. cache pin/refcount balance -------------------------------------------


def check_cache_balance(cluster) -> List[str]:
    """Every MSU pool byte is explained by a retained or pinned page, and
    only a stream the MSU's disk processes serve holds an interval-cache
    position or claim (a down MSU serves none)."""
    problems = []
    for msu in cluster.msus:
        if msu.cache is None:
            continue
        for detail in msu.cache.audit():
            problems.append(f"{msu.name}: {detail}")
        served = {
            stream.stream_id
            for proc in msu.disk_processes.values()
            for stream in proc.play_streams
        } if msu.up else set()
        stale = msu.cache.interval.holders() - served
        if stale:
            problems.append(
                f"{msu.name}: interval cache held for streams no disk "
                f"process serves: {sorted(stale)}"
            )
    return problems


# -- 5. failover group identity ----------------------------------------------


def check_failover_groups(cluster) -> List[str]:
    """A group id lives on at most one running MSU (any instant)."""
    problems = []
    owners: Dict[int, str] = {}
    for msu in cluster.msus:
        if not msu.up:
            continue
        for group_id in msu.groups:
            if group_id in owners:
                problems.append(
                    f"group {group_id} lives on both {owners[group_id]} "
                    f"and {msu.name}"
                )
            owners[group_id] = msu.name
    monitor = getattr(cluster.coordinator, "monitor", None)
    if monitor is not None:
        problems.extend(monitor.audit())
    return problems


def check_failover_drain(cluster) -> List[str]:
    """Coordinator group records only reference schedulable MSUs."""
    coord = cluster.coordinator
    problems = []
    for group_id, record in coord.groups.items():
        state = coord.db.msus.get(record.msu_name)
        if state is None or not state.available:
            problems.append(
                f"group {group_id} assigned to unavailable MSU "
                f"{record.msu_name}"
            )
    return problems


# -- 6. storage allocator/free-map consistency -------------------------------


def check_storage(cluster) -> List[str]:
    """fsck every running MSU's file systems (drain only: a crashed MSU
    may legitimately hold an interrupted write until remount)."""
    problems = []
    config = cluster.config.ibtree_config
    for msu in cluster.msus:
        if not msu.up:
            continue
        for disk_id, fs in sorted(msu.filesystems.items()):
            report = check_filesystem(fs, config)
            for error in report.errors:
                problems.append(f"{msu.name}/{disk_id}: {error}")
    return problems


def check_allocator_bounds(cluster) -> List[str]:
    """Cheap allocator sanity that holds at any instant."""
    problems = []
    for msu in cluster.msus:
        for disk_id, fs in sorted(msu.filesystems.items()):
            allocator = fs.allocator
            used = allocator.used_blocks
            free = allocator.free_blocks
            reserved = allocator.reserved_blocks
            if free < 0 or reserved < 0:
                problems.append(
                    f"{msu.name}/{disk_id}: negative allocator counter "
                    f"(free={free} reserved={reserved})"
                )
            marked = sum(allocator._bitmap)
            if used != marked:
                problems.append(
                    f"{msu.name}/{disk_id}: used counter {used} != "
                    f"{marked} blocks marked in the bitmap"
                )
    return problems


# -- 7. per-stream delivery-deadline accounting ------------------------------


def check_stream_accounting(cluster) -> List[str]:
    """Every live stream's schedule accounting is sane (any instant)."""
    problems = []
    for msu in cluster.msus:
        if not msu.up:
            continue
        known = {
            stream.stream_id
            for group in msu.groups.values()
            for stream in group.play_streams
        }
        known |= {ch.stream.stream_id for ch in msu.channels.values()}
        for stream in msu.iop.play_streams:
            if not 0 <= stream.next_page <= stream.handle.nblocks:
                problems.append(
                    f"{msu.name}: stream {stream.stream_id} next_page "
                    f"{stream.next_page} outside [0, {stream.handle.nblocks}]"
                )
            if stream.position_us < 0:
                problems.append(
                    f"{msu.name}: stream {stream.stream_id} position "
                    f"{stream.position_us}us < 0"
                )
            if stream.stream_id not in known:
                problems.append(
                    f"{msu.name}: orphan stream {stream.stream_id} in the "
                    f"IOP with no owning group or channel"
                )
        problems.extend(
            f"{msu.name}: {detail}" for detail in msu.iop.collector.audit()
        )
    return problems


def check_streams_drained(cluster) -> List[str]:
    """After drain no stream or group state may linger on a running MSU."""
    problems = []
    for msu in cluster.msus:
        if not msu.up:
            continue
        if msu.iop.play_streams:
            problems.append(
                f"{msu.name}: {len(msu.iop.play_streams)} play streams "
                f"outlive the drain"
            )
        if msu.iop.record_streams:
            problems.append(
                f"{msu.name}: {len(msu.iop.record_streams)} record streams "
                f"outlive the drain"
            )
        if msu.groups:
            problems.append(
                f"{msu.name}: groups {sorted(msu.groups)} outlive the drain"
            )
    return problems


# -- 8. edge proxy tier -------------------------------------------------------


def check_edge_books(cluster) -> List[str]:
    """Edge-lane charge isolation (any instant).

    The zero-disk-cost lane promises an edge-served stream never lands
    on an MSU book: no group or channel allocation may carry an edge
    name, every registered edge serve must hold an edge-lane allocation,
    and an edge-covered patch group must not *also* hold a multicast
    ledger patch charge or a per-stream MSU allocation — the
    no-double-charge property.
    """
    coord = cluster.coordinator
    problems = []
    for group in coord.groups.values():
        for stream_id, alloc in group.allocations.items():
            if alloc.edge_name:
                problems.append(
                    f"group {group.group_id}/{stream_id}: edge-lane "
                    f"allocation ({alloc.edge_name}) sits on the MSU books"
                )
    manager = coord.channel_manager
    if manager is not None:
        for channel_id, record in manager.channels.items():
            if record.allocation.edge_name:
                problems.append(
                    f"channel {channel_id}: edge-lane allocation "
                    f"({record.allocation.edge_name}) backs an MSU channel"
                )
    placement = getattr(coord, "placement", None)
    if placement is None:
        return problems
    patch_charged = set()
    if manager is not None:
        for entry in manager.ledger.channels.values():
            patch_charged |= set(entry.patch_charges)
    settled = not getattr(coord, "recovering", False) and not getattr(
        coord, "dead", False
    )
    for (group_id, stream_id), serve in placement.serves.items():
        alloc = serve.allocation
        if alloc is None or not alloc.edge_name:
            problems.append(
                f"edge serve {group_id}/{stream_id}: allocation is not "
                f"edge-lane"
            )
        if serve.kind == "patch" and group_id in patch_charged:
            problems.append(
                f"edge serve {group_id}/{stream_id}: patch also charged "
                f"in the multicast ledger (double charge)"
            )
        # A serve held for an edge that is not attached is a charge with
        # no one left to complete or refund it — the stale-serve shape a
        # restart can replay.  (An MSU allocation coexisting with a patch
        # serve is legitimate: failover may migrate the subscriber to a
        # direct stream while the edge still fills in the missed prefix.)
        # During an outage the books are frozen with the dead process,
        # and during recovery the grace window legitimately holds
        # replayed serves until edges re-hello or the placement reconcile
        # refunds them — skip the staleness check in both states.
        view = placement.edges.get(serve.edge_name)
        if settled and (view is None or not view.attached):
            problems.append(
                f"edge serve {group_id}/{stream_id}: held for detached "
                f"edge {serve.edge_name} (stale charge)"
            )
    return problems


def check_edge_cache_balance(cluster) -> List[str]:
    """Every edge pool byte is explained by a pinned prefix page."""
    problems = []
    for proxy in getattr(cluster, "edges", []):
        pinned = proxy.prefix.pinned_bytes()
        if proxy.pool.used != pinned:
            problems.append(
                f"{proxy.name}: pool holds {proxy.pool.used} bytes but "
                f"pinned pages explain {pinned}"
            )
    return problems


def check_edge_drain(cluster) -> List[str]:
    """After drain no edge serve lingers, the uplink books read zero,
    and the Coordinator's pin map matches each live proxy's cache."""
    coord = cluster.coordinator
    placement = getattr(coord, "placement", None)
    if placement is None:
        return []
    problems = []
    if placement.serves:
        problems.append(
            f"{len(placement.serves)} edge serves outlive the drain: "
            f"{sorted(placement.serves)}"
        )
    proxies = {proxy.name: proxy for proxy in getattr(cluster, "edges", [])}
    for name in sorted(placement.edges):
        view = placement.edges[name]
        if abs(view.uplink_used) > EPS:
            problems.append(
                f"{name}: uplink_used {view.uplink_used} != 0 after drain"
            )
        proxy = proxies.get(name)
        if proxy is None or proxy.down or not view.attached:
            continue
        have = proxy.pinned_titles()
        if dict(view.pinned) != have:
            problems.append(
                f"{name}: coordinator pin map "
                f"{sorted(view.pinned.items())} != proxy cache "
                f"{sorted(have.items())}"
            )
    return problems


# -- 9. live channels and time-shift rings -----------------------------------


def check_live_ring_bounds(cluster) -> List[str]:
    """Ring-window bounds (any instant).

    The reclaim path may only trim pages that are both outside the
    configured window *and* behind every active reader: the resident
    span never drops below ``ring_blocks`` while the file is longer
    than the window, a keep-everything (DVR) channel is never trimmed
    at all, and no reader is ever left positioned on a reclaimed page.
    """
    problems = []
    for msu in cluster.msus:
        if not msu.up:
            continue
        for live in msu.live.values():
            handle = live.handle
            if live.ring_blocks <= 0:
                if handle.trimmed:
                    problems.append(
                        f"{msu.name}: DVR channel {live.channel_id} trimmed "
                        f"{handle.trimmed} pages of a keep-everything file"
                    )
                continue
            floor = max(0, handle.nblocks - live.ring_blocks)
            if handle.trimmed > floor:
                problems.append(
                    f"{msu.name}: channel {live.channel_id} trimmed to "
                    f"{handle.trimmed}, past the window floor {floor} "
                    f"(span {handle.live_span} < ring {live.ring_blocks})"
                )
            for stream in msu.iop.play_streams:
                if stream.handle is handle and stream.next_page < handle.trimmed:
                    problems.append(
                        f"{msu.name}: channel {live.channel_id} reclaimed "
                        f"page {stream.next_page} under reader "
                        f"{stream.stream_id} (trimmed to {handle.trimmed})"
                    )
    return problems


def check_live_viewers(cluster) -> List[str]:
    """No live viewer starves (any instant).

    Every subscriber of an on-air channel must be joined to its
    multicast group (or fan-out packets never reach them), the fan-out
    stream itself must still be pacing in the IOP, and the disk process
    feeding it must be alive — a dead disk process starves every viewer
    silently.  Coordinator-side, the live manager's book must pass its
    :meth:`~repro.multicast.book.ChannelBook.audit`, like multicast's.
    """
    problems = []
    groups = getattr(cluster.delivery_net, "_groups", {})
    for msu in cluster.msus:
        if not msu.up:
            continue
        for ch in msu.channels.values():
            if not ch.stream.live:
                continue
            if ch.stream not in msu.iop.play_streams:
                problems.append(
                    f"{msu.name}: live channel {ch.channel_id} fan-out "
                    f"stream {ch.stream.stream_id} missing from the IOP"
                )
            members = groups.get(ch.mcast_host, set())
            for group_id in sorted(ch.subscribers):
                _, address = ch.subscribers[group_id]
                if tuple(address) not in members:
                    problems.append(
                        f"{msu.name}: live channel {ch.channel_id} "
                        f"subscriber {group_id} at {address} is not in "
                        f"multicast group {ch.mcast_host}"
                    )
        if msu.live:
            for disk_id in sorted(msu.disk_processes):
                proc = msu.disk_processes[disk_id]
                if not proc._proc.is_alive:
                    problems.append(
                        f"{msu.name}/{disk_id}: disk process dead under "
                        f"{len(msu.live)} live channel(s)"
                    )
    manager = cluster.coordinator.live_manager
    if manager is not None:
        problems.extend(manager.audit())
    return problems


def check_live_drain(cluster) -> List[str]:
    """After drain every live channel is off the air everywhere, and no
    up MSU keeps a ring file (a trimmed one) with no channel on it."""
    problems = []
    manager = cluster.coordinator.live_manager
    if manager is not None:
        if manager.channels:
            problems.append(
                f"{len(manager.channels)} live channel records outlive "
                f"the drain: {sorted(manager.channels)}"
            )
        groups = manager.owned_groups()  # fan-out, ingest and viewers
        if groups:
            problems.append(f"live groups outlive the drain: {sorted(groups)}")
    for msu in cluster.msus:
        if not msu.up:
            continue
        if msu.live:
            problems.append(
                f"{msu.name}: {len(msu.live)} live channel states outlive "
                f"the drain"
            )
        on_air = [live.handle for live in msu.live.values()]
        for disk_id in sorted(msu.filesystems):
            for handle in msu.filesystems[disk_id].list_files():
                if handle.trimmed and not any(h is handle for h in on_air):
                    problems.append(
                        f"{msu.name}/{disk_id}: ring {handle.name!r} "
                        f"({handle.live_span} pages) outlives its channel"
                    )
    return problems


# -- 10. coordinator recovery reconciliation ----------------------------------


def check_recovery_reconciliation(cluster) -> List[str]:
    """The Coordinator's tables match what every live MSU is serving.

    The same correspondence a fresh ``reconcile`` would compute: every
    charged coordinator stream is served by its MSU, every served MSU
    stream is known to the Coordinator, channel records and subscriber
    sets match, a coordinator-claimed prefix pin exists MSU-side, and
    the books equal a from-scratch rebuild.  Trivially green without a
    recovery; after one it is exactly the state a restart must restore.
    """
    coord = cluster.coordinator
    if getattr(coord, "dead", False):
        return ["coordinator left dead at drain"]
    if getattr(coord, "recovering", False):
        return ["coordinator still reconciling at drain"]
    problems = []
    manager = coord.channel_manager
    for msu in cluster.msus:
        if not msu.up or msu.coordinator_channel is None:
            continue
        report = msu.state_report()
        served = {(gid, sid) for gid, sid, *_ in report.streams}
        subscribed = set()
        reported_channels = {}
        for cid, gid, sid, content, disk, pairs in report.channels:
            reported_channels[cid] = {tuple(p) for p in pairs}
            subscribed |= reported_channels[cid]
        charged = set()
        for group in coord.groups.values():
            if group.msu_name != msu.name:
                continue
            for stream_id in set(group.allocations) | set(group.recordings):
                charged.add((group.group_id, stream_id))
        for key in sorted(charged - served - subscribed):
            problems.append(
                f"{msu.name}: coordinator charges stream {key[0]}/{key[1]} "
                f"the MSU is not serving"
            )
        known = set(charged)
        for group in coord.groups.values():
            if group.msu_name == msu.name:
                known |= {(group.group_id, s) for s in group.streams}
        for key in sorted(served - known):
            problems.append(
                f"{msu.name}: serves stream {key[0]}/{key[1]} the "
                f"coordinator has no record of"
            )
        if manager is not None:
            coord_channels = {
                cid: set(rec.subscribers.items())
                for cid, rec in manager.channels.items()
                if rec.msu_name == msu.name
            }
            for cid in sorted(set(coord_channels) ^ set(reported_channels)):
                where = "coordinator" if cid in coord_channels else "MSU"
                problems.append(
                    f"{msu.name}: channel {cid} exists only {where}-side"
                )
            for cid in sorted(set(coord_channels) & set(reported_channels)):
                if coord_channels[cid] != reported_channels[cid]:
                    problems.append(
                        f"{msu.name}: channel {cid} subscriber sets differ "
                        f"(coordinator {sorted(coord_channels[cid])} vs "
                        f"MSU {sorted(reported_channels[cid])})"
                    )
        pinned = {
            (disk_id, content) for disk_id, content, pages in report.pins
            if pages > 0
        }
        for entry in coord.db.contents.values():
            if entry.msu_name != msu.name or not entry.prefix_pinned:
                continue
            if (entry.disk_id, entry.name) not in pinned:
                problems.append(
                    f"{msu.name}: coordinator claims {entry.name!r} prefix "
                    f"pinned; cache has no pages"
                )
    # Live charge/release interleaving accrues float dust the
    # deterministic rebuild order does not, hence EPS (not ==).
    have, want = books_state(coord), expected_books(coord)
    for name in sorted(set(have["msus"]) | set(want["msus"])):
        h = have["msus"].get(name, {})
        w = want["msus"].get(name, {})
        close = (
            abs(h.get("delivery_used", 0.0) - w.get("delivery_used", 0.0)) <= EPS
            and abs(h.get("cache_used", 0.0) - w.get("cache_used", 0.0)) <= EPS
            and h.get("active_streams", 0) == w.get("active_streams", 0)
            and set(h.get("disks", {})) == set(w.get("disks", {}))
            and all(
                abs(bw - w["disks"][d]) <= EPS
                for d, bw in h.get("disks", {}).items()
            )
        )
        if not close:
            problems.append(
                f"books for {name} diverge from a from-scratch rebuild: "
                f"{h} != {w}"
            )
    if have["active"] != want["active"]:
        problems.append(
            "active-reader counts diverge from a from-scratch rebuild: "
            f"{have['active']} != {want['active']}"
        )
    return problems


# -- 9. coordinator scale-out (repro.scaleout) -------------------------------


def check_scaleout_escrow(cluster) -> List[str]:
    """The escrow split is an exact decomposition of the disk books.

    Valid at any instant: the per-shard one-sided safety checks
    (``ShardSet.audit``: bank never over-granted, no negative slices,
    overdraft only under genuine exhaustion) plus exact cross-shard
    conservation — for every disk with an escrow book,
    ``sum(spent) == disk.bandwidth_used``.  A double-spent admission or
    a charge that escaped shard attribution breaks the equality
    immediately.
    """
    coord = cluster.coordinator
    shards = coord.shards
    if shards is None:
        return []
    problems = list(shards.audit())
    for (msu_name, disk_id), book in sorted(shards.books.items()):
        state = coord.db.msus.get(msu_name)
        disk = state.disks.get(disk_id) if state is not None else None
        if disk is None:
            continue
        total = sum(book.spent)
        if abs(total - disk.bandwidth_used) > EPS:
            problems.append(
                f"{msu_name}/{disk_id}: shard spends sum to {total}, "
                f"central book says {disk.bandwidth_used}"
            )
    return problems


def check_takeover_latency(cluster) -> List[str]:
    """Every standby takeover landed within one report_grace window.

    The headline promise of the warm standby: leader loss to reopened
    admissions — detection plus the StateReport round trip both paths
    share — in at most ``report_grace`` seconds.
    """
    problems = []
    grace = cluster.config.recovery.report_grace
    for outcome in getattr(cluster, "takeovers", ()):
        if outcome.takeover_latency > grace + EPS:
            problems.append(
                f"takeover at t={outcome.completed_at:.3f} took "
                f"{outcome.takeover_latency:.3f}s from leader loss "
                f"(> report_grace {grace})"
            )
        if outcome.detected_at < outcome.leader_lost_at - EPS:
            problems.append(
                f"takeover at t={outcome.completed_at:.3f} detected the "
                f"leader dead at {outcome.detected_at:.3f}, before it "
                f"was lost at {outcome.leader_lost_at:.3f}"
            )
    return problems


def builtin_registry() -> InvariantRegistry:
    """The built-in invariant families, one per subsystem."""
    registry = InvariantRegistry()
    registry.register("admission-books", check_admission_books, "both")
    registry.register(
        "admission-conservation", check_admission_conservation, "drain"
    )
    registry.register("multicast-ledger", check_multicast_books, "both")
    registry.register("multicast-drain", check_multicast_drain, "drain")
    registry.register("cache-balance", check_cache_balance, "both")
    registry.register("failover-groups", check_failover_groups, "both")
    registry.register("failover-placement", check_failover_drain, "drain")
    registry.register("storage-bounds", check_allocator_bounds, "both")
    registry.register("storage-fsck", check_storage, "drain")
    registry.register("stream-deadlines", check_stream_accounting, "both")
    registry.register("stream-drain", check_streams_drained, "drain")
    registry.register("edge-books", check_edge_books, "both")
    registry.register("edge-cache-balance", check_edge_cache_balance, "both")
    registry.register("edge-drain", check_edge_drain, "drain")
    registry.register("live-ring-bounds", check_live_ring_bounds, "both")
    registry.register("live-viewers", check_live_viewers, "both")
    registry.register("live-drain", check_live_drain, "drain")
    registry.register(
        "recovery-reconciliation", check_recovery_reconciliation, "drain"
    )
    registry.register("scaleout-escrow", check_scaleout_escrow, "both")
    registry.register("scaleout-takeover", check_takeover_latency, "drain")
    return registry
