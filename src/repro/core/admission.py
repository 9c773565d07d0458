"""Admission control and the scheduling queue (§2.2).

"When Calliope receives a read request, the Coordinator finds an MSU with
a disk that both contains the requested content and has enough bandwidth
available to satisfy the request. ... If a client's request cannot be
satisfied, the Coordinator queues the request until an MSU with the
necessary resources becomes available."

For recording the Coordinator must find disk *space* as well as bandwidth,
sized from the client's length estimate and the content type's storage
consumption rate; unused space returns when the recording completes.

While the cluster is missing an MSU the queue stops being plain FIFO.
Three bands, most urgent first:

``PRIORITY_RESUME``       interrupted streams waiting for a replica or a
                          freed slot — a viewer is staring at a frozen
                          frame right now.
``PRIORITY_SINGLE_COPY``  new requests for titles whose only live copy
                          competes for scarce surviving capacity.
``PRIORITY_NORMAL``       everything else.

The band is computed at enqueue time from the admin database's view of
live copies; :meth:`AdmissionControl.enqueue` keeps the queue sorted so
the Coordinator's ``_retry_queue`` drain order is the priority order.
A :class:`ResumeTicket` is the queued form of a playback group that an
MSU failure interrupted (repro.failover's migrator builds them).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from repro.core.database import AdminDatabase, ContentEntry, DiskState, MsuState
from repro.media.content import ContentType
from repro.net import messages as m
from repro.recovery.parts import Part, from_image, image

__all__ = [
    "Allocation",
    "AdmissionControl",
    "QueuedRequest",
    "StreamMeta",
    "MemberResume",
    "ResumeTicket",
    "PRIORITY_RESUME",
    "PRIORITY_SINGLE_COPY",
    "PRIORITY_NORMAL",
    "live_locations",
    "is_degraded",
    "play_priority",
]

PRIORITY_RESUME = 0
PRIORITY_SINGLE_COPY = 1
PRIORITY_NORMAL = 2


def live_locations(db, entry) -> List[Tuple[str, str]]:
    """The entry's (msu, disk) copies hosted on MSUs still marked up."""
    out = []
    for msu_name, disk_id in entry.locations():
        state = db.msus.get(msu_name)
        if state is not None and state.available:
            out.append((msu_name, disk_id))
    return out


def is_degraded(db) -> bool:
    """True while any registered MSU is marked down."""
    return any(not state.available for state in db.msus.values())


def play_priority(db, entry) -> int:
    """Queue band for a new play request on ``entry``."""
    if is_degraded(db) and len(live_locations(db, entry)) <= 1:
        return PRIORITY_SINGLE_COPY
    return PRIORITY_NORMAL


@dataclass(frozen=True)
class StreamMeta:
    """What the Coordinator must remember per stream to re-place it."""

    content_name: str
    type_name: str
    display_address: Tuple[str, int]


@dataclass(frozen=True)
class MemberResume:
    """One stream of a ticket: identity plus where to pick it back up."""

    stream_id: int
    content_name: str
    type_name: str
    display_address: Tuple[str, int]
    start_page: int = 0
    start_us: int = 0


@dataclass(frozen=True)
class ResumeTicket:
    """A playback group orphaned by an MSU failure."""

    group_id: int
    session_id: int
    client_host: str
    from_msu: str
    members: Tuple[MemberResume, ...]
    failed_at: float


@dataclass
class Allocation:
    """Resources granted to one stream: undo-able bookkeeping."""

    msu_name: str
    disk_id: str
    bandwidth: float
    reserved_blocks: int = 0
    #: Content the stream plays (release decrements its active count).
    content_name: str = ""
    #: True when the grant charges the MSU's cache budget instead of the
    #: disk's raw bandwidth (an interval-cache leader covers the stream).
    cache_covered: bool = False
    #: Non-empty when the grant rides the zero-disk-cost edge lane: the
    #: charge lands on this edge proxy's uplink book and touches no MSU
    #: resource at all (``msu_name``/``disk_id`` are then empty).
    edge_name: str = ""


@dataclass
class QueuedRequest:
    """A request parked until resources free up (§2.2)."""

    kind: str  # "play", "record" or "resume"
    session_id: int
    message: object
    #: The requester's control channel; None once it died with a crash.
    channel: object
    #: Degraded-mode band (``PRIORITY_*`` above); lower drains first.
    priority: int = PRIORITY_NORMAL
    #: Durable identity in the recovery journal (0 = never journaled).
    ticket_id: int = 0


#: The messages a parked ticket can carry, by their journal tag.
_TICKET_MESSAGES = {
    "play-request": m.PlayRequest,
    "record-request": m.RecordRequest,
    "resume-ticket": ResumeTicket,
}
_TICKET_TAGS = {cls: tag for tag, cls in _TICKET_MESSAGES.items()}


def _ticket_image(request: QueuedRequest) -> dict:
    return {
        "ticket_id": request.ticket_id,
        "kind": request.kind,
        "session_id": request.session_id,
        "priority": request.priority,
        "message": {
            "type": _TICKET_TAGS[type(request.message)],
            **image(request.message),
        },
    }


def _ticket_from_image(data: dict) -> QueuedRequest:
    message = dict(data["message"])
    cls = _TICKET_MESSAGES[message.pop("type")]
    return QueuedRequest(
        data["kind"], data["session_id"], from_image(cls, message),
        None,  # the requester's connection died with the crash
        priority=data.get("priority", PRIORITY_NORMAL),
        ticket_id=data.get("ticket_id", 0),
    )


class AdmissionControl(Part):
    """Bandwidth/space accounting over the admin database."""

    SECTIONS = ("queue", "counters")

    def __init__(self, db: AdminDatabase, block_size: int):
        self.db = db
        self.block_size = block_size
        #: Requests waiting for resources (the paper's scheduling queue).
        self.queue: Deque = deque()
        #: Journal identity of the next parked ticket.
        self.next_ticket = 1
        self.admitted = 0
        self.queued = 0
        self.rejected = 0
        #: Admissions served from an MSU page cache rather than a disk
        #: slot (the popularity-aware second chance of place_read).
        self.cache_admitted = 0
        #: Grants that rode the zero-disk-cost edge lane.
        self.edge_admitted = 0
        #: The edge tier's uplink books (a PlacementManager when edges
        #: are configured): must expose ``charge``/``release``/``feasible``.
        #: None means no edge tier — place_edge then always declines.
        self.edge_books = None
        #: Recovery hook: ``callback(kind, payload)`` fired for every
        #: charge/release so the write-ahead log can replay the books
        #: mutation-for-mutation on restart.  None disables it.
        self.on_journal: Optional[Callable[[str, dict], None]] = None
        #: Books observer (repro.scaleout's escrowed ShardSet): duck type
        #: with ``on_charge(alloc)``/``on_release(alloc)``/
        #: ``on_release_msu(name)``, called in lockstep with every disk
        #: bandwidth mutation so a sharded escrow split stays an exact
        #: decomposition of these books.  None disables it.
        self.observer = None

    def _journal(self, kind: str, payload: dict) -> None:
        if self.on_journal is not None:
            self.on_journal(kind, payload)

    # -- queueing -----------------------------------------------------------

    def enqueue(self, request) -> None:
        """Park a request, keeping the queue sorted by priority band.

        ``request.priority`` (default normal) orders the queue: resume
        tickets of interrupted streams drain first, then degraded-mode
        single-copy requests, then everything else.  Within a band the
        order stays FIFO, which is the paper's behavior when no failure
        is in progress (every request is then normal priority).
        """
        priority = getattr(request, "priority", 2)
        index = len(self.queue)
        for i, queued in enumerate(self.queue):
            if getattr(queued, "priority", 2) > priority:
                index = i
                break
        self.queue.insert(index, request)
        self.queued += 1

    def park(self, request: QueuedRequest) -> None:
        """Enqueue ``request`` as a durable (journaled) ticket."""
        request.ticket_id = self.next_ticket
        self.next_ticket += 1
        self.enqueue(request)
        self._journal("ticket-add", _ticket_image(request))

    # -- placement ----------------------------------------------------------

    def place_read(
        self,
        entry: ContentEntry,
        ctype: ContentType,
        msu_pin: Optional[str] = None,
        allow_cache: bool = True,
    ) -> Optional[Allocation]:
        """Admit a playback of ``entry``; None when resources are short.

        Each copy of the content lives wholly on one disk (no striping);
        with replicas present the least-loaded feasible copy is used.
        ``msu_pin`` restricts placement to one MSU — composite members
        must share a machine (§2.2).

        When no copy has raw disk bandwidth left, a *cache-covered*
        second chance applies (extension): a location where the title is
        already playing has an interval-cache leader whose retained pages
        can serve a trailing stream, so the grant charges the MSU's
        advertised cache bandwidth instead of the exhausted disk.  This
        is what lets popular content exceed its home disk's duty-cycle
        capacity without a replica.
        """
        rate = ctype.bandwidth_rate
        best = None
        best_cached = None
        for msu_name, disk_id in entry.locations():
            if msu_pin is not None and msu_name != msu_pin:
                continue
            state = self.db.msus.get(msu_name)
            if state is None or not state.available:
                continue
            disk = state.disks.get(disk_id)
            if disk is None:
                continue
            if state.delivery_free() < rate:
                continue
            if disk.bandwidth_free() >= rate:
                load = disk.bandwidth_used / disk.bandwidth_capacity
                if best is None or load < best[0]:
                    best = (load, state, disk)
            elif (
                allow_cache
                and state.cache_free() >= rate
                and entry.active_at((msu_name, disk_id)) > 0
            ):
                cache_load = state.cache_used / state.cache_capacity
                if best_cached is None or cache_load < best_cached[0]:
                    best_cached = (cache_load, state, disk)
        cache_covered = False
        if best is None:
            if best_cached is None:
                return None
            best = best_cached
            cache_covered = True
        _, state, disk = best
        if cache_covered:
            self.cache_admitted += 1
        self.admitted += 1
        return self.apply(
            Allocation(
                state.name, disk.disk_id, rate,
                content_name=entry.name, cache_covered=cache_covered,
            )
        )

    def place_channel(
        self,
        entry: ContentEntry,
        ctype: ContentType,
        msu_pin: Optional[str] = None,
    ) -> Optional[Allocation]:
        """Admit a multicast channel: one real disk slot, one delivery flow.

        A channel is the *leader* every later cache/patch grant leans on,
        so it must own raw disk bandwidth — the cache-covered second
        chance of :meth:`place_read` does not apply.
        """
        return self.place_read(entry, ctype, msu_pin=msu_pin, allow_cache=False)

    def place_patch(
        self,
        entry: ContentEntry,
        ctype: ContentType,
        msu_name: str,
        disk_id: str,
        prefix_covered: bool = False,
    ) -> Optional[Allocation]:
        """Admit a late joiner's bounded patch on the channel's MSU/disk.

        The patch is a short unicast flow of the title's opening pages.
        When the prefix cache pins those pages (``prefix_covered``) the
        charge lands on the MSU's cache budget and costs no disk slot;
        otherwise it takes disk bandwidth like any read, with the usual
        interval-cache second chance (the channel itself is an active
        leader on this location).  Either way the patch occupies a
        delivery-network flow until it drains and is refunded.
        """
        rate = ctype.bandwidth_rate
        state = self.db.msus.get(msu_name)
        if state is None or not state.available:
            return None
        disk = state.disks.get(disk_id)
        if disk is None or state.delivery_free() < rate:
            return None
        cache_covered = False
        if prefix_covered and state.cache_free() >= rate:
            cache_covered = True
        elif disk.bandwidth_free() >= rate:
            cache_covered = False
        elif (
            state.cache_free() >= rate
            and entry.active_at((msu_name, disk_id)) > 0
        ):
            cache_covered = True
        else:
            return None
        if cache_covered:
            self.cache_admitted += 1
        self.admitted += 1
        return self.apply(
            Allocation(
                msu_name, disk_id, rate,
                content_name=entry.name, cache_covered=cache_covered,
            )
        )

    def place_edge(
        self,
        entry: ContentEntry,
        ctype: ContentType,
        edge_name: str,
    ) -> Optional[Allocation]:
        """Admit an edge-covered serve: the zero-disk-cost lane.

        The grant charges the edge proxy's uplink only — no MSU disk
        slot, no MSU delivery flow, no cache budget, and deliberately no
        ``note_active`` bump (the edge holds no interval-cache leader a
        follower could trail on a disk).  It still flows through
        :meth:`apply`/:meth:`release`, so the journal, replay and audits
        see it like any other grant.
        """
        if self.edge_books is None:
            return None
        rate = ctype.bandwidth_rate
        if not self.edge_books.feasible(edge_name, rate):
            return None
        self.edge_admitted += 1
        return self.apply(
            Allocation(
                "", "", rate, content_name=entry.name, edge_name=edge_name
            )
        )

    def charge_direct(
        self,
        entry: Optional[ContentEntry],
        rate: float,
        msu_name: str,
        disk_id: str,
    ) -> Allocation:
        """Charge a unicast slot without a feasibility check.

        Used when a viewer *downgrades* from a multicast channel to a
        private stream: the MSU is already delivering to them, so the
        books must follow the stream even if it briefly overcommits the
        disk (the duty cycle absorbs it; admission stops new entrants).
        """
        name = entry.name if entry is not None else ""
        return self.apply(Allocation(msu_name, disk_id, rate, content_name=name))

    def place_record(
        self,
        ctype: ContentType,
        estimate_seconds: float,
        msu_name: Optional[str] = None,
    ) -> Optional[Allocation]:
        """Admit a recording: needs bandwidth *and* estimated disk space.

        Picks the least-loaded (by bandwidth) qualifying disk; pinning
        ``msu_name`` supports composite recordings whose members must land
        on the same MSU (§2.2).
        """
        rate = ctype.bandwidth_rate
        blocks = self.estimate_blocks(ctype, estimate_seconds)
        best: Optional[Tuple[float, MsuState, DiskState]] = None
        for state in self.db.available_msus():
            if msu_name is not None and state.name != msu_name:
                continue
            if state.delivery_free() < rate:
                continue
            for disk in state.disks.values():
                if disk.bandwidth_free() < rate or disk.free_blocks < blocks:
                    continue
                load = disk.bandwidth_used / disk.bandwidth_capacity
                if best is None or load < best[0]:
                    best = (load, state, disk)
        if best is None:
            return None
        _, state, disk = best
        self.admitted += 1
        return self.apply(
            Allocation(state.name, disk.disk_id, rate, reserved_blocks=blocks)
        )

    def estimate_blocks(self, ctype: ContentType, estimate_seconds: float) -> int:
        """Disk blocks a recording of this type/length will consume (§2.2)."""
        nbytes = ctype.storage_rate * max(0.0, estimate_seconds)
        return max(1, math.ceil(nbytes / self.block_size)) + 1  # +1 trailer

    # -- charge / release --------------------------------------------------------

    def apply(self, alloc: Allocation, reserve_blocks: bool = True) -> Allocation:
        """Charge ``alloc`` to the books — the exact inverse of release.

        The placement methods above decide *what* to grant; this is the
        single point where a grant lands on the books, so the recovery
        journal observes every charge and can replay it verbatim on a
        Coordinator restart.  ``reserve_blocks=False`` skips the recording
        space debit — the reconciliation path rebuilds free-block counts
        from MSU allocator truth instead.

        Edge-lane grants (``alloc.edge_name``) touch no MSU book: the
        whole charge routes to the edge tier's uplink accounting.
        """
        if alloc.edge_name:
            if self.edge_books is not None:
                self.edge_books.charge(alloc)
            self._journal("charge", {"alloc": image(alloc)})
            return alloc
        if self.observer is not None:
            # Before any book mutation: the escrow may journal grant/steal
            # records, and a snapshot triggered by those appends must not
            # capture a half-applied charge.
            self.observer.on_charge(alloc)
        if alloc.content_name:
            entry = self.db.contents.get(alloc.content_name)
            if entry is not None:
                entry.note_active((alloc.msu_name, alloc.disk_id), +1)
        state = self.db.msus.get(alloc.msu_name)
        if state is not None:
            state.delivery_used += alloc.bandwidth
            state.active_streams += 1
            if alloc.cache_covered:
                state.cache_used += alloc.bandwidth
            disk = state.disks.get(alloc.disk_id)
            if disk is not None:
                if not alloc.cache_covered:
                    disk.bandwidth_used += alloc.bandwidth
                if alloc.reserved_blocks and reserve_blocks:
                    disk.free_blocks -= alloc.reserved_blocks
        self._journal("charge", {"alloc": image(alloc)})
        return alloc

    def release(self, alloc: Allocation, blocks_used: int = 0) -> None:
        """Return a stream's resources (and a recording's unused space).

        The journal append comes *after* the books move (like ``apply``):
        the append may trigger a snapshot install, and a snapshot taken
        mid-release would capture still-charged books while truncating
        the very record that undoes them.
        """
        if alloc.edge_name:
            if self.edge_books is not None:
                self.edge_books.release(alloc)
        else:
            if self.observer is not None:
                self.observer.on_release(alloc)
            self._release_books(alloc, blocks_used)
        self._journal(
            "release",
            {"alloc": image(alloc), "blocks_used": blocks_used},
        )

    def _release_books(self, alloc: Allocation, blocks_used: int) -> None:
        if alloc.content_name:
            entry = self.db.contents.get(alloc.content_name)
            if entry is not None:
                entry.note_active((alloc.msu_name, alloc.disk_id), -1)
        state = self.db.msus.get(alloc.msu_name)
        if state is None:
            return
        state.delivery_used = max(0.0, state.delivery_used - alloc.bandwidth)
        state.active_streams = max(0, state.active_streams - 1)
        if alloc.cache_covered:
            state.cache_used = max(0.0, state.cache_used - alloc.bandwidth)
        disk = state.disks.get(alloc.disk_id)
        if disk is not None:
            if not alloc.cache_covered:
                disk.bandwidth_used = max(
                    0.0, disk.bandwidth_used - alloc.bandwidth
                )
            if alloc.reserved_blocks:
                unused = max(0, alloc.reserved_blocks - blocks_used)
                disk.free_blocks += unused

    # -- audit ------------------------------------------------------------------

    def audit(self, eps: float = 1e-6) -> list:
        """Book-keeping anomalies that must never occur, as strings.

        These are the one-sided safety checks that hold at *any* instant:
        no book may go negative, active-stream counters may not underflow,
        and the cache budget may not overcommit (unlike disk bandwidth,
        which ``charge_direct`` may deliberately overcommit during a
        channel downgrade).  Exact conservation against live allocations
        is only meaningful at drain and lives with the caller.
        """
        problems = []
        for state in self.db.msus.values():
            if state.delivery_used < -eps:
                problems.append(
                    f"{state.name}: delivery_used {state.delivery_used} < 0"
                )
            if state.cache_used < -eps:
                problems.append(f"{state.name}: cache_used {state.cache_used} < 0")
            if state.cache_used > state.cache_capacity + eps:
                problems.append(
                    f"{state.name}: cache_used {state.cache_used} exceeds "
                    f"capacity {state.cache_capacity}"
                )
            if state.active_streams < 0:
                problems.append(
                    f"{state.name}: active_streams {state.active_streams} < 0"
                )
            for disk in state.disks.values():
                if disk.bandwidth_used < -eps:
                    problems.append(
                        f"{state.name}/{disk.disk_id}: bandwidth_used "
                        f"{disk.bandwidth_used} < 0"
                    )
                if disk.free_blocks < 0:
                    problems.append(
                        f"{state.name}/{disk.disk_id}: free_blocks "
                        f"{disk.free_blocks} < 0"
                    )
        for entry in self.db.contents.values():
            for location, count in entry.active.items():
                if count < 0:
                    problems.append(
                        f"content {entry.name!r}: active count {count} < 0 "
                        f"at {location}"
                    )
        if self.edge_books is not None:
            for view in self.edge_books.edges.values():
                if view.uplink_used < -eps:
                    problems.append(
                        f"edge {view.name}: uplink_used {view.uplink_used} < 0"
                    )
                if view.attached and view.uplink_used > view.uplink_bps + eps:
                    problems.append(
                        f"edge {view.name}: uplink_used {view.uplink_used} "
                        f"exceeds capacity {view.uplink_bps}"
                    )
        return problems

    def release_msu(self, msu_name: str) -> None:
        """Zero the accounting of a failed MSU (its streams died with it)."""
        state = self.db.msus.get(msu_name)
        if state is None:
            return
        if self.observer is not None:
            self.observer.on_release_msu(msu_name)
        state.delivery_used = 0.0
        state.active_streams = 0
        state.cache_used = 0.0
        for disk in state.disks.values():
            disk.bandwidth_used = 0.0
        self.db.clear_active(msu_name)
        # Journaled after the wipe, like release(): a snapshot install
        # triggered by this append must observe the zeroed books.
        self._journal("release-msu", {"name": msu_name})

    # -- persistence (repro.recovery.parts) -----------------------------------

    def snapshot(self) -> dict:
        return {
            "queue": [_ticket_image(request) for request in self.queue],
            "counters": {
                "next_ticket": self.next_ticket,
                "admitted": self.admitted,
                "queued": self.queued,
                "rejected": self.rejected,
                "cache_admitted": self.cache_admitted,
                "edge_admitted": self.edge_admitted,
            },
        }

    def load(self, state: dict) -> None:
        self.queue.clear()
        for data in state.get("queue") or ():
            self.queue.append(_ticket_from_image(data))
        counters = state.get("counters") or {}
        self.next_ticket = counters.get("next_ticket", 1)
        self.admitted = counters.get("admitted", 0)
        self.queued = counters.get("queued", 0)
        self.rejected = counters.get("rejected", 0)
        self.cache_admitted = counters.get("cache_admitted", 0)
        self.edge_admitted = counters.get("edge_admitted", 0)

    def _replay_ticket_add(self, p: dict) -> None:
        request = _ticket_from_image(p)
        self.enqueue(request)
        self.next_ticket = max(self.next_ticket, request.ticket_id + 1)

    def _replay_ticket_remove(self, p: dict) -> None:
        for request in list(self.queue):
            if getattr(request, "ticket_id", 0) == p["ticket_id"]:
                self.queue.remove(request)
                break

    REPLAY = {
        "charge": lambda books, p: books.apply(from_image(Allocation, p["alloc"])),
        "release": lambda books, p: books.release(
            from_image(Allocation, p["alloc"]), p.get("blocks_used", 0)
        ),
        "release-msu": lambda books, p: books.release_msu(p["name"]),
        "ticket-add": _replay_ticket_add,
        "ticket-remove": _replay_ticket_remove,
    }
