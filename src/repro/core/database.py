"""The Coordinator's administrative database (§2.2).

"The database contains information about customers, content stored on
Calliope, and resources owned by the system.  The Coordinator uses the
database to tell what MSUs are available, how many disks each one has,
and how much disk space remains unused."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ContentInUseError, UnknownContentError
from repro.recovery.parts import Part, from_image, image

__all__ = [
    "Customer",
    "ContentEntry",
    "DiskState",
    "MsuState",
    "AdminDatabase",
]


@dataclass
class Customer:
    """One authenticated user; ``admin`` gates destructive operations."""

    name: str
    admin: bool = False


@dataclass
class ContentEntry:
    """One item in the table of contents."""

    name: str
    type_name: str
    msu_name: str = ""
    disk_id: str = ""
    blocks: int = 0
    duration_us: int = 0
    #: Component content names for composite items (empty for atomic).
    components: Tuple[str, ...] = ()
    #: Additional (msu, disk) copies of this item (§2.3.3: "we can make
    #: copies of popular content on several disks").
    replicas: Tuple[Tuple[str, str], ...] = ()
    #: Cumulative play requests (drives replication decisions).
    play_count: int = 0
    #: Cumulative play *demand* — every request, including ones that were
    #: queued or blocked.  Drives prefix pinning and replication: unmet
    #: demand is precisely what those policies should relieve.
    request_count: int = 0
    #: Whether the Coordinator already asked the home MSU to pin this
    #: title's prefix in its page cache.
    prefix_pinned: bool = False
    #: (msu, disk) -> currently playing stream count.  A location with an
    #: active stream has a *leader* whose pages the interval cache can
    #: retain for a trailing viewer (cache-covered admission).
    active: Dict[Tuple[str, str], int] = field(default_factory=dict)

    @property
    def demand(self) -> int:
        """Popularity signal: admitted plays or raw requests, whichever
        is larger (requests include demand that admission turned away)."""
        return max(self.play_count, self.request_count)

    def active_at(self, location: Tuple[str, str]) -> int:
        """Streams currently playing this title from ``location``."""
        return self.active.get(location, 0)

    def note_active(self, location: Tuple[str, str], delta: int) -> None:
        """Adjust the active-stream count at one location."""
        count = self.active.get(location, 0) + delta
        if count > 0:
            self.active[location] = count
        else:
            self.active.pop(location, None)

    def locations(self) -> List[Tuple[str, str]]:
        """Every (msu, disk) holding a copy, primary first."""
        primary = [(self.msu_name, self.disk_id)] if self.msu_name else []
        return primary + [loc for loc in self.replicas if loc not in primary]

    def add_replica(self, msu_name: str, disk_id: str) -> None:
        """Record a new copy's location."""
        location = (msu_name, disk_id)
        if location not in self.locations():
            self.replicas = self.replicas + (location,)

    def active_total(self) -> int:
        """Streams currently reading this title, across every location."""
        return sum(self.active.values())


@dataclass
class DiskState:
    """Coordinator-side accounting for one MSU disk."""

    msu_name: str
    disk_id: str
    free_blocks: int
    #: Deliverable bytes/sec this disk can sustain under load; default from
    #: Table 1's combined two-disk figure (2.4 MB/s) with headroom shaved.
    bandwidth_capacity: float = 2.3e6
    bandwidth_used: float = 0.0

    def bandwidth_free(self) -> float:
        return self.bandwidth_capacity - self.bandwidth_used


@dataclass
class MsuState:
    """Coordinator-side accounting for one MSU."""

    name: str
    available: bool = True
    disks: Dict[str, DiskState] = field(default_factory=dict)
    #: Aggregate delivery-path capacity (FDDI/host path), bytes/sec; the
    #: MSU measured 4.7 MB/s combined in Table 1, ~90 % usable (§3.2.1).
    delivery_capacity: float = 4.2e6
    delivery_used: float = 0.0
    active_streams: int = 0
    #: Bytes/sec the MSU's page cache can serve (0 = no cache installed);
    #: advertised in MsuHello, consumed by cache-covered admissions.
    cache_capacity: float = 0.0
    cache_used: float = 0.0
    #: Latest CacheReport figures (zeros until the first report lands).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes_served: int = 0
    cache_slots_saved: int = 0
    cache_pool_used: int = 0
    cache_pool_capacity: int = 0

    def delivery_free(self) -> float:
        return self.delivery_capacity - self.delivery_used

    def cache_free(self) -> float:
        return self.cache_capacity - self.cache_used


def _msu_image(state: MsuState) -> dict:
    """Snapshot image of one MSU's books (its cache statistics are not kept)."""
    return {
        "name": state.name,
        "available": state.available,
        "delivery_capacity": state.delivery_capacity,
        "delivery_used": state.delivery_used,
        "active_streams": state.active_streams,
        "cache_capacity": state.cache_capacity,
        "cache_used": state.cache_used,
        "disks": [
            {
                "disk_id": disk.disk_id,
                "free_blocks": disk.free_blocks,
                "bandwidth_capacity": disk.bandwidth_capacity,
                "bandwidth_used": disk.bandwidth_used,
            }
            for _, disk in sorted(state.disks.items())
        ],
    }


def _msu_from_image(data: dict) -> MsuState:
    state = MsuState(data["name"])
    state.available = data.get("available", True)
    state.delivery_capacity = data.get("delivery_capacity", state.delivery_capacity)
    state.delivery_used = data.get("delivery_used", 0.0)
    state.active_streams = data.get("active_streams", 0)
    state.cache_capacity = data.get("cache_capacity", 0.0)
    state.cache_used = data.get("cache_used", 0.0)
    for disk_data in data.get("disks", ()):
        disk = DiskState(
            state.name,
            disk_data["disk_id"],
            disk_data["free_blocks"],
            bandwidth_capacity=disk_data.get("bandwidth_capacity", 2.3e6),
        )
        disk.bandwidth_used = disk_data.get("bandwidth_used", 0.0)
        state.disks[disk.disk_id] = disk
    return state


class AdminDatabase(Part):
    """Customers, contents and resources."""

    SECTIONS = ("customers", "contents", "msus")

    def __init__(self):
        self.customers: Dict[str, Customer] = {}
        self.contents: Dict[str, ContentEntry] = {}
        self.msus: Dict[str, MsuState] = {}
        #: Recovery hook: ``callback(kind, payload)`` fired after every
        #: database mutation so the Coordinator's write-ahead log can
        #: replay them on restart (repro.recovery).  None disables it.
        self.on_journal: Optional[Callable[[str, dict], None]] = None

    def _journal(self, kind: str, payload: dict) -> None:
        if self.on_journal is not None:
            self.on_journal(kind, payload)

    # -- customers -----------------------------------------------------------

    def add_customer(self, name: str, admin: bool = False) -> Customer:
        customer = Customer(name, admin)
        self.customers[name] = customer
        self._journal("customer-add", {"name": name, "admin": admin})
        return customer

    def authenticate(self, name: str) -> Optional[Customer]:
        return self.customers.get(name)

    # -- contents ------------------------------------------------------------

    def add_content(self, entry: ContentEntry) -> None:
        self.contents[entry.name] = entry
        self._journal("content-add", {"entry": image(entry)})

    def content(self, name: str) -> ContentEntry:
        try:
            return self.contents[name]
        except KeyError:
            raise UnknownContentError(f"no content named {name!r}") from None

    def remove_content(self, name: str) -> ContentEntry:
        entry = self.content(name)
        active = entry.active_total()
        if active:
            raise ContentInUseError(
                f"content {name!r} has {active} active reader(s)"
            )
        del self.contents[name]
        self._journal("content-remove", {"name": name})
        return entry

    def add_replica(self, name: str, msu_name: str, disk_id: str) -> ContentEntry:
        """Record a new copy of ``name`` at (msu, disk), journaled."""
        entry = self.content(name)
        entry.add_replica(msu_name, disk_id)
        self._journal(
            "content-replica",
            {"name": name, "msu_name": msu_name, "disk_id": disk_id},
        )
        return entry

    def listing(self) -> List[Tuple[str, str]]:
        """(name, type) pairs for the table of contents, name-sorted."""
        return [(n, self.contents[n].type_name) for n in sorted(self.contents)]

    def note_request(self, name: str) -> None:
        """Count one play request against a title (admitted or not)."""
        entry = self.content(name)
        entry.request_count += 1
        self._journal("note-request", {"name": name})

    def note_played(self, name: str, count: int = 1) -> ContentEntry:
        """Count ``count`` admitted plays against a title, journaled."""
        entry = self.content(name)
        entry.play_count += count
        self._journal("content-played", {"name": name, "count": count})
        return entry

    # -- resources ------------------------------------------------------------

    def register_msu(
        self, name: str, disks: List[Tuple[str, int]], cache_bps: float = 0.0
    ) -> MsuState:
        """Add or re-activate an MSU (MsuHello handling, §2.2)."""
        state = self.msus.get(name)
        if state is None:
            state = MsuState(name)
            self.msus[name] = state
        state.available = True
        state.cache_capacity = cache_bps
        state.cache_used = 0.0
        for disk_id, free_blocks in disks:
            disk = state.disks.get(disk_id)
            if disk is None:
                state.disks[disk_id] = DiskState(name, disk_id, free_blocks)
            else:
                disk.free_blocks = free_blocks
        self._journal(
            "msu-register",
            {
                "name": name,
                "disks": [[disk_id, free] for disk_id, free in disks],
                "cache_bps": cache_bps,
            },
        )
        return state

    def mark_msu_down(self, name: str) -> None:
        """Take a failed MSU out of the scheduling database (§2.2)."""
        if name in self.msus:
            self.msus[name].available = False
        self.clear_active(name)
        # Its page cache died with it: any prefix pinned there is gone and
        # must be re-requested once the title runs hot again.
        for entry in self.contents.values():
            if entry.prefix_pinned and entry.msu_name == name:
                entry.prefix_pinned = False
        self._journal("msu-down", {"name": name})

    def clear_active(self, msu_name: str) -> None:
        """Forget active-stream counts on one MSU (its streams died)."""
        for entry in self.contents.values():
            for location in list(entry.active):
                if location[0] == msu_name:
                    del entry.active[location]

    def available_msus(self) -> List[MsuState]:
        return [s for s in self.msus.values() if s.available]

    def disk(self, msu_name: str, disk_id: str) -> DiskState:
        return self.msus[msu_name].disks[disk_id]

    def adjust_free_blocks(self, msu_name: str, disk_id: str, delta: int) -> None:
        """Credit/debit a disk's free-block count, journaled.

        Used outside the admission charge path: replication copies consume
        space, content deletion returns it.
        """
        state = self.msus.get(msu_name)
        disk = state.disks.get(disk_id) if state is not None else None
        if disk is not None:
            disk.free_blocks = max(0, disk.free_blocks + delta)
        self._journal(
            "disk-adjust",
            {"msu_name": msu_name, "disk_id": disk_id, "delta": delta},
        )

    # -- persistence (repro.recovery.parts) -----------------------------------

    def snapshot(self) -> dict:
        return {
            "customers": [image(c) for _, c in sorted(self.customers.items())],
            "contents": [image(e) for _, e in sorted(self.contents.items())],
            "msus": [_msu_image(s) for _, s in sorted(self.msus.items())],
        }

    def load(self, state: dict) -> None:
        self.customers.clear()
        for data in state.get("customers") or ():
            self.customers[data["name"]] = from_image(Customer, data)
        self.contents.clear()
        for data in state.get("contents") or ():
            entry = from_image(ContentEntry, data)
            self.contents[entry.name] = entry
        self.msus.clear()
        for data in state.get("msus") or ():
            msu = _msu_from_image(data)
            self.msus[msu.name] = msu

    def reconcile(self, by_msu: dict, outcome) -> None:
        """Free blocks come from the MSU allocators, title sizes from
        their files, pins from their caches."""
        for report in by_msu.values():
            state = self.msus.get(report.msu_name)
            if state is None:
                self.register_msu(
                    report.msu_name,
                    [(disk_id, free) for disk_id, free in report.disks],
                    report.cache_bps,
                )
                continue
            state.available = True
            state.cache_capacity = report.cache_bps
            for disk_id, free in report.disks:
                disk = state.disks.get(disk_id)
                if disk is not None:
                    disk.free_blocks = free
        # A title is pinned iff its home MSU's cache says so, and holds
        # the blocks its file there does (a recording that ended while
        # the Coordinator was down never reported its size).
        for report in by_msu.values():
            pinned = {
                (disk_id, content)
                for disk_id, content, pages in report.pins
                if pages > 0
            }
            sizes = {
                (disk_id, name): blocks for disk_id, name, blocks in report.files
            }
            for entry in self.contents.values():
                if entry.msu_name != report.msu_name:
                    continue
                key = (entry.disk_id, entry.name)
                entry.blocks = sizes.get(key, entry.blocks)
                if entry.prefix_pinned and key not in pinned:
                    entry.prefix_pinned = False
                    outcome.pins_reset += 1
                    outcome.discrepancies.append(
                        f"{report.msu_name}: prefix of {entry.name!r} not "
                        f"pinned; flag reset"
                    )
                elif not entry.prefix_pinned and key in pinned:
                    entry.prefix_pinned = True

    def _replay_replica(self, p: dict) -> None:
        entry = self.contents.get(p["name"])
        if entry is not None:
            entry.add_replica(p["msu_name"], p["disk_id"])

    def _replay_requested(self, p: dict) -> None:
        entry = self.contents.get(p["name"])
        if entry is not None:
            entry.request_count += 1

    def _replay_played(self, p: dict) -> None:
        entry = self.contents.get(p["name"])
        if entry is not None:
            entry.play_count += p.get("count", 1)

    def _replay_pinned(self, p: dict) -> None:
        entry = self.contents.get(p["name"])
        if entry is not None:
            entry.prefix_pinned = True

    REPLAY = {
        "customer-add": lambda db, p: db.add_customer(
            p["name"], p.get("admin", False)
        ),
        "content-add": lambda db, p: db.add_content(
            from_image(ContentEntry, p["entry"])
        ),
        "content-remove": lambda db, p: db.contents.pop(p["name"], None),
        "content-replica": _replay_replica,
        "note-request": _replay_requested,
        "content-played": _replay_played,
        "msu-register": lambda db, p: db.register_msu(
            p["name"],
            [(disk_id, free) for disk_id, free in p.get("disks", ())],
            p.get("cache_bps", 0.0),
        ),
        "msu-down": lambda db, p: db.mark_msu_down(p["name"]),
        "disk-adjust": lambda db, p: db.adjust_free_blocks(
            p["msu_name"], p["disk_id"], p["delta"]
        ),
        "prefix-pin": _replay_pinned,
    }
