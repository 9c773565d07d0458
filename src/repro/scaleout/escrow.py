"""Escrowed per-disk bandwidth books for sharded admission.

A single Coordinator keeps one ``bandwidth_used`` figure per disk and
every admission serializes through it.  To let N coordinator shards
admit in parallel without double-spending a disk slot, the classic
escrow transaction recipe splits each disk's bandwidth budget three
ways:

* ``granted[s]`` — the escrow slice shard ``s`` may spend without
  talking to anyone.  Grants only move through two journaled
  operations, ``shard-grant`` (bank -> shard) and ``shard-steal``
  (shard -> shard), so the split itself is crash-durable.
* ``spent[s]`` — what shard ``s`` has actually charged.  Never
  journaled on its own: every spend is paired with the admission
  ``charge`` record that caused it, and replaying the charge re-derives
  the spend (:meth:`ShardSet.on_charge` runs during WAL replay too).
* the **bank** — the unescrowed remainder,
  ``capacity - sum(granted)``.  Always derived, never stored.

A shard whose slice runs dry refills from the bank in quanta (to
amortize the journaled grant), then **steals** from the richest sibling
— the imbalance protocol from the "Scalable Distributed VoD" placement
math.  Stealing needs the victim's cooperation, so a *partitioned*
shard neither admits nor yields escrow until healed.

Conservation is the whole point and is checked continuously by the
chaos harness (``scaleout-escrow`` invariant):

* ``sum(granted) + bank == capacity`` with ``bank >= 0``;
* ``sum(spent) == disk.bandwidth_used`` — exact attribution;
* ``spent[s] <= granted[s]`` except under genuine exhaustion (the
  deliberate ``charge_direct`` overcommit during channel downgrades),
  mirroring the central books' one-sided audit.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.recovery.parts import Part

__all__ = ["EscrowBook", "ShardSet", "shard_for"]

EPS = 1e-6


def shard_for(content_name: str, n_shards: int) -> int:
    """Stable content -> shard routing (crc32: deterministic across runs)."""
    if n_shards <= 1:
        return 0
    return zlib.crc32(content_name.encode("utf-8")) % n_shards


class EscrowBook:
    """Escrow state for one disk: per-shard granted/spent slices."""

    __slots__ = ("msu_name", "disk_id", "capacity", "granted", "spent")

    def __init__(self, msu_name: str, disk_id: str, capacity: float, n: int):
        self.msu_name = msu_name
        self.disk_id = disk_id
        self.capacity = capacity
        self.granted: List[float] = [0.0] * n
        self.spent: List[float] = [0.0] * n

    def bank_free(self) -> float:
        return self.capacity - sum(self.granted)

    def free(self, shard: int) -> float:
        return self.granted[shard] - self.spent[shard]


class ShardSet(Part):
    """N admission shards over one AdminDatabase's disk books.

    The set lives inside whichever Coordinator currently leads; the
    ``journal`` callable is the leader's ``_journal`` so escrow moves
    land in the same WAL as the charges they authorize.  ``replaying``
    suppresses refill/steal/journal while a snapshot+WAL is being
    applied (grants arrive as replayed records, strictly before the
    charges that spend them).
    """

    SECTIONS = ("shards",)

    def __init__(
        self,
        db,
        n_shards: int,
        refill_fraction: float = 0.25,
        service_time: float = 0.0,
    ):
        self.db = db
        self.n = max(1, n_shards)
        self.refill_fraction = refill_fraction
        #: Simulated seconds one shard needs to process one admission
        #: (0 models the decision as free; E24 sets it to measure the
        #: parallel-admission speedup).
        self.service_time = service_time
        self.books: Dict[Tuple[str, str], EscrowBook] = {}
        self.partitioned: set = set()
        self.replaying = False
        #: Leader journal hook; None while shadowing (standby applies
        #: records, it never originates them).
        self.journal: Optional[Callable[[str, dict], None]] = None
        # Counters (experiments / tests read these).
        self.grants = 0
        self.steals = 0
        self.overdrafts = 0
        self._busy_until: List[float] = [0.0] * self.n

    # -- routing ---------------------------------------------------------------

    def shard_for(self, content_name: str) -> int:
        return shard_for(content_name, self.n)

    def is_partitioned(self, shard: int) -> bool:
        return shard in self.partitioned

    def partition(self, shard: int) -> None:
        if 0 <= shard < self.n:
            self.partitioned.add(shard)

    def heal(self, shard: int) -> None:
        self.partitioned.discard(shard)

    # -- book lookup -----------------------------------------------------------

    def _book(self, msu_name: str, disk_id: str) -> Optional[EscrowBook]:
        key = (msu_name, disk_id)
        book = self.books.get(key)
        if book is None:
            state = self.db.msus.get(msu_name)
            disk = state.disks.get(disk_id) if state is not None else None
            if disk is None:
                return None
            book = EscrowBook(
                msu_name, disk_id, disk.bandwidth_capacity, self.n
            )
            self.books[key] = book
        return book

    # -- escrow protocol -------------------------------------------------------

    def _quantum(self, book: EscrowBook, need: float) -> float:
        return max(need, book.capacity * self.refill_fraction / self.n)

    def _grant(self, book: EscrowBook, shard: int, amount: float) -> None:
        book.granted[shard] += amount
        self.grants += 1
        if self.journal is not None:
            self.journal(
                "shard-grant",
                {
                    "shard": shard,
                    "msu": book.msu_name,
                    "disk": book.disk_id,
                    "amount": amount,
                },
            )

    def _steal(
        self, book: EscrowBook, shard: int, victim: int, amount: float
    ) -> None:
        book.granted[victim] -= amount
        book.granted[shard] += amount
        self.steals += 1
        if self.journal is not None:
            self.journal(
                "shard-steal",
                {
                    "shard": shard,
                    "victim": victim,
                    "msu": book.msu_name,
                    "disk": book.disk_id,
                    "amount": amount,
                },
            )

    def _refill(self, book: EscrowBook, shard: int, need: float) -> None:
        """Cover ``need`` bytes/sec of missing escrow: bank, then steal."""
        take = min(book.bank_free(), self._quantum(book, need))
        if take > EPS:
            self._grant(book, shard, take)
            need -= take
        while need > EPS:
            victim = self._richest_victim(book, shard)
            if victim is None:
                # Genuine exhaustion: the spend proceeds anyway (the
                # central books may deliberately overcommit via
                # charge_direct; escrow must follow the same stream).
                self.overdrafts += 1
                return
            amount = min(book.free(victim), need)
            self._steal(book, shard, victim, amount)
            need -= amount

    def _richest_victim(
        self, book: EscrowBook, shard: int
    ) -> Optional[int]:
        best, best_free = None, EPS
        for v in range(self.n):
            if v == shard or v in self.partitioned:
                continue
            free = book.free(v)
            if free > best_free:
                best, best_free = v, free
        return best

    def can_admit(
        self, shard: int, msu_name: str, disk_id: str, bandwidth: float
    ) -> bool:
        """Whether ``shard`` could cover ``bandwidth`` without overdraft."""
        if shard in self.partitioned:
            return False
        book = self._book(msu_name, disk_id)
        if book is None:
            return False
        available = book.free(shard) + max(0.0, book.bank_free())
        for v in range(self.n):
            if v != shard and v not in self.partitioned:
                available += max(0.0, book.free(v))
        return available >= bandwidth - EPS

    # -- admission-book observer (AdmissionControl hooks) ----------------------

    def on_charge(self, alloc) -> None:
        """A disk-bandwidth charge landed; attribute it to the owner shard.

        Runs *before* the central book mutation and the ``charge``
        journal record, so any ``shard-grant``/``shard-steal`` the
        refill appends precedes the charge in WAL order — replay then
        reproduces the same escrow split spend-for-spend.
        """
        if alloc.edge_name or alloc.cache_covered:
            return  # no disk slot touched
        book = self._book(alloc.msu_name, alloc.disk_id)
        if book is None:
            return
        shard = self.shard_for(alloc.content_name or "")
        if not self.replaying:
            need = alloc.bandwidth - book.free(shard)
            if need > EPS:
                self._refill(book, shard, need)
        book.spent[shard] += alloc.bandwidth

    def on_release(self, alloc) -> None:
        if alloc.edge_name or alloc.cache_covered:
            return
        book = self.books.get((alloc.msu_name, alloc.disk_id))
        if book is None:
            return
        shard = self.shard_for(alloc.content_name or "")
        book.spent[shard] = max(0.0, book.spent[shard] - alloc.bandwidth)
        if not self.replaying:
            self._repair(book)

    def _repair(self, book: EscrowBook) -> None:
        """Cover lingering overdrafts from escrow a release just freed.

        An overdraft is only legal while *nothing* is free; the moment
        the bank or a sibling has slack again, the overdrawn shard's
        slice is topped up (journaled like any other grant).
        """
        for s in range(self.n):
            need = book.spent[s] - book.granted[s]
            if need <= EPS:
                continue
            if (
                book.bank_free() > EPS
                or self._richest_victim(book, s) is not None
            ):
                self._refill(book, s, need)

    def on_release_msu(self, msu_name: str) -> None:
        """The MSU's books were zeroed wholesale; zero its escrow spends."""
        for (msu, _disk), book in self.books.items():
            if msu == msu_name:
                book.spent = [0.0] * self.n

    def reset_spent(self) -> None:
        """Zero every spend (rebuild_books re-derives them from scratch)."""
        for book in self.books.values():
            book.spent = [0.0] * self.n

    # -- replayed escrow records -----------------------------------------------

    def apply_grant(self, payload: dict) -> None:
        book = self._book(payload["msu"], payload["disk"])
        if book is not None:
            book.granted[payload["shard"]] += payload["amount"]

    def apply_steal(self, payload: dict) -> None:
        book = self._book(payload["msu"], payload["disk"])
        if book is not None:
            book.granted[payload["victim"]] -= payload["amount"]
            book.granted[payload["shard"]] += payload["amount"]

    REPLAY = {"shard-grant": apply_grant, "shard-steal": apply_steal}

    # -- parallel admission service model --------------------------------------

    def admission_delay(self, shard: int, now: float) -> float:
        """Queueing delay at ``shard``'s admission server (0 when free).

        Each shard is one serial server: same-shard admissions queue
        behind each other, different shards proceed in parallel — the
        source of the E24 admissions/sec scaling.
        """
        if self.service_time <= 0.0:
            return 0.0
        start = max(now, self._busy_until[shard])
        self._busy_until[shard] = start + self.service_time
        return self._busy_until[shard] - now

    # -- snapshot / audit ------------------------------------------------------

    def state(self) -> dict:
        return {
            "n": self.n,
            "books": [
                {
                    "msu": book.msu_name,
                    "disk": book.disk_id,
                    "capacity": book.capacity,
                    "granted": list(book.granted),
                    "spent": list(book.spent),
                }
                for _, book in sorted(self.books.items())
            ],
        }

    def restore(self, state: dict) -> None:
        if state.get("n") != self.n:
            # A snapshot from a different shard count cannot be mapped
            # onto this split; start from empty escrow (the bank holds
            # everything, spends re-derive from the charge replay).
            self.books.clear()
            return
        self.books.clear()
        for data in state.get("books", ()):
            book = EscrowBook(
                data["msu"], data["disk"], data["capacity"], self.n
            )
            book.granted = [float(g) for g in data["granted"]]
            book.spent = [float(s) for s in data["spent"]]
            self.books[(book.msu_name, book.disk_id)] = book

    def snapshot(self) -> dict:
        return {"shards": self.state()}

    def load(self, state: dict) -> None:
        # No section (a snapshot from before the escrow split) restores
        # empty escrow, like a shard-count mismatch.
        self.restore(state.get("shards") or {})

    def audit(self) -> List[str]:
        """Escrow anomalies that must never occur, as strings."""
        problems = []
        for (msu, disk_id), book in sorted(self.books.items()):
            where = f"{msu}/{disk_id}"
            if book.bank_free() < -EPS:
                problems.append(
                    f"{where}: escrow over-granted — bank "
                    f"{book.bank_free()} < 0 (granted {book.granted})"
                )
            for s in range(self.n):
                if book.granted[s] < -EPS:
                    problems.append(
                        f"{where}: shard {s} granted {book.granted[s]} < 0"
                    )
                if book.spent[s] < -EPS:
                    problems.append(
                        f"{where}: shard {s} spent {book.spent[s]} < 0"
                    )
                if book.spent[s] > book.granted[s] + EPS:
                    # Overdraft is only legal under genuine exhaustion.
                    others = max(
                        (book.free(v) for v in range(self.n) if v != s),
                        default=0.0,
                    )
                    if book.bank_free() > EPS or others > EPS:
                        problems.append(
                            f"{where}: shard {s} overdrawn "
                            f"(spent {book.spent[s]} > granted "
                            f"{book.granted[s]}) with escrow still free"
                        )
        return problems
