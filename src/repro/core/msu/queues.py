"""The MSU's lock-free shared-memory queues (§2.3).

"Instead of using expensive semaphore operations, the MSU processes
communicate using a shared memory queue structure that relies on the
atomicity of memory read and write instructions to produce atomic enqueue
and dequeue operations."

That structure is the classic single-producer/single-consumer ring: the
producer writes the slot then advances ``head``; the consumer reads the
slot then advances ``tail``; each index is written by exactly one side, so
plain atomic word writes suffice.  We reproduce the ring faithfully
(bounded, index-based) and add a simulation-side wakeup event so a
consumer process can sleep instead of spinning.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.sim import Event, Simulator, Store

__all__ = ["SpscQueue", "Signal"]


class Signal:
    """A coalescing wakeup flag for a single waiting process.

    Unlike a Store of tokens, multiple :meth:`set` calls while the waiter
    is busy collapse into one wakeup — the disk and network processes use
    this so "there is work" notifications never accumulate.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._event: Event = None
        self._pending = False
        #: Calls to :meth:`set` so far: a waiter that caches state between
        #: wakeups compares it to tell whether anything was signalled.
        self.set_count = 0

    def set(self) -> None:
        """Wake the waiter (or remember that it should not sleep next time)."""
        self.set_count += 1
        event = self._event
        if event is not None and not event.triggered:
            self._event = None
            event.succeed()
        else:
            self._pending = True

    def wait(self) -> Event:
        """Event firing at the next :meth:`set` (immediately if pending)."""
        if self._pending:
            self._pending = False
            event = Event(self.sim, name=f"signal:{self.name}")
            event.succeed()
            return event
        if self._event is None or self._event.triggered:
            self._event = Event(self.sim, name=f"signal:{self.name}")
        return self._event


class SpscQueue:
    """A bounded single-producer/single-consumer ring buffer."""

    def __init__(self, sim: Simulator, capacity: int = 64, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self._slots: List[Any] = [None] * (capacity + 1)  # one slot wasted
        self._head = 0  # producer-owned
        self._tail = 0  # consumer-owned
        self._wakeup = Store(sim, name=f"spsc:{name}")
        self.enqueued = 0
        self.dequeued = 0

    @property
    def capacity(self) -> int:
        """Usable slots."""
        return len(self._slots) - 1

    def __len__(self) -> int:
        return (self._head - self._tail) % len(self._slots)

    @property
    def full(self) -> bool:
        """True when another put would fail."""
        return len(self) == self.capacity

    def try_put(self, item: Any) -> bool:
        """Producer side: enqueue, or return False when full."""
        nxt = (self._head + 1) % len(self._slots)
        if nxt == self._tail:
            return False
        self._slots[self._head] = item
        self._head = nxt  # the single atomic "commit" write
        self.enqueued += 1
        self._wakeup.put(True)
        return True

    def put(self, item: Any) -> None:
        """Producer side: enqueue or raise (callers size queues to fit)."""
        if not self.try_put(item):
            raise OverflowError(f"SPSC queue {self.name!r} full")

    def try_get(self) -> Optional[Any]:
        """Consumer side: dequeue, or None when empty."""
        if self._tail == self._head:
            return None
        item = self._slots[self._tail]
        self._slots[self._tail] = None
        self._tail = (self._tail + 1) % len(self._slots)  # atomic commit
        self.dequeued += 1
        return item

    def wait(self):
        """Event that fires when a put has happened (may be stale; poll
        :meth:`try_get` after waking)."""
        return self._wakeup.get()
