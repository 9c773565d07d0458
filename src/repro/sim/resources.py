"""Contention primitives for the simulation kernel.

* :class:`Resource` — a counted FIFO resource (a bus, a CPU, a disk arm).
* :class:`PriorityResource` — same, but requests carry a priority.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``;
  ``deliver`` hands an item to a blocked getter in the caller's own slot.

Usage inside a process::

    req = bus.try_acquire()
    try:
        if req is None:
            req = bus.request()
            yield req
        yield sim.timeout(transfer_time)
    finally:
        bus.release(req)

``try_acquire`` grants an idle resource inline, so the common uncontended
claim costs no queue entry.  The wait sits inside the ``try`` so that an
interrupt landing while queued releases (= cancels) the claim instead of
leaving it to be granted to nobody.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional

from repro.sim.engine import Event, Simulator

__all__ = ["Resource", "PriorityResource", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource` (an event that fires on grant)."""

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: float = 0.0):
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority


class Resource:
    """A counted resource granting up to ``capacity`` concurrent holders.

    Grants are strictly FIFO.  ``release`` must be passed the granted
    request object; releasing wakes the next waiter at the current time.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._holders: set = set()
        self._waiters: deque = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted requests."""
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._waiters)

    def request(self, priority: float = 0.0) -> Request:
        """Claim one unit; the returned event fires when granted."""
        req = Request(self, priority)
        if len(self._holders) < self.capacity:
            self._holders.add(req)
            req.succeed(req)
        else:
            self._enqueue(req)
        return req

    def try_acquire(self, priority: float = 0.0) -> Optional[Request]:
        """Claim one unit without waiting, or return ``None``.

        Succeeds only when a unit is free, which implies nobody is queued
        (``release`` hands a freed unit straight to the next waiter), so it
        never jumps the FIFO.  The returned request is already granted and
        fired: nothing is scheduled, and the caller carries on in the same
        step.  (Yielding it anyway resumes the caller at the same instant.)
        """
        if len(self._holders) >= self.capacity:
            return None
        req = Request(self, priority)
        req._triggered = True
        req._value = req
        req.callbacks = None
        self._holders.add(req)
        return req

    def release(self, req: Request) -> None:
        """Return a granted unit, waking the next waiter (if any)."""
        if req in self._holders:
            self._holders.discard(req)
            self._grant_next()
            return
        # Releasing an ungranted request = cancelling it.
        self._cancel(req)

    def _enqueue(self, req: Request) -> None:
        self._waiters.append(req)

    def _cancel(self, req: Request) -> None:
        try:
            self._waiters.remove(req)
        except ValueError:
            raise RuntimeError("release() of a request this resource never saw")

    def _pop_next(self) -> Optional[Request]:
        return self._waiters.popleft() if self._waiters else None

    def _grant_next(self) -> None:
        nxt = self._pop_next()
        if nxt is not None:
            self._holders.add(nxt)
            nxt.succeed(nxt)


class PriorityResource(Resource):
    """A :class:`Resource` whose waiters are served lowest-priority-first.

    Ties break FIFO.  Used e.g. for elevator-order disk queues where the
    priority is the target cylinder.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        super().__init__(sim, capacity, name)
        self._waiters: list = []  # heap of (priority, seq, req)
        self._seq = 0

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def _enqueue(self, req: Request) -> None:
        self._seq += 1
        heapq.heappush(self._waiters, (req.priority, self._seq, req))

    def _cancel(self, req: Request) -> None:
        for i, (_, _, waiting) in enumerate(self._waiters):
            if waiting is req:
                self._waiters.pop(i)
                heapq.heapify(self._waiters)
                return
        raise RuntimeError("release() of a request this resource never saw")

    def _pop_next(self) -> Optional[Request]:
        if not self._waiters:
            return None
        _, _, req = heapq.heappop(self._waiters)
        return req


class _StoreGet(Event):
    """A pending :meth:`Store.get` that knows its store.

    If the process waiting on it is interrupted before an item arrives,
    the kernel withdraws the getter, so the next ``put`` reaches a live
    getter (or the item queue) instead of a dead one.
    """

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        super().__init__(store.sim, name=f"get:{store.name}")
        self.store = store

    def _withdraw(self) -> None:
        self.store._getters.remove(self)


class Store:
    """An unbounded FIFO queue of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event whose value is the item.
    Items are matched to getters strictly FIFO on both sides.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: deque = deque()
        self._getters: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``, waking the oldest blocked getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def deliver(self, item: Any) -> None:
        """Deposit ``item`` from a scheduled callback, in its own slot.

        Where :meth:`put` triggers the oldest getter and leaves its waiter
        to a second queue slot, ``deliver`` fires the getter inline, so the
        waiter resumes inside the delivery's slot.  That is safe only
        between processes, so calling it from inside one raises.
        """
        if self.sim.active_process is not None:
            raise RuntimeError(
                f"Store.deliver on {self.name!r} from inside a process; use put()"
            )
        if self._getters:
            getter = self._getters.popleft()
            getter._triggered = True
            getter._value = item
            getter._fire()
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        ev = _StoreGet(self)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking take: the next item or ``None`` if empty."""
        return self._items.popleft() if self._items else None
