"""Contention primitives for the simulation kernel.

* :class:`Resource` — a counted resource (a bus, a CPU, a disk arm),
  FIFO unless a subclass picks its waiters another way.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``;
  ``deliver`` hands an item to a blocked getter in the caller's own slot.

Usage inside a process::

    yield bus.hold(transfer_time)          # claim, hold, release: one event

    req = yield from cpu.claim()           # hold across several steps
    try:
        ...
    finally:
        cpu.release(req)

Both grant an idle resource inline, so the common uncontended claim costs
no queue entry.  A claimant interrupted while it waits gives its claim
back before the interrupt propagates, so a claim is never granted to
nobody; an interrupted hold also releases a unit it holds.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.sim.engine import Event, Simulator

__all__ = ["Hold", "Resource", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource` (an event that fires on grant)."""

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: float = 0.0):
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority

    def _grant(self) -> None:
        self.succeed(self)


# A hold's phases.
_QUEUED, _GRANTED, _HOLDING, _OVER = range(4)


class Hold(Event):
    """``yield res.hold(t)``: one unit of ``res`` for ``t`` seconds, as one event.

    On an idle unit the unit is granted inline and the end of the hold is
    the event's only queue entry, pushed at the call.  On a busy unit the
    hold queues like a :class:`Request`; its grant is a queue entry of its
    own (``_fire_grant``), which pushes the end.  The end entry
    (``_fire``) releases the unit, so the next waiter's grant is posted
    before the waiter of this hold resumes.

    A subclass may hold again at once, FIFO behind the waiters the
    release woke, by returning the next hold's length from
    :meth:`_held`: a bus transfer is one event that holds the bus chunk
    by chunk.

    A process interrupted while it waits on the hold withdraws it
    (:meth:`Event._withdraw`) in whichever phase it is in: queued, grant
    posted but not yet fired, or holding.  A withdrawn hold leaves the
    queue or releases its unit at the interrupt instant; its pending
    grant or end entry then fires as a no-op.
    """

    __slots__ = ("resource", "duration", "_phase")

    #: A hold has no seek target: a policy arm sees every hold alike.
    priority = 0.0

    def __init__(self, resource: "Resource", duration: float):
        if duration < 0:
            raise ValueError(f"negative hold time: {duration}")
        # Event.__init__'s fields set in place: a hold is made per claim.
        self.sim = resource.sim
        self.callbacks = []
        self._value = None
        self._exc = None
        self._triggered = False
        self._late = None
        self.name = ""
        self.resource = resource
        self.duration = duration
        self._claim()

    def _claim(self) -> None:
        res = self.resource
        holders = res._holders
        if len(holders) < res.capacity:
            # A free unit means nobody is queued (see Resource.claim).
            holders.add(self)
            self._phase = _HOLDING
            sim = self.sim
            sim._seq += 1
            sim._sched.push(sim.now + self.duration, sim._seq, self._fire, ())
        else:
            self._phase = _QUEUED
            res._waiters.append(self)

    def _grant(self) -> None:
        """The unit was handed to this queued hold: post the grant."""
        self._phase = _GRANTED
        sim = self.sim
        sim._seq += 1
        sim._sched.push(sim.now, sim._seq, self._fire_grant, ())

    def _fire_grant(self) -> None:
        if self._phase == _GRANTED:
            self._phase = _HOLDING
            sim = self.sim
            sim._seq += 1
            sim._sched.push(sim.now + self.duration, sim._seq, self._fire, ())

    def _fire(self) -> None:
        """The hold's end: release the unit, then resume the waiter."""
        if self._phase != _HOLDING:
            return  # withdrawn while holding; the unit was released then
        res = self.resource
        res._holders.discard(self)
        if res._waiters:
            res._grant_next()
        again = self._held()
        if again is not None:
            self.duration = again
            self._claim()
            return
        self._phase = _OVER
        self._triggered = True
        callbacks, self.callbacks = self.callbacks, None
        for fn in callbacks:
            fn(self)

    def _held(self) -> Optional[float]:
        """A hold of ``duration`` ended and released its unit.

        Return the length of a further hold to claim before the event
        fires, or None.  Subclasses account each hold here.
        """
        return None

    def _withdraw(self) -> None:
        phase, self._phase = self._phase, _OVER
        if phase == _QUEUED:
            self.resource._waiters.remove(self)
        elif phase != _OVER:
            self.resource.release(self)


class Resource:
    """A counted resource granting up to ``capacity`` concurrent holders.

    Waiters are granted in the order :meth:`_pop_next` picks them: FIFO
    here, a seek policy in the disk arm.  ``release`` must be passed the
    granted request object; releasing wakes the next waiter at the
    current time.
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
        """Queue a claim on one unit; the returned event fires when granted.

        A free unit is granted at once, through :meth:`_pop_next` like any
        other grant, and the grant is a scheduled event.  :meth:`claim` is
        the idiom for processes; it skips that event on an idle resource.
        """
        req = Request(self, priority)
        self._waiters.append(req)
        if len(self._holders) < self.capacity:
            self._grant_next()
        return req

    def claim(self) -> Generator:
        """Claim one unit: ``req = yield from res.claim()``.

        A free unit implies nobody is queued (``release`` hands a freed
        unit straight to the next waiter), so an idle resource is granted
        inline without jumping the queue: the request comes back already
        granted and fired, nothing is scheduled, and the caller carries on
        in the same step.  Otherwise the caller waits on a queued
        :meth:`request`.  If it is interrupted while it waits, the request
        is released before the interrupt propagates: that withdraws it
        from the queue or, when its grant was posted but the caller had
        not resumed yet, hands the unit to the next waiter.
        """
        if len(self._holders) < self.capacity:
            req = Request(self)
            req._triggered = True
            req._value = req
            req.callbacks = None
            self._holders.add(req)
            return req
        req = self.request()
        try:
            yield req
        except BaseException:
            self.release(req)
            raise
        return req

    def hold(self, duration: float) -> Hold:
        """Claim one unit, keep it ``duration`` seconds, then release it.

        ``yield res.hold(t)``; see :class:`Hold`.
        """
        return Hold(self, duration)

    def release(self, req: Request) -> None:
        """Return a granted unit, waking the next waiter (if any).

        Releasing a request that is still queued cancels it.
        """
        if req in self._holders:
            self._holders.discard(req)
            self._grant_next()
            return
        try:
            self._waiters.remove(req)
        except ValueError:
            raise RuntimeError("release() of a request this resource never saw")

    def _pop_next(self) -> Request:
        """Remove and return the waiter to grant next (there is one)."""
        return self._waiters.popleft()

    def _grant_next(self) -> None:
        if self._waiters:
            nxt = self._pop_next()
            self._holders.add(nxt)
            nxt._grant()


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
