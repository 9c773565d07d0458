"""Event loop, events and processes for the simulation kernel.

The design follows the classic coroutine DES pattern: a *process* is a Python
generator that ``yield``\\ s waitables (events).  The simulator resumes the
generator when the waited-on event fires, sending the event's value back into
the generator (or throwing its exception).

Example::

    sim = Simulator()

    def worker(sim, results):
        yield sim.timeout(1.5)
        results.append(sim.now)

    results = []
    sim.process(worker(sim, results))
    sim.run()
    assert results == [1.5]

The queue is one binary heap (:class:`HeapScheduler`) popping entries in
global ``(time, seq)`` order, so every run is bit-for-bit reproducible;
``tests/test_determinism.py`` holds the kernel to that by running golden
scenarios and random workloads twice and diffing the traces.  The heap
sits behind ``Simulator._sched`` as a plain object, the seam where a test
can substitute another scheduler with the same ``push`` / ``pop`` /
``pop_due`` / ``next_time`` / ``__bool__`` shape.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "HeapScheduler",
    "Simulator",
]

#: Fired pooled timeouts kept for reuse, per simulator.
_TIMEOUT_POOL_MAX = 256

_INF = float("inf")

Entry = Tuple[float, int, Callable, tuple]


class HeapScheduler:
    """The event queue: one global binary heap of ``(time, seq, fn, args)``.

    Entries stay tuples rather than ``__slots__`` objects deliberately:
    tuples compare in C inside heapq, which measured ~2x faster than a
    slotted entry class with a Python-level ``__lt__``.
    """

    __slots__ = ("_queue",)

    def __init__(self):
        self._queue: List[Entry] = []

    def push(self, time: float, seq: int, fn: Callable, args: tuple) -> None:
        heappush(self._queue, (time, seq, fn, args))

    def pop(self) -> Entry:
        return heappop(self._queue)

    def pop_due(self, limit: float) -> Optional[Entry]:
        """Pop the next entry if it is due at or before ``limit``, else None.

        The run loop's one scheduler call per event.
        """
        queue = self._queue
        if queue and queue[0][0] <= limit:
            return heappop(queue)
        return None

    def next_time(self) -> float:
        """Time of the next entry, or +inf when empty."""
        return self._queue[0][0] if self._queue else _INF

    def __bool__(self) -> bool:
        return bool(self._queue)


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupt ``cause`` (an arbitrary object) is available as
    ``exc.cause``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot waitable.

    An event starts *pending*; it is *triggered* by :meth:`succeed` or
    :meth:`fail` and then fires all registered callbacks at the current
    simulation time (in scheduling order).  Processes wait on an event by
    ``yield``\\ ing it.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered", "_late", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._late: Optional[list] = None
        self.name = name

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The success value (or raises the failure exception)."""
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise RuntimeError(f"event {self!r} already triggered")
        self._triggered = True
        self._value = value
        self.sim._post(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._triggered:
            raise RuntimeError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        self.sim._post(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event fires.

        If the event has already fired, the callback runs at the current
        simulation time.  Late registrations made at the same instant are
        delivered together, in registration order, in a single queue slot —
        the same batch semantics a pending event's callbacks get — so an
        interleaved ``schedule(0.0, ...)`` cannot split the event's value
        delivery.  (The seed engine scheduled each late callback as its own
        queue entry, which made delivery order depend on incidental
        sequence-number interleaving.)
        """
        if self.callbacks is None:
            late = self._late
            if late is None:
                self._late = [fn]
                self.sim.schedule(0.0, self._fire_late)
            else:
                late.append(fn)
        else:
            self.callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)

    def _fire_late(self) -> None:
        late, self._late = self._late, None
        if late:
            for fn in late:
                fn(self)

    def _withdraw(self) -> None:
        """The last waiter on this untriggered event was interrupted away.

        An event that stands for a queued claim (a ``Store`` getter) gives
        the claim back here; a plain event has nothing to return.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation.

    A timeout obtained from :meth:`Simulator.sleep` is *pooled*: after its
    callbacks run it is scrubbed and recycled, so steady-state pacing loops
    do not allocate a fresh event per wakeup.  Pooled timeouts must be
    yielded and forgotten — never stored across the yield.
    """

    __slots__ = ("_pooled",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__'s fields set in place: a timeout is made per wait.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self._triggered = True
        self._late = None
        self.name = ""
        self._pooled = False
        sim._seq += 1
        sim._sched.push(sim.now + delay, sim._seq, self._fire, ())

    def _fire(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)
        if self._pooled and self._late is None:
            # (a pending late batch means someone re-registered on us while
            # we fired — leave this instance to deliver it, don't recycle)
            pool = self.sim._timeout_pool
            if len(pool) < _TIMEOUT_POOL_MAX:
                self._pooled = False
                self._triggered = False
                self._value = None
                self._exc = None
                self.callbacks = []
                pool.append(self)


class _Join(Event):
    """Internal event used by AllOf/AnyOf and process termination."""

    __slots__ = ()


class Process(Event):
    """A running simulated process wrapping a generator.

    A process is itself an event that fires when the generator returns
    (value = the generator's return value) or raises (failure).  Other
    processes can therefore ``yield proc`` to join it.
    """

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(gen, "__name__", ""))
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        # Start the process at the current time, after already-queued events.
        start = Event(sim)
        start.add_callback(self._resume)
        self._waiting_on = start
        start.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting detaches it from the waited-on event (the event may
        still fire later, but this process no longer cares).
        """
        if self._triggered:
            raise RuntimeError(f"cannot interrupt finished process {self!r}")
        self.sim.schedule(0.0, self._deliver_interrupt, Interrupt(cause))

    def _deliver_interrupt(self, exc: Interrupt) -> None:
        if self._triggered:
            return  # finished in the meantime; interrupt is moot
        target = self._waiting_on
        if target is not None:
            # Detach from the pending delivery: the live callback list for
            # an unfired event, or the late batch for an already-fired one
            # (leaving a stale _resume queued there would wake us a slot
            # early if this process re-waits on the same event).
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
                if not target._triggered and not target.callbacks:
                    target._withdraw()
            elif target._late is not None:
                try:
                    target._late.remove(self._resume)
                except ValueError:
                    pass
        # Delivered as the wake-up of an event that failed with it.
        failed = Event(self.sim)
        failed._exc = exc
        self._waiting_on = failed
        self._resume(failed)

    def _resume(self, event: Event) -> None:
        """Send the fired ``event``'s value (or throw its exception) into
        the generator, and register the next wait in place.

        The hot path of the kernel: one call per wake-up.
        """
        if self._waiting_on is not event:
            return  # stale wake-up (we were interrupted away from this event)
        self._waiting_on = None
        sim = self.sim
        prev = sim._active_process
        sim._active_process = self
        try:
            if event._exc is None:
                target = self._gen.send(event._value)
            else:
                target = self._gen.throw(event._exc)
        except StopIteration as stop:
            sim._active_process = prev
            self._finish(stop.value)
            return
        except Interrupt:
            # An un-caught interrupt terminates the process quietly.
            sim._active_process = prev
            self._finish(None)
            return
        except Exception as err:
            sim._active_process = prev
            self.fail(err)
            return
        sim._active_process = prev
        if not isinstance(target, Event):
            self._gen.close()
            self.fail(TypeError(f"process {self.name!r} yielded non-event {target!r}"))
            return
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is None:
            target.add_callback(self._resume)
        else:
            callbacks.append(self._resume)

    def _finish(self, value: Any) -> None:
        """Succeed with ``value``; with nobody joined yet, fire in place.

        A finished process nobody waits on needs no queue slot: it is
        marked fired now, and a later ``yield proc`` takes the
        late-callback path, resuming the joiner at its own instant.
        """
        if self.callbacks:
            self.succeed(value)
            return
        self._triggered = True
        self._value = value
        self.callbacks = None


def AllOf(sim: "Simulator", events: Iterable[Event]) -> Event:
    """An event that fires when *all* of ``events`` have fired.

    Its value is the list of the constituent values, in input order.  The
    first failure fails the whole condition.
    """
    events = list(events)
    done = _Join(sim)
    remaining = [len(events)]
    values: list = [None] * len(events)
    if not events:
        return done.succeed(values)

    def on_fire(index: int, event: Event) -> None:
        if done.triggered:
            return
        if event._exc is not None:
            done.fail(event._exc)
            return
        values[index] = event._value
        remaining[0] -= 1
        if remaining[0] == 0:
            done.succeed(values)

    for i, ev in enumerate(events):
        ev.add_callback(lambda e, i=i: on_fire(i, e))
    return done


def AnyOf(sim: "Simulator", events: Iterable[Event]) -> Event:
    """An event that fires when the *first* of ``events`` fires.

    Its value is a ``(index, value)`` pair identifying the winner.
    """
    events = list(events)
    if not events:
        raise ValueError("AnyOf requires at least one event")
    done = _Join(sim)

    def on_fire(index: int, event: Event) -> None:
        if done.triggered:
            return
        if event._exc is not None:
            done.fail(event._exc)
            return
        done.succeed((index, event._value))

    for i, ev in enumerate(events):
        ev.add_callback(lambda e, i=i: on_fire(i, e))
    return done


class Simulator:
    """The event loop: a clock plus a priority queue of pending events.

    Simultaneous events fire in scheduling order (stable via a sequence
    counter) which makes every run bit-for-bit reproducible.

    ``trace`` may be set (also post-construction) to a callable receiving
    ``(time, seq, fn, args)`` just before each entry executes; the
    determinism suite uses it to record schedules.
    """

    def __init__(self, trace: Optional[Callable] = None):
        #: Current simulation time in seconds.  A plain attribute, read on
        #: every hot path; only run() and step() advance it.
        self.now = 0.0
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._sched = HeapScheduler()
        #: Observability hook: called with (time, seq, fn, args) per event.
        self.trace = trace
        #: Total queue entries executed (the repo benchmark's events per
        #: unit of work are read off this counter).
        self.events_executed = 0
        self._timeout_pool: List[Timeout] = []

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds (0 = asap, in order)."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._seq += 1
        self._sched.push(self.now + delay, self._seq, fn, args)

    def at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute time ``when`` (now, if past).

        The absolute-time twin of :meth:`schedule`, used by schedule-driven
        drivers (fault injection, scripted workloads) that are written
        against a fixed timeline rather than relative delays.
        """
        self.schedule(max(0.0, when - self.now), fn, *args)

    def _post(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        self._sched.push(self.now + delay, self._seq, event._fire, ())

    # -- factories -------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> Timeout:
        """A pooled :meth:`timeout`: recycled after it fires.

        The allocation-free fast path for pacing loops.  The returned
        timeout must be yielded (or given callbacks) immediately and never
        stored: once fired it is scrubbed and reused.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            t = pool.pop()
            t._pooled = True
            t._triggered = True
            t._value = value
            self._post(t, delay)
            return t
        t = Timeout(self, delay, value)
        t._pooled = True
        return t

    def process(self, gen: Generator, name: str = "") -> Process:
        """Spawn ``gen`` as a simulated process starting now."""
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> Event:
        """Shorthand for :func:`AnyOf`."""
        return AnyOf(self, events)

    # -- execution -------------------------------------------------------

    def step(self) -> None:
        """Fire the single next queued event."""
        time, seq, fn, args = self._sched.pop()
        if time < self.now:
            raise RuntimeError("time ran backwards")
        if self.trace is not None:
            self.trace(time, seq, fn, args)
        self.now = time
        self.events_executed += 1
        fn(*args)

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if none queued."""
        return self._sched.next_time()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue is empty or the clock reaches ``until``.

        Returns the simulation time at which execution stopped.  When
        ``until`` is given the clock is advanced to exactly ``until`` even if
        the queue drains earlier.
        """
        if until is None:
            limit = _INF
        elif until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        else:
            limit = until
        # step() inlined: one scheduler call per event.
        pop_due = self._sched.pop_due
        while True:
            entry = pop_due(limit)
            if entry is None:
                break
            time, seq, fn, args = entry
            if time < self.now:
                raise RuntimeError("time ran backwards")
            if self.trace is not None:
                self.trace(time, seq, fn, args)
            self.now = time
            self.events_executed += 1
            fn(*args)
        if until is not None:
            self.now = until
        return self.now

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` fires; return its value.

        Raises ``RuntimeError`` if the queue drains (or ``limit`` is hit)
        before the event triggers — useful in tests to catch deadlock.  An
        entry scheduled *exactly at* ``limit`` still runs: the limit bounds
        simulation time, it does not exclude its own instant.
        """
        while not event.triggered or event.callbacks is not None:
            next_time = self._sched.next_time()
            if next_time == float("inf"):
                raise RuntimeError(f"simulation deadlocked waiting for {event!r}")
            if limit is not None and next_time > limit:
                raise RuntimeError(f"exceeded limit={limit} waiting for {event!r}")
            self.step()
        return event.value
