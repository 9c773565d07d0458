"""Deterministic discrete-event simulation kernel.

This package is the substrate on which every Calliope component runs.  It
provides a small, SimPy-like coroutine scheduler:

* :class:`~repro.sim.engine.Simulator` — the event loop and clock, over one
  binary-heap queue (:class:`~repro.sim.engine.HeapScheduler`).
* :class:`~repro.sim.engine.Process` — a generator-based simulated process.
* :class:`~repro.sim.engine.Event` / :class:`~repro.sim.engine.Timeout` —
  waitable primitives a process may ``yield``.
* :class:`~repro.sim.resources.Resource` / :class:`~repro.sim.resources.Store`
  — contention primitives used to model buses, CPUs, disk arms and queues;
  :class:`~repro.sim.resources.Hold` is a resource held for a time, as one
  waitable event.

The kernel is fully deterministic: simultaneous events fire in the order in
which they were scheduled (ties break on a monotone sequence number), and no
wall-clock time or global randomness is consulted anywhere.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    HeapScheduler,
    Interrupt,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.resources import Hold, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "HeapScheduler",
    "Hold",
    "Interrupt",
    "Process",
    "Resource",
    "Simulator",
    "Store",
    "Timeout",
]
