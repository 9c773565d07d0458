"""Per-layer attribution from outside the program.

:class:`LayerTrace` is installed on the public ``Simulator.trace`` hook
for the traced run only.  Each queue entry is charged to the process it
wakes (the first callback of the fired event), twice: to the package
defining that process's generator and to the package defining the frame
the wake-up resumes; bare ``sim.schedule`` callbacks are charged to the
package that defines the callback.  Event counts are exact and sum to
``events_executed``; ``host_s`` is the wall time between successive hook
calls, so an event carries the queue pop/push that surrounds it.

:class:`TimingJournal` times the two recovery calls the hook cannot see
because the Coordinator makes them synchronously inside its own events.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

from metrics import LAYERS

from repro.recovery import JournalStore
from repro.sim import Event, Process

__all__ = ["LayerTrace", "TimingJournal"]

_REPRO = os.sep + "repro" + os.sep


def layer_of_file(filename: str) -> str:
    """Map a source file to its layer name."""
    at = filename.rfind(_REPRO)
    if at < 0:
        return "other"
    parts = filename[at + len(_REPRO):].split(os.sep)
    if parts[0] == "core" and len(parts) > 2 and parts[1] == "msu":
        return "core.msu"
    return parts[0] if parts[0] in LAYERS else "other"


class LayerTrace:
    """Counts events and host seconds per layer through ``Simulator.trace``.

    Every event has two layers: the one that *owns* the woken process
    (the package defining the process's own generator) and the one whose
    *frame* the wake-up resumes (the innermost ``yield from`` of that
    process).  ``cells[(owner, frame)]`` holds ``[events, host_s]``.
    """

    def __init__(self) -> None:
        self.cells = defaultdict(lambda: [0, 0.0])
        self._by_code: dict = {}
        self._cell = self.cells[("sim", "sim")]
        self._since = 0.0

    def start(self) -> None:
        self._cell = self.cells[("sim", "sim")]  # the first queue pop is the kernel's
        self._since = perf_counter()

    def stop(self) -> None:
        self._cell[1] += perf_counter() - self._since

    def totals(self, axis: int) -> dict:
        """``{layer: {"events", "host_s"}}`` by owner (0) or by frame (1)."""
        out = {layer: {"events": 0, "host_s": 0.0} for layer in LAYERS}
        for key, (events, host_s) in self.cells.items():
            out[key[axis]]["events"] += events
            out[key[axis]]["host_s"] += host_s
        return out

    def _code_layer(self, code) -> str:
        layer = self._by_code.get(code)
        if layer is None:
            layer = self._by_code[code] = layer_of_file(code.co_filename)
        return layer

    def _callable_layer(self, fn) -> str:
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        return self._code_layer(code) if code is not None else "other"

    def __call__(self, time, seq, fn, args) -> None:
        now = perf_counter()
        self._cell[1] += now - self._since
        self._since = now
        target = fn
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, Event) and fn.__name__.startswith("_fire"):
            # An event firing: the work is whatever its first waiter does.
            waiters = owner.callbacks if owner.callbacks is not None else owner._late
            target = waiters[0] if waiters else None
        woken = getattr(target, "__self__", None)
        if isinstance(woken, Process):
            gen = woken._gen
            owned_by = self._code_layer(gen.gi_code)
            inner = gen.gi_yieldfrom
            while inner is not None and hasattr(inner, "gi_code"):
                gen, inner = inner, inner.gi_yieldfrom
            key = (owned_by, self._code_layer(gen.gi_code))
        elif target is None:
            key = ("sim", "sim")  # an event nobody waits for
        else:
            layer = self._callable_layer(target)
            key = (layer, layer)
        cell = self._cell = self.cells[key]
        cell[0] += 1


class TimingJournal(JournalStore):
    """A JournalStore that times appends and snapshots (traced run only).

    A snapshot is timed from ``snapshot_due()`` answering True to
    ``install_snapshot`` returning, which brackets the Coordinator's
    ``snapshot_state`` call between them.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.append_s = 0.0
        self.snapshot_s = 0.0
        self._due_at = None

    def append(self, kind, payload):
        began = perf_counter()
        record = super().append(kind, payload)
        self.append_s += perf_counter() - began
        return record

    def snapshot_due(self) -> bool:
        due = super().snapshot_due()
        if due:
            self._due_at = perf_counter()
        return due

    def install_snapshot(self, state) -> None:
        super().install_snapshot(state)
        if self._due_at is not None:
            self.snapshot_s += perf_counter() - self._due_at
            self._due_at = None
