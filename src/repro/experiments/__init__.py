"""One runner per paper table/figure, and the registry that lists them.

Each module exposes ``run_*`` functions returning plain-data results,
``format_*`` functions rendering them the way the paper reports them, and
an ``EXPERIMENTS`` tuple of :class:`Experiment` entries.  :data:`REGISTRY`
collects every module's entries, keyed by CLI name; it is the one list the
experiment CLI, ``repro.tools.summary`` and the bench
(``benchmarks/test_bench_experiments.py``, which regenerates
``benchmarks/results/<table>.txt``) read.  Adding an experiment touches its
own module, its committed table and the docs, nothing else.
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Experiment", "REGISTRY", "headline"]


def headline(metric: str, value, units: str, **context) -> tuple:
    """One headline row for the bench trajectory (``BENCH_trajectory.json``)."""
    return metric, value, units, context


@dataclass(frozen=True)
class Experiment:
    """One table or figure: how to run, render, check and summarise it."""

    #: CLI verb.
    name: str
    #: Results file stem (``benchmarks/results/<table>.txt``), also the
    #: headline rows' ``bench`` key.
    table: str
    paper_ref: str
    #: Called with no arguments, it regenerates the committed table.
    run: Callable[..., Any]
    render: Callable[[Any], str]
    #: The acceptance bar: asserts on ``run()``'s result.
    checks: Callable[[Any], None]
    headlines: Callable[[Any], List[tuple]]
    #: ``run``'s keyword for the measured window, or None if it has none.
    duration_arg: Optional[str] = None

    def report(self, duration: Optional[float] = None) -> str:
        """Run and render; ``duration``, if given, sets the window."""
        kwargs = {}
        if duration is not None and self.duration_arg is not None:
            kwargs[self.duration_arg] = duration
        return self.render(self.run(**kwargs))


def _collect() -> Dict[str, Experiment]:
    entries = [
        entry
        for info in pkgutil.iter_modules(__path__)
        if not info.name.startswith("_")
        for entry in importlib.import_module(
            f"{__name__}.{info.name}"
        ).EXPERIMENTS
    ]
    for field in ("name", "table"):
        keys = [getattr(entry, field) for entry in entries]
        if len(set(keys)) != len(keys):
            raise ValueError(f"two experiments share a {field}")
    return {entry.name: entry for entry in sorted(entries, key=lambda e: e.name)}


#: CLI name -> entry, sorted by name.
REGISTRY: Dict[str, Experiment] = _collect()
