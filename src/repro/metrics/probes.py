"""Time-series utilization probes.

Experiments that report utilizations (§3.3) need windowed measurements,
not just end-of-run totals.  A probe samples a monotone counter (CPU busy
seconds, bytes moved, packets sent) on a fixed period and exposes the
per-window rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List

from repro.sim import Simulator

__all__ = ["CounterProbe", "UtilizationProbe"]


@dataclass(frozen=True)
class Sample:
    """One sampling window."""

    start: float
    end: float
    delta: float


class CounterProbe:
    """Samples a monotone counter every ``period`` seconds.

    Accumulation is lazy (DESIGN.md §13): each wakeup appends three floats
    to flat arrays; the :class:`Sample` series is materialized only when
    read, so a probe ticking through a long run costs no per-window
    object churn.
    """

    def __init__(
        self,
        sim: Simulator,
        counter: Callable[[], float],
        period: float = 1.0,
        name: str = "",
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.sim = sim
        self.counter = counter
        self.period = period
        self.name = name
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._deltas: List[float] = []
        self._proc = sim.process(self._run(), name=f"probe:{name}")

    def _run(self) -> Generator:
        last_time = self.sim.now
        last_value = float(self.counter())
        while True:
            yield self.sim.timeout(self.period)
            value = float(self.counter())
            self._starts.append(last_time)
            self._ends.append(self.sim.now)
            self._deltas.append(value - last_value)
            last_time, last_value = self.sim.now, value

    @property
    def samples(self) -> List[Sample]:
        """The completed sampling windows, materialized on read."""
        return [
            Sample(s, e, d)
            for s, e, d in zip(self._starts, self._ends, self._deltas)
        ]

    def rates(self) -> List[float]:
        """Per-window rates (delta/second)."""
        return [
            d / (e - s) if e > s else 0.0
            for s, e, d in zip(self._starts, self._ends, self._deltas)
        ]

    def mean_rate(self) -> float:
        """Average rate across completed windows."""
        rates = self.rates()
        return sum(rates) / len(rates) if rates else 0.0

    def peak_rate(self) -> float:
        """The busiest window's rate."""
        rates = self.rates()
        return max(rates) if rates else 0.0

    def stop(self) -> None:
        """Halt sampling (the probe's process is interrupted)."""
        if self._proc.is_alive:
            self._proc.interrupt("probe stopped")


class UtilizationProbe(CounterProbe):
    """A CounterProbe over a busy-seconds counter: rates are utilizations.

    E.g. ``UtilizationProbe(sim, lambda: machine.cpu.busy_time)`` yields
    per-window CPU utilizations in [0, 1].
    """

    def utilizations(self) -> List[float]:
        """Alias of :meth:`rates` for busy-time counters."""
        return self.rates()

    def mean_utilization(self) -> float:
        return self.mean_rate()
