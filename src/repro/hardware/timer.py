"""The FreeBSD software clock with 10 ms granularity (§2.2.1).

Processes that pace packet delivery sleep via :meth:`SystemTimer.wait_until`
and therefore wake only on clock-tick boundaries, which is the source of the
schedule jitter the paper bounds at 150 ms worst case.  Setting
``granularity`` to 0 models the paper's Pentium-cycle-counter workaround
(precise wakeups) and is used by the timer-granularity ablation.
"""

from __future__ import annotations

import math
from typing import Generator

from repro.hardware.params import TimerParams
from repro.sim import Simulator

__all__ = ["SystemTimer"]


class SystemTimer:
    """Tick-quantized sleeping."""

    def __init__(self, sim: Simulator, params: TimerParams = TimerParams()):
        self.sim = sim
        self.params = params

    def next_tick_at_or_after(self, t: float) -> float:
        """The first tick boundary >= ``t`` (identity when granularity 0)."""
        g = self.params.granularity
        if g <= 0:
            return t
        # The 1e-9 guard keeps times already on a boundary from rounding up.
        return math.ceil(t / g - 1e-9) * g

    def wait_until(self, t: float) -> Generator:
        """Sleep until the first tick at or after ``t`` (no-op if past)."""
        target = self.next_tick_at_or_after(t)
        if target > self.sim.now:
            yield self.sim.timeout(target - self.sim.now)

    def sleep(self, duration: float) -> Generator:
        """Sleep at least ``duration`` seconds, waking on a tick."""
        if duration < 0:
            raise ValueError(f"negative sleep: {duration}")
        return self.wait_until(self.sim.now + duration)
