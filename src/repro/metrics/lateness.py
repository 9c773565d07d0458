"""Packet-lateness accounting: the metric of Graphs 1 and 2.

The paper plots, per workload, the cumulative percent of packets delivered
within a given number of milliseconds of their deadline, in 1 ms bins
(early or on-time packets land in bin 0).

Accumulation is *lazy* (DESIGN.md §13): the collector appends one raw
sample per packet and only materializes the numpy series when a statistic
is read, so the per-packet send path pays a list append and nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["LatenessCollector", "LatenessCdf"]


@dataclass
class LatenessCdf:
    """A cumulative lateness distribution in 1 ms bins."""

    #: ``percent[i]`` = percent of packets sent <= i milliseconds late.
    percent: np.ndarray
    count: int
    max_late_ms: float

    def fraction_within(self, ms_late: float) -> float:
        """Fraction of packets no more than ``ms_late`` ms past deadline."""
        if self.count == 0:
            return 1.0
        index = int(ms_late)
        if index >= len(self.percent):
            return 1.0
        return float(self.percent[index]) / 100.0


class LatenessCollector:
    """Accumulates (deadline, actual send time) pairs for one workload."""

    __slots__ = ("name", "_singles", "_materialized")

    def __init__(self, name: str = ""):
        self.name = name
        self._singles: List[float] = []
        self._materialized = None  # cached numpy array of all samples

    def record(self, deadline: float, sent_at: float) -> None:
        """Record one packet send against its schedule deadline."""
        self._singles.append(sent_at - deadline)
        self._materialized = None

    def reset(self) -> None:
        """Drop all accumulated samples (experiment warm-up boundary)."""
        self._singles.clear()
        self._materialized = None

    def __len__(self) -> int:
        return len(self._singles)

    def _samples(self) -> np.ndarray:
        """Materialize every sample as one float array, cached."""
        if self._materialized is None:
            self._materialized = np.asarray(self._singles, dtype=float)
        return self._materialized

    @property
    def late_seconds(self) -> List[float]:
        """Raw signed lateness samples (negative = early)."""
        return list(self._samples())

    def cdf(self, max_ms: int = 1000) -> LatenessCdf:
        """Build the Graph 1/2-style cumulative distribution."""
        samples = self._samples()
        n = len(samples)
        if n == 0:
            return LatenessCdf(np.full(max_ms + 1, 100.0), 0, 0.0)
        late_ms = np.maximum(0.0, samples * 1000.0)
        bins = np.minimum(late_ms.astype(int), max_ms)
        hist = np.bincount(bins, minlength=max_ms + 1)
        percent = 100.0 * np.cumsum(hist) / n
        return LatenessCdf(percent, n, float(late_ms.max()))

    def percent_within(self, ms_late: float) -> float:
        """Percent of packets sent no more than ``ms_late`` ms late."""
        samples = self._samples()
        if len(samples) == 0:
            return 100.0
        return 100.0 * float(np.mean(samples * 1000.0 <= ms_late))

    def max_lateness_ms(self) -> float:
        """Worst lateness observed (>= 0)."""
        samples = self._samples()
        if len(samples) == 0:
            return 0.0
        return max(0.0, float(samples.max()) * 1000.0)

    def audit(self) -> List[str]:
        """Deadline-accounting anomalies, as strings.

        Every recorded sample must be a finite number: a NaN or infinite
        lateness means a stream's schedule anchor went bad upstream, which
        the CDF math would otherwise silently absorb.
        """
        samples = self._samples()
        bad = samples[~np.isfinite(samples)]
        if len(bad):
            return [f"{self.name or 'collector'}: {len(bad)} non-finite "
                    f"lateness samples (first: {bad[0]!r})"]
        return []
