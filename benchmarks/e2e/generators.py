"""Seeded request schedules, drawn up front.

Every workload's inputs come from here: the server under test sees only
the generated requests, never the seed or the generator.  All schedules
are in simulated seconds relative to the start of the measured phase, so
the load generator is never late (generator lateness is zero by
construction in simulated time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: Seed of the fixed start-phase pattern (``run_graph1``'s default seed).
RIG_SEED = 1

__all__ = [
    "Viewing", "zipf_viewings", "access_latency", "storm_schedule",
    "staggered_starts", "cbr_payloads",
]


@dataclass(frozen=True)
class Viewing:
    """One viewer of the Zipf workload."""

    due: float  # seconds after the measured phase begins
    title: int  # index into the title list (0 = most popular)
    watch: float  # seconds the viewer stays once admitted


def zipf_viewings(
    seed: int, window: float, erlangs: float, mean_watch: float,
    n_titles: int, zipf_s: float, block: float = 10.0,
) -> List[Viewing]:
    """Open-loop viewer arrivals: Poisson-like in time, Zipf over titles.

    The schedule is stratified so that every seed offers the same load
    and seeds differ in order and phase only: each ``block`` seconds
    holds exactly its expected number of arrivals, placed uniformly
    (a Poisson process conditioned on its count, so bursts within a
    block remain); titles appear in exact Zipf proportion and watch
    times are the exponential's evenly spaced quantiles, both shuffled.
    """
    rng = np.random.default_rng(seed)
    rate = erlangs / mean_watch
    times: List[float] = []
    start = 0.0
    while start < window:
        end = min(start + block, window)
        count = int(round(rate * end)) - int(round(rate * start))
        times.extend(sorted(float(t) for t in rng.uniform(start, end, count)))
        start = end
    n = len(times)
    weights = np.arange(1, n_titles + 1, dtype=float) ** -zipf_s
    shares = np.cumsum(weights / weights.sum())
    titles = np.searchsorted(shares, (np.arange(n) + 0.5) / n)
    watches = -mean_watch * np.log1p(-(np.arange(n) + 0.5) / n)
    rng.shuffle(titles)
    rng.shuffle(watches)
    return [
        Viewing(t, int(title), float(watch))
        for t, title, watch in zip(times, titles, watches)
    ]


def access_latency(seed: int, nominal: float, tolerance: float = 0.01) -> float:
    """The audience's delivery-network latency: ``nominal`` give or take 1 %.

    Most Zipf viewers are served from a pinned edge prefix along one
    fixed path, so their start-up time is the same constant for every
    seed; drawing the access latency from the seed gives each seed its
    own timeline without changing what is admitted or sent.
    """
    skew = np.random.default_rng([seed, 1]).uniform(-tolerance, tolerance)
    return float(nominal * (1.0 + skew))


def storm_schedule(
    seed: int, n_generators: int, total: int, rate: float, n_contents: int,
) -> List[List[Tuple[float, int]]]:
    """Per-generator (due, content index) lists jointly sending ``total``
    requests at ``rate``/s, each generator an independent Poisson source."""
    per = total // n_generators
    out = []
    for g in range(n_generators):
        rng = np.random.default_rng([seed, g])
        dues = np.cumsum(rng.exponential(n_generators / rate, size=per))
        picks = rng.integers(0, n_contents, size=per)
        out.append([(float(d), int(c)) for d, c in zip(dues, picks)])
    return out


def staggered_starts(seed: int, n: int, span: float, jitter: float = 0.0005) -> List[float]:
    """``n`` start offsets over ``span`` seconds: the rig's phases plus jitter.

    Constant-rate streams keep their relative phases for a whole run, and
    the phases decide which streams collide on the disk and the NIC, so a
    free draw per seed makes every lateness figure a property of the draw
    (the hi percentile moves by 2x between seeds).  The phase pattern is
    therefore the rig's own (Graph 1's default seed) and the run's seed
    moves each start by up to ``jitter`` seconds, which decorrelates runs
    without changing which streams share a slot.
    """
    phases = np.random.default_rng(RIG_SEED).uniform(0.0, span, n)
    nudge = np.random.default_rng(seed).uniform(-jitter, jitter, n)
    return [float(max(0.0, x)) for x in phases + nudge]


def cbr_payloads(seed: int, n_packets: int, packet_size: int, rate: float):
    """A paced CBR source: (delivery_us, payload) with seeded payload bytes."""
    rng = np.random.default_rng(seed)
    fill = rng.integers(0, 256, size=n_packets, dtype=np.uint8)
    interval_us = packet_size / rate * 1e6
    return [
        (int(i * interval_us), bytes([int(fill[i])]) * packet_size)
        for i in range(n_packets)
    ]
