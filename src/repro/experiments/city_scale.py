"""Experiment E23 — the Coordinator control plane at city scale.

The paper's abstract claims Calliope "can be scaled from a single PC
producing about 22 MPEG-1 video streams to hundreds of PCs producing
thousands of streams"; §3.3 argues the shared-resource side of that claim
with an instrumented *fake* MSU, so that only the load under measurement
exists.  This experiment takes E6's harness (:func:`run_scalability`:
the real Coordinator, one TCP control channel per fake MSU, open-loop
clients at ~60 requests/s) from two MSUs to 10, 100 and 1000, and reports
the Coordinator CPU and intra-network load at each size together with
the wall time the run took.  If per-request Coordinator cost does not
grow with installation size, the load columns are identical down the
table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.scalability import (
    PAPER_REQUEST_RATE,
    ScalabilityResult,
    run_scalability,
)

__all__ = ["CityScalePoint", "run_city_scale", "format_city_scale"]


@dataclass(frozen=True)
class CityScalePoint:
    """One installation size's control-plane load and simulation cost."""

    n_msus: int
    result: ScalabilityResult
    wall_seconds: float


def run_city_scale(
    points: Sequence[int] = (10, 100, 1000),
    duration: float = 50.0,
) -> List[CityScalePoint]:
    """E6's request storm against 10/100/1000 fake MSUs.

    ``points`` are the installation sizes; ``duration`` is the simulated
    length of the storm at the paper's ~60 requests/s (50 s = 3000
    requests).
    """
    requests = int(duration * PAPER_REQUEST_RATE)
    sweep = []
    for n_msus in points:
        start = time.perf_counter()
        result = run_scalability(total_requests=requests, n_fake_msus=n_msus)
        sweep.append(CityScalePoint(n_msus, result, time.perf_counter() - start))
    return sweep


def format_city_scale(points: List[CityScalePoint]) -> str:
    """Render the installation-size sweep."""
    lines = [
        "Coordinator load vs installation size (fake MSUs, §3.3 request storm)",
        f"{'MSUs':>5} | {'requests':>8} | {'req/s':>6} | {'coord CPU':>9} | "
        f"{'intra-net':>9} | {'wall s':>6}",
    ]
    for p in points:
        r = p.result
        lines.append(
            f"{p.n_msus:>5} | {r.requests:>8} | {r.request_rate:>6.2f} | "
            f"{r.cpu_utilization * 100.0:>8.3f}% | "
            f"{r.network_utilization * 100.0:>8.3f}% | {p.wall_seconds:>6.2f}"
        )
    base, last = points[0].result, points[-1].result
    same = (
        base.cpu_utilization == last.cpu_utilization
        and base.network_utilization == last.network_utilization
    )
    lines.append(
        f"({points[-1].n_msus // points[0].n_msus}x the MSUs: Coordinator and "
        f"network load {'identical' if same else 'CHANGED'}; "
        f"{sum(p.wall_seconds for p in points):.1f}s of wall time in all)"
    )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual calibration aid
    print(format_city_scale(run_city_scale()))
