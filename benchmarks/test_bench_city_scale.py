"""Benchmark E23 — Coordinator control-plane load at city scale.

E6's fake-MSU request storm (§3.3) run against 10, 100 and 1000 fake
MSUs.  Every number asserted here comes from the real Coordinator:

* Coordinator CPU and intra-network load at 1000 MSUs match 10 MSUs
  (per-request cost does not grow with installation size), and
* the whole sweep simulates in CI-tolerable wall time.
"""

import pytest

from benchmarks.conftest import headline, publish
from repro.experiments.city_scale import format_city_scale, run_city_scale

#: Wall-time budget for the full sweep (the 1000-MSU point alone takes
#: ~0.5 s on a 2-core VM; 120 s absorbs any CI runner slowdown while
#: still catching a control plane that fell off a cliff).
CITY_SCALE_BUDGET_S = 120.0


def test_bench_city_scale(benchmark):
    points = benchmark.pedantic(run_city_scale, rounds=1)
    publish(
        benchmark, "city_scale", format_city_scale(points),
        largest_msus=points[-1].n_msus,
        largest_wall_s=round(points[-1].wall_seconds, 2),
    )
    base, largest = points[0], points[-1]
    headline(
        "city_scale", "coordinator_cpu_1000msu",
        round(largest.result.cpu_utilization * 100.0, 3), "%",
        requests=largest.result.requests,
        request_rate=round(largest.result.request_rate, 2),
        wall_s=round(largest.wall_seconds, 2),
    )
    assert largest.n_msus == 1000
    assert sum(p.wall_seconds for p in points) <= CITY_SCALE_BUDGET_S
    # MSUs share nothing but the Coordinator (abstract, §3.3): its load
    # follows the request rate, not the number of MSUs behind it.
    assert largest.result.cpu_utilization == pytest.approx(
        base.result.cpu_utilization, rel=0.05
    )
    assert largest.result.network_utilization == pytest.approx(
        base.result.network_utilization, rel=0.05
    )
