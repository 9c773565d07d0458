"""Benchmark E23 — engine overhaul speedup and city-scale runs.

Two headline claims from the engine overhaul (DESIGN.md §13):

* the fast configuration (coarsened pacing, batch 16) runs the same
  paced workload at least 5x faster than the reference configuration
  (one wakeup per packet), and
* an installation of 1000 MSUs serving 100,000 concurrent viewers —
  the abstract's "hundreds of PCs producing thousands of streams" taken
  another order of magnitude out — simulates in CI-tolerable wall time.
"""

from benchmarks.conftest import headline, publish
from repro.experiments.city_scale import (
    engine_speedup,
    format_city_scale,
    format_engine_bench,
    run_city_scale,
    run_engine_bench,
)

#: Wall-time budget for the full city-scale sweep (the 1000-MSU point
#: alone takes ~1-2 s on the reference machine; 120 s absorbs any CI
#: runner slowdown while still catching an engine that fell off a cliff).
CITY_SCALE_BUDGET_S = 120.0


def test_bench_engine_speedup(benchmark):
    results = benchmark.pedantic(run_engine_bench, rounds=1)
    reference, fast = results
    speedup = engine_speedup(results)
    publish(
        benchmark, "engine_speedup", format_engine_bench(results),
        speedup=round(speedup, 2),
        reference_events_per_sec=round(reference.events_per_sec),
        fast_events_per_sec=round(fast.events_per_sec),
    )
    headline(
        "city_scale", "engine_speedup", round(speedup, 2), "x",
        reference_wall_s=round(reference.wall_seconds, 3),
        fast_wall_s=round(fast.wall_seconds, 3),
        streams=reference.streams,
    )
    headline(
        "city_scale", "fast_events_per_sec",
        round(fast.events_per_sec), "events/s",
        reference=round(reference.events_per_sec),
    )
    assert speedup >= 5.0, (
        f"engine overhaul speedup {speedup:.1f}x below the 5x headline"
    )


def test_bench_city_scale(benchmark):
    points = benchmark.pedantic(run_city_scale, rounds=1)
    publish(
        benchmark, "city_scale", format_city_scale(points),
        largest_msus=points[-1].n_msus,
        largest_viewers=points[-1].viewers,
        largest_wall_s=round(points[-1].wall_seconds, 2),
    )
    largest = points[-1]
    headline(
        "city_scale", "wall_s_1000msu_100k_viewers",
        round(largest.wall_seconds, 2), "s",
        sim_seconds=largest.sim_seconds,
        events=largest.events,
        events_per_sec=round(largest.events_per_sec),
    )
    assert largest.n_msus == 1000 and largest.viewers == 100_000
    assert sum(p.wall_seconds for p in points) <= CITY_SCALE_BUDGET_S
    # Delivered bandwidth must scale linearly with installation size
    # (MSUs share nothing but the Coordinator, abstract/§3.3).
    base = points[0]
    expected = base.aggregate_mb_s * (largest.viewers / base.viewers)
    assert abs(largest.aggregate_mb_s - expected) / expected < 0.05
