"""Benchmark E9 — regenerates the timer-granularity jitter sweep (§2.2.1)."""

from benchmarks.conftest import headline, publish
from repro.experiments.timer_jitter import format_timer_jitter, run_timer_jitter


def test_bench_timer(benchmark):
    curves = benchmark.pedantic(
        run_timer_jitter,
        kwargs={"granularities_ms": (10.0, 1.0, 0.0), "duration": 30.0},
        rounds=1,
    )
    publish(
        benchmark, "timer_jitter", format_timer_jitter(curves),
        max_ms_10ms_timer=curves[10.0].max_late_ms,
        max_ms_cycle_counter=curves[0.0].max_late_ms,
    )
    headline(
        "timer_jitter", "max_late_ms_10ms_timer",
        round(curves[10.0].max_late_ms, 2), "ms",
        cycle_counter=round(curves[0.0].max_late_ms, 2),
    )
    # Coarser clocking adds jitter, but comfortably inside the paper's
    # 150 ms worst-case bound.
    assert curves[10.0].max_late_ms > curves[0.0].max_late_ms
    assert curves[10.0].max_late_ms <= 150.0
