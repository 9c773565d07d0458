"""Experiment E9 — §2.2.1: timer-granularity jitter.

"Calliope does not use a real-time operating system and FreeBSD timers
have only 10 ms granularity, so delivery times are only approximate. ...
Calliope will not add more than 150 milliseconds of jitter in the worst
case" — and the paper's workaround for the clock bug was to keep time with
the Pentium cycle counter instead.

The ablation runs the same comfortable constant-rate workload under a
10 ms timer, a 1 ms timer, and a precise (cycle-counter) timer, and
compares the lateness the MSU's own scheduling adds.
"""

from __future__ import annotations

from typing import Dict

from repro.core.cluster import ClusterConfig
from repro.experiments import Experiment, headline
from repro.experiments._support import StreamingRig, run_streaming_workload
from repro.hardware.params import TimerParams
from repro.media.mpeg import MpegEncoder, packetize_cbr
from repro.metrics.lateness import LatenessCdf
from repro.metrics.report import format_cdf_table
from repro.units import CBR_PACKET_SIZE, MPEG1_RATE, ms

__all__ = ["run_timer_jitter", "format_timer_jitter"]

PAPER_WORST_CASE_MS = 150.0


def run_timer_jitter(
    granularities_ms=(10.0, 1.0, 0.0),
    streams: int = 16,
    duration: float = 30.0,
    seed: int = 4,
) -> Dict[float, LatenessCdf]:
    """Sweep the software-clock granularity; returns gran (ms) -> CDF."""
    curves: Dict[float, LatenessCdf] = {}
    for gran in granularities_ms:
        rig = StreamingRig(ClusterConfig())
        rig.msu.machine.timer.params = TimerParams(granularity=ms(gran))
        rig.uncap_admission()
        encoder = MpegEncoder(rate=MPEG1_RATE, seed=seed)
        packets = packetize_cbr(
            encoder.bitstream(duration + 30.0), MPEG1_RATE, CBR_PACKET_SIZE
        )
        ndisks = len(rig.msu.disk_ids())
        for d in range(ndisks):
            rig.cluster.load_content(f"movie-d{d}", "mpeg1", packets, disk_index=d)
        plan = [(f"movie-d{i % ndisks}", "mpeg1") for i in range(streams)]
        curves[gran] = run_streaming_workload(
            rig, plan, duration, stagger_span=2.0, seed=seed
        )
    return curves


def format_timer_jitter(curves: Dict[float, LatenessCdf]) -> str:
    """Render the sweep."""
    named = {
        ("cycle counter" if g == 0 else f"{g:g} ms timer"): c
        for g, c in curves.items()
    }
    return (
        "Timer-granularity jitter (16 constant-rate streams)\n"
        + format_cdf_table(named, points_ms=(0, 5, 10, 25, 50, 150))
    )


def _checks(curves: Dict[float, LatenessCdf]) -> None:
    # Coarser clocking adds jitter, but comfortably inside the paper's
    # 150 ms worst-case bound.
    assert curves[10.0].max_late_ms > curves[0.0].max_late_ms
    assert curves[10.0].max_late_ms <= 150.0


def _headlines(curves: Dict[float, LatenessCdf]) -> list:
    return [
        headline(
            "max_late_ms_10ms_timer",
            round(curves[10.0].max_late_ms, 2), "ms",
            cycle_counter=round(curves[0.0].max_late_ms, 2),
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="timer", table="timer_jitter",
        paper_ref="§2.2.1 timer-granularity jitter",
        run=run_timer_jitter, render=format_timer_jitter,
        checks=_checks, headlines=_headlines, duration_arg="duration",
    ),
)
