"""Experiment E2 — Graph 1: constant-rate packet-delivery distribution.

The paper: an MSU with two disks on one HBA delivers 22, 23 and 24
constant-rate 1.5 Mbit/s streams of 4 KiB packets for six minutes.  At 22
streams service is very good (only 0.4 % of packets more than 50 ms late,
none beyond 150 ms); 23 degrades gradually; at 24 only 38 % of packets
make the 50 ms mark — the MSU runs at ~90 % of the baseline's 4.7 MB/s.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments import Experiment, headline
from repro.experiments._support import StreamingRig, run_streaming_workload
from repro.media.mpeg import MpegEncoder, packetize_cbr
from repro.metrics.lateness import LatenessCdf
from repro.metrics.report import format_cdf_table
from repro.units import CBR_PACKET_SIZE, MPEG1_RATE

__all__ = ["run_graph1", "format_graph1", "PAPER_GRAPH1"]

#: Paper checkpoints quoted in §3.2.1 text.
PAPER_GRAPH1 = {
    22: {"within_50ms": 99.6, "max_ms": 150.0},
    24: {"within_50ms": 38.0},
}


def run_graph1(
    stream_counts=(22, 23, 24),
    duration: float = 60.0,
    seed: int = 1,
) -> Dict[int, LatenessCdf]:
    """Run the Graph 1 sweep; returns stream count -> lateness CDF.

    ``duration`` is the measured window (the paper ran six minutes; the
    distribution is stationary well before that, so benchmarks default to
    one minute — pass 360 for the full-length run).
    """
    curves: Dict[int, LatenessCdf] = {}
    for n in stream_counts:
        rig = StreamingRig()
        rig.uncap_admission()
        # One movie file per disk; streams alternate disks, as a balanced
        # installation would place them.
        encoder = MpegEncoder(rate=MPEG1_RATE, seed=seed)
        bitstream = encoder.bitstream(duration + 30.0)
        packets = packetize_cbr(bitstream, MPEG1_RATE, CBR_PACKET_SIZE)
        ndisks = len(rig.msu.disk_ids())
        for d in range(ndisks):
            rig.cluster.load_content(f"movie-d{d}", "mpeg1", packets, disk_index=d)
        plan = [(f"movie-d{i % ndisks}", "mpeg1") for i in range(n)]
        # Constant-rate clients arrive independently: spread schedules over
        # one packet period so sends do not burst in lockstep.
        curves[n] = run_streaming_workload(
            rig, plan, duration, stagger_span=2.0, seed=seed
        )
    return curves


def format_graph1(curves: Dict[int, LatenessCdf]) -> str:
    """Render the sweep the way Graph 1 reads."""
    named = {f"{n} x 1.5 Mbit/s streams": c for n, c in curves.items()}
    return (
        "Graph 1: Cumulative Packet Delivery Distribution "
        "(constant bit rate)\n" + format_cdf_table(named)
    )


def _checks(curves: Dict[int, LatenessCdf]) -> None:
    # Paper: 22 streams excellent (99.6% within 50 ms, none past 150 ms);
    # 23 degrades gradually; 24 collapses.
    assert curves[22].fraction_within(50) > 0.99
    assert curves[22].max_late_ms <= 150.0
    assert curves[23].fraction_within(50) > 0.8
    assert curves[24].fraction_within(50) < 0.5


def _headlines(curves: Dict[int, LatenessCdf]) -> list:
    return [
        headline(
            "within_50ms_at_22",
            round(curves[22].fraction_within(50), 4), "fraction",
            paper_claim=0.996,
        ),
        headline(
            "max_late_ms_at_22", round(curves[22].max_late_ms, 1), "ms",
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="graph1", table="graph1",
        paper_ref="Graph 1: constant-rate delivery distribution",
        run=run_graph1, render=format_graph1,
        checks=_checks, headlines=_headlines, duration_arg="duration",
    ),
)
