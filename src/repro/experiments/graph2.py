"""Experiments E3/E4 — Graph 2: variable-rate packet-delivery distribution.

The paper replays three NV-encoded files (average rates 650, 635 and
877 kbit/s; 50 ms-window peaks 2.0–5.4 Mbit/s) across 15, 16 and 17
streams, all started simultaneously.  Performance is substantially worse
than the constant-rate case for three reasons reproduced here: ~1 KiB
packets cost 4x the per-packet overhead of the 4 KiB CBR test, frames go
out as bursts of back-to-back packets, and the synchronized starts of the
automated test make one third of the streams transmit each burst at the
same moment.

E4 is the aside in §3.2.2: replaying only a *single* file with
synchronized starts, the MSU manages just 11 streams instead of 15.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Sequence

from repro.experiments import Experiment, headline
from repro.experiments._support import StreamingRig, run_streaming_workload
from repro.media.nv import NvEncoder
from repro.metrics.lateness import LatenessCdf
from repro.metrics.report import format_cdf_table
from repro.net.rtp import RtpHeader
from repro.units import kbit_per_s

__all__ = ["nv_file_packets", "run_graph2", "format_graph2", "NV_FILE_RATES_KBIT"]

#: The paper's three NV files' average rates (§3.2.2).
NV_FILE_RATES_KBIT = (650.0, 635.0, 877.0)


def nv_file_packets(avg_rate_kbit: float, duration: float, seed: int):
    """One recorded NV session: RTP-wrapped bursty packets with schedule."""
    encoder = NvEncoder(avg_rate=kbit_per_s(avg_rate_kbit), seed=seed)
    packets = []
    for i, packet in enumerate(encoder.packets(duration)):
        header = RtpHeader(
            payload_type=28,  # NV payload type
            sequence=i & 0xFFFF,
            timestamp=int(packet.delivery_us * 90 // 1000) & 0xFFFFFFFF,
            ssrc=seed,
        )
        packets.append((packet.delivery_us, header.pack() + packet.payload))
    return packets


def run_graph2(
    stream_counts: Sequence[int] = (15, 16, 17),
    duration: float = 60.0,
    single_file: bool = False,
    seed: int = 2,
) -> Dict[int, LatenessCdf]:
    """Run the Graph 2 sweep; returns stream count -> lateness CDF.

    ``single_file=True`` reproduces E4's degenerate test where every
    stream replays the same file in synchrony.
    """
    curves: Dict[int, LatenessCdf] = {}
    for n in stream_counts:
        rig = StreamingRig()
        rig.uncap_admission()
        ndisks = len(rig.msu.disk_ids())
        nfiles = 1 if single_file else len(NV_FILE_RATES_KBIT)
        for f in range(nfiles):
            packets = nv_file_packets(
                NV_FILE_RATES_KBIT[f], duration + 30.0, seed=seed + f
            )
            rig.cluster.load_content(
                f"nv-{f}", "rtp-video", packets, disk_index=f % ndisks
            )
        plan = [(f"nv-{i % nfiles}", "rtp-video") for i in range(n)]
        # The paper's automated test started every stream simultaneously
        # (stagger 0); §3.2.2 calls this out as unrealistically harsh.
        curves[n] = run_streaming_workload(rig, plan, duration, stagger_span=0.0)
    return curves


def format_graph2(curves: Dict[int, LatenessCdf], single_file: bool = False) -> str:
    """Render the sweep the way Graph 2 reads."""
    kind = "single file" if single_file else "3 NV files"
    named = {f"{n} variable-rate streams": c for n, c in curves.items()}
    return (
        f"Graph 2: Cumulative Packet Delivery Distribution "
        f"(variable bit rate, {kind}, synchronized starts)\n"
        + format_cdf_table(named)
    )


def _checks(curves: Dict[int, LatenessCdf]) -> None:
    # Paper shape: worse than constant rate, degrading from 15 to 17.
    assert curves[15].fraction_within(50) > curves[17].fraction_within(50)
    assert curves[15].fraction_within(25) < 0.9


def _headlines(curves: Dict[int, LatenessCdf]) -> list:
    return [
        headline(
            "within_50ms_at_15",
            round(curves[15].fraction_within(50), 4), "fraction",
        ),
    ]


def _single_file_checks(curves: Dict[int, LatenessCdf]) -> None:
    # E4: a single synchronized file caps out at 11 streams, not 15.
    assert curves[11].fraction_within(100) > curves[15].fraction_within(100)


def _single_file_headlines(curves: Dict[int, LatenessCdf]) -> list:
    return [
        headline(
            "within_100ms_at_11",
            round(curves[11].fraction_within(100), 4), "fraction",
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="graph2", table="graph2",
        paper_ref="Graph 2: variable-rate delivery distribution",
        run=run_graph2, render=format_graph2,
        checks=_checks, headlines=_headlines, duration_arg="duration",
    ),
    Experiment(
        name="graph2-single-file", table="graph2_single_file",
        paper_ref="§3.2.2 single-file capacity drop",
        run=partial(run_graph2, stream_counts=(11, 15), single_file=True),
        render=partial(format_graph2, single_file=True),
        checks=_single_file_checks, headlines=_single_file_headlines,
        duration_arg="duration",
    ),
)
