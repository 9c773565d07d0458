"""Experiment E14 (extension) — what the viewer actually sees.

§2.2.1 argues the server may be sloppy because clients buffer: "A 200
KByte buffer will hold more than one second of 1.5 Mbit/sec video.
Calliope will not add more than 150 milliseconds of jitter in the worst
case and any network that introduces more than 850 milliseconds of jitter
is probably not usable."

This experiment closes the loop: it replays the Graph 1 workload, feeds
every stream's *client-side arrival trace* through the paper's 200 KB /
one-second playout buffer, and reports underflows (still frames).  At 22
streams nobody underflows; past the MSU's capacity cliff the buffer can
no longer hide the server's lateness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.clients.playback import PlayoutBuffer
from repro.experiments import Experiment, headline
from repro.experiments._support import StreamingRig, run_streaming_workload
from repro.media.mpeg import MpegEncoder, packetize_cbr
from repro.units import CBR_PACKET_SIZE, MPEG1_RATE

__all__ = ["PlayoutPoint", "run_playout", "format_playout"]


@dataclass(frozen=True)
class PlayoutPoint:
    """Client-experience summary for one stream count."""

    streams: int
    underflowing_streams: int
    total_underflows: int
    total_stall_seconds: float
    server_within_50ms: float


def run_playout(
    stream_counts: Sequence[int] = (22, 24),
    duration: float = 45.0,
    buffer_bytes: int = 200_000,
    startup_delay: float = 1.0,
    seed: int = 1,
) -> List[PlayoutPoint]:
    """Graph 1's workload, judged by the client playout buffer."""
    points = []
    for n in stream_counts:
        rig = StreamingRig()
        rig.uncap_admission()
        encoder = MpegEncoder(rate=MPEG1_RATE, seed=seed)
        packets = packetize_cbr(
            encoder.bitstream(duration + 30.0), MPEG1_RATE, CBR_PACKET_SIZE
        )
        ndisks = len(rig.msu.disk_ids())
        for d in range(ndisks):
            rig.cluster.load_content(f"movie-d{d}", "mpeg1", packets, disk_index=d)
        plan = [(f"movie-d{i % ndisks}", "mpeg1") for i in range(n)]
        cdf = run_streaming_workload(rig, plan, duration, stagger_span=2.0, seed=seed)
        playout = PlayoutBuffer(
            capacity_bytes=buffer_bytes, rate=MPEG1_RATE, startup_delay=startup_delay
        )
        underflowing = 0
        underflows = 0
        stall = 0.0
        for i in range(n):
            stats = rig.client.ports[f"port{i}"].stats
            report = playout.evaluate(stats.arrivals)
            if report.underflows:
                underflowing += 1
                underflows += report.underflows
                stall += report.stall_seconds
        points.append(
            PlayoutPoint(
                streams=n,
                underflowing_streams=underflowing,
                total_underflows=underflows,
                total_stall_seconds=stall,
                server_within_50ms=cdf.fraction_within(50),
            )
        )
    return points


def format_playout(points: List[PlayoutPoint]) -> str:
    """Render the viewer-experience table."""
    lines = [
        "Client playout quality (200 KB buffer, 1 s startup delay, §2.2.1)",
        f"{'streams':>8} | {'server <=50ms':>13} | {'stalling clients':>16} | "
        f"{'stalls':>6} | {'stall seconds':>13}",
    ]
    for p in points:
        lines.append(
            f"{p.streams:>8} | {p.server_within_50ms * 100.0:>12.1f}% | "
            f"{p.underflowing_streams:>16} | {p.total_underflows:>6} | "
            f"{p.total_stall_seconds:>12.2f}s"
        )
    lines.append(
        "(inside capacity the buffer hides everything; past the Graph 1"
        " cliff the lateness becomes visible still-frames)"
    )
    return "\n".join(lines)


def _checks(points: List[PlayoutPoint]) -> None:
    inside, beyond = points
    # §2.2.1's buffer argument holds inside capacity: zero still-frames.
    assert inside.underflowing_streams == 0
    # Past the Graph 1 cliff the buffer can no longer hide the server.
    assert beyond.underflowing_streams > inside.underflowing_streams
    assert beyond.total_underflows > 0


def _headlines(points: List[PlayoutPoint]) -> list:
    inside, beyond = points
    return [
        headline(
            "underflows_at_22", inside.total_underflows, "still-frames",
        ),
        headline(
            "underflows_at_24", beyond.total_underflows, "still-frames",
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="playout", table="playout",
        paper_ref="§2.2.1 client playout quality across the cliff (extension)",
        run=run_playout, render=format_playout,
        checks=_checks, headlines=_headlines, duration_arg="duration",
    ),
)
