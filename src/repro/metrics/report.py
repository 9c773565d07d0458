"""Plain-text rendering of experiment results."""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.metrics.lateness import LatenessCdf

__all__ = ["format_cdf_table", "quantile_summary"]


def format_cdf_table(
    curves: Dict[str, LatenessCdf],
    points_ms: Iterable[int] = (0, 10, 25, 50, 100, 150, 200, 300),
) -> str:
    """Render several lateness CDFs as a table of checkpoints.

    This is the textual form of Graphs 1 and 2: one column per curve, one
    row per "milliseconds late" checkpoint.
    """
    names = list(curves)
    header = f"{'ms late':>8} | " + " | ".join(f"{n:>24}" for n in names)
    lines = [header, "-" * len(header)]
    for ms in points_ms:
        cells = [f"{curves[n].fraction_within(ms) * 100.0:>23.1f}%" for n in names]
        lines.append(f"{ms:>8} | " + " | ".join(cells))
    tail = [
        f"{'count':>8} | " + " | ".join(f"{curves[n].count:>24}" for n in names),
        f"{'max ms':>8} | " + " | ".join(f"{curves[n].max_late_ms:>24.1f}" for n in names),
    ]
    return "\n".join(lines + tail)


def quantile_summary(cdf: LatenessCdf) -> List[Tuple[str, float]]:
    """Key checkpoints the paper quotes in §3.2 text."""
    return [
        ("within 50 ms (%)", cdf.fraction_within(50) * 100.0),
        ("within 150 ms (%)", cdf.fraction_within(150) * 100.0),
        ("max lateness (ms)", cdf.max_late_ms),
    ]

