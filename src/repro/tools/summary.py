"""One-shot reproduction report: every experiment, one markdown file.

Usage::

    python -m repro.tools.summary --out report.md [--duration 30]

Runs every entry of ``repro.experiments.REGISTRY`` (the benchmark set, at
configurable scale) and emits a single markdown document with each
experiment's rendered output — the quickest way to audit the whole
reproduction after a change.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from repro.experiments import REGISTRY
from repro.tools.cli import positive_seconds

__all__ = ["generate", "main"]


def generate(duration: Optional[float] = None, names=None) -> str:
    """Run experiments and return the markdown report."""
    chosen = sorted(names) if names else list(REGISTRY)
    parts = [
        "# Calliope reproduction report",
        "",
        "Generated by `python -m repro.tools.summary`; every section is",
        "one of the paper's tables/figures (or a documented extension),",
        "regenerated from scratch.  See EXPERIMENTS.md for the",
        "paper-vs-measured commentary.",
        "",
    ]
    for name in chosen:
        experiment = REGISTRY[name]
        started = time.perf_counter()
        output = experiment.report(duration)
        elapsed = time.perf_counter() - started
        parts.append(f"## {name} — {experiment.paper_ref}")
        parts.append("")
        parts.append("```")
        parts.append(output)
        parts.append("```")
        parts.append(f"*(ran in {elapsed:.1f}s wall time)*")
        parts.append("")
    return "\n".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="calliope-summary",
        description="Regenerate every experiment into one markdown report.",
    )
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument(
        "--duration", type=positive_seconds, default=None,
        help="measurement window for the windowed experiments",
    )
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="subset of experiment names (default: all)",
    )
    args = parser.parse_args(argv)
    report = generate(args.duration, args.only)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    sys.exit(main())
