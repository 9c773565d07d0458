"""Benchmark harness helpers.

Every benchmark regenerates one of the paper's tables or figures and
prints the same rows/series the paper reports (run with ``-s`` to see the
tables inline; they are also attached to the benchmark JSON via
``extra_info`` and written under ``benchmarks/results/``).
"""

from __future__ import annotations

import json
import pathlib

import pytest

# The experiments' checks are plain asserts in src/: rewrite them so that
# a failing bound reports its operands.
pytest.register_assert_rewrite("repro.experiments")

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: One consolidated perf-trajectory artifact all benchmarks append to.
#: Every experiment publishes its headline numbers here under a single
#: schema, so a CI run (or a human) can diff the whole perf surface
#: across commits from one JSON file instead of scraping the rendered
#: tables.
TRAJECTORY_SCHEMA = "calliope-bench-trajectory-v1"
TRAJECTORY_PATH = RESULTS_DIR / "BENCH_trajectory.json"


def publish(benchmark, name: str, text: str) -> None:
    """Print, persist and attach one experiment's rendered output."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    benchmark.extra_info["report"] = text


def headline(bench: str, metric: str, value, units: str, **context) -> None:
    """Record one headline number in the shared trajectory artifact.

    Entries are keyed on ``(bench, metric)`` — re-running a benchmark
    replaces its previous numbers, so the file always holds exactly one
    row per headline across a whole ``pytest benchmarks`` run.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    entries = []
    try:
        doc = json.loads(TRAJECTORY_PATH.read_text())
        if isinstance(doc, dict) and doc.get("schema") == TRAJECTORY_SCHEMA:
            entries = [
                e for e in doc.get("entries", [])
                if (e.get("bench"), e.get("metric")) != (bench, metric)
            ]
    except (OSError, ValueError):
        pass
    entries.append({
        "bench": bench,
        "metric": metric,
        "value": value,
        "units": units,
        "context": dict(context),
    })
    entries.sort(key=lambda e: (e["bench"], e["metric"]))
    TRAJECTORY_PATH.write_text(
        json.dumps({"schema": TRAJECTORY_SCHEMA, "entries": entries},
                   indent=2, sort_keys=True) + "\n"
    )
