"""Gate a quick-scale benchmark run against its committed expectations.

Usage::

    python3 benchmarks/e2e/run.py --quick | python3 benchmarks/check_quick.py

Reads ``run.py``'s output (each workload's ``== name`` header and its
JSON result line), echoes it unchanged, and then checks every workload in
``quick_expect.json`` next to this file:

* the simulated end-to-end metrics under ``exact`` must equal the
  committed values to the last digit (they repeat exactly per seed and
  ``--seconds``);
* ``events_per_unit`` must not exceed ``events_per_unit_max``;
* the run must be correct with no failed operation.

Wall-clock metrics are printed by ``run.py`` and never gate.  Exits 1 on
any mismatch, a ceiling exceeded, or a workload missing from the run.
A change that legitimately moves a number updates ``quick_expect.json``
in the same commit, so the trajectory stays visible in the diff.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List

EXPECT = Path(__file__).with_name("quick_expect.json")


def parse_results(lines: Iterable[str]) -> Dict[str, dict]:
    """``{workload: result}`` from run.py output, echoing every line."""
    results: Dict[str, dict] = {}
    current = None
    for line in lines:
        sys.stdout.write(line)
        if line.startswith("== "):
            current = line.split()[1]
        elif line.startswith("{") and current is not None:
            results[current] = json.loads(line)
            current = None
    return results


def check(results: Dict[str, dict], expect: dict) -> List[str]:
    """Every way ``results`` falls short of ``expect``; empty when it passes."""
    problems = []
    for name, want in expect["workloads"].items():
        got = results.get(name)
        if got is None:
            problems.append(f"{name}: no result in the run")
            continue
        if not got["correct"] or got["failed"]:
            problems.append(f"{name}: correct={got['correct']} failed={got['failed']}")
        metrics = {key: entry["value"] for key, entry in got["metrics"].items()}
        for key, value in want["exact"].items():
            if metrics.get(key) != value:
                problems.append(f"{name}: {key} = {metrics.get(key)!r}, expected {value!r}")
        ceiling = want["events_per_unit_max"]
        if not metrics["events_per_unit"] <= ceiling:
            problems.append(
                f"{name}: events_per_unit = {metrics['events_per_unit']:.6g} "
                f"exceeds the ceiling {ceiling}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", nargs="?", type=argparse.FileType("r"),
                        default=sys.stdin, help="run.py --quick output (default stdin)")
    args = parser.parse_args(argv)
    results = parse_results(args.output)
    problems = check(results, json.loads(EXPECT.read_text()))
    for problem in problems:
        print(f"[quick-expect FAILED] {problem}")
    if not problems:
        print(f"[quick-expect ok] {len(results)} workloads match {EXPECT.name}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
