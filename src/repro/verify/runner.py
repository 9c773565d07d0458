"""Execute, shrink, and persist chaos schedules.

A schedule run is a pure function of the schedule (the harness derives
everything else from its seed), so minimization is plain delta
debugging: greedily drop chunks of ops, keep any candidate that still
violates an invariant, and halve the chunk until single ops stick.  The
result is the smallest fault plan this greedy pass can find — typically
one to three ops — written to a replayable JSON repro file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.verify.faults import ChaosSchedule
from repro.verify.harness import ChaosCluster, ChaosConfig, ChaosReport
from repro.verify.invariants import InvariantRegistry

__all__ = ["run_schedule", "shrink", "write_repro", "load_repro"]


def run_schedule(
    schedule: ChaosSchedule,
    config: Optional[ChaosConfig] = None,
    registry: Optional[InvariantRegistry] = None,
) -> ChaosReport:
    """Run one schedule on a fresh cluster; report violations found."""
    return ChaosCluster(schedule, config, registry).run()


def shrink(
    schedule: ChaosSchedule,
    config: Optional[ChaosConfig] = None,
    max_runs: int = 80,
) -> Tuple[ChaosSchedule, ChaosReport]:
    """Minimize a failing schedule; returns (smallest plan, its report).

    Uses ddmin-style greedy chunk removal: each pass tries to delete
    windows of ops (halving the window until 1) and keeps any deletion
    that still fails, repeating to a fixpoint or the ``max_runs``
    budget.  A schedule that passes is returned unchanged.
    """
    report = run_schedule(schedule, config)
    runs = 1
    if report.ok:
        return schedule, report
    current, best = schedule, report
    improved = True
    while improved and runs < max_runs:
        improved = False
        chunk = max(1, len(current) // 2)
        while runs < max_runs:
            start = 0
            while start < len(current) and runs < max_runs:
                stop = min(start + chunk, len(current))
                candidate = current.without(range(start, stop))
                runs += 1
                verdict = run_schedule(candidate, config)
                if not verdict.ok:
                    # Keep the deletion; the window now holds fresh ops.
                    current, best = candidate, verdict
                    improved = True
                else:
                    start = stop
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
    return current, best


def write_repro(
    schedule: ChaosSchedule,
    path: Union[str, Path],
    report: Optional[ChaosReport] = None,
) -> Path:
    """Persist a schedule (plus the violations it provokes) as JSON."""
    payload = schedule.to_dict()
    if report is not None:
        payload["violations"] = [str(v) for v in report.violations]
        payload["stats"] = dict(report.stats)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_repro(path: Union[str, Path]) -> ChaosSchedule:
    """Load a schedule previously written by :func:`write_repro`."""
    return ChaosSchedule.from_dict(json.loads(Path(path).read_text()))
