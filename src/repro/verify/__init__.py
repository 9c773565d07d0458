"""Deterministic chaos harness with cross-subsystem invariant checking.

Three pieces, composable but usable alone:

* :mod:`repro.verify.invariants` — an :class:`InvariantRegistry` where
  each subsystem registers machine-checkable safety properties, runnable
  mid-simulation and at drain.
* :mod:`repro.verify.faults` — a seed-deterministic
  :class:`ChaosSchedule`: MSU hangs/crashes/power cycles, network
  loss/partition/delay, disk slowdowns, client churn and VCR storms,
  injected at simulated times through the existing sim engine.
* :mod:`repro.verify.runner` — runs schedules against a full cluster,
  shrinks a failing schedule to a minimal failing plan, and round-trips
  replayable repro files.
"""

from repro.verify.faults import FAULT_KINDS, ChaosSchedule, FaultOp
from repro.verify.harness import ChaosCluster, ChaosConfig, ChaosReport
from repro.verify.invariants import (
    InvariantRegistry,
    Violation,
    builtin_registry,
)
from repro.verify.runner import (
    load_repro,
    run_schedule,
    shrink,
    write_repro,
)

__all__ = [
    "FAULT_KINDS",
    "ChaosCluster",
    "ChaosConfig",
    "ChaosReport",
    "ChaosSchedule",
    "FaultOp",
    "InvariantRegistry",
    "Violation",
    "builtin_registry",
    "load_repro",
    "run_schedule",
    "shrink",
    "write_repro",
]
