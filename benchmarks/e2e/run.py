"""The repo benchmark: four real-stack workloads, end to end and by layer.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace [0|1]] [--quick]

With ``--workload`` the last line of standard output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it
all four workloads run in turn.  Every metric is also printed by name
with its unit, followed by the output checks; a failed check makes the
exit code non-zero.

Each workload runs in child processes of this one, so that ``setup_s``
starts at a cold interpreter and ``peak_rss_mb`` belongs to one workload.
Children are started one at a time with a time limit, each in its own
process group, and none outlives the command (``_assert_no_children``).
"""

import time

_PROCESS_START = time.perf_counter()  # before any import of the program

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

#: Keep in step with BENCHMARK.json (test_e2e_smoke.py checks it).
WORKLOAD_NAMES = ("cbr22", "zipf_mcast_edge", "rec_play_mix", "ctrl_storm")
RUN_SECONDS = 6.0
QUICK_SECONDS = 0.4
#: Measuring processes per run; the host metrics are their medians (the
#: simulated ones must agree exactly).  A shared two-core VM moves a single
#: process's speed by +-10 % from one minute to the next.
MEASURE_SAMPLES = 3
#: Cold set-ups per run, the measuring processes included; ``setup_s`` is
#: their median.
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 170.0
#: Request-span records kept per trace file.
SPAN_RECORDS = 5000


# -- child side: one phase of one workload ------------------------------------


def _import_program():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import repro  # noqa: F401
    except ImportError as err:
        sys.exit(f"cannot import the program from {ROOT / 'src'}: {err}")


def _child(args) -> int:
    """Run one phase in this process and print its result as JSON."""
    _import_program()
    import resource

    from layers import LayerTrace
    from metrics import sim_digest, simulated_metrics
    from workloads import WORKLOADS

    traced = args.phase == "trace"
    workload = WORKLOADS[args.workload](args.seed, args.seconds, traced)
    workload.setup()
    result = {
        "setup_s": time.perf_counter() - _PROCESS_START,
        "host_s": workload.host_s,
    }
    if args.phase != "setup":
        sim = workload.sim
        events_before = sim.events_executed
        hook = LayerTrace() if traced else None
        began = time.perf_counter()
        if hook is not None:
            sim.trace = hook
            hook.start()
        workload.run()
        if hook is not None:
            hook.stop()
            sim.trace = None
        wall = time.perf_counter() - began
        events = sim.events_executed - events_before
        workload.finish()
        if args.force_fail:
            workload.checks.append(("forced failure (--force-fail)", False, ""))
        simulated, notes = simulated_metrics(workload, events)
        result.update(
            wall_s=wall,
            sim_s=sim.now - workload.t0,
            simulated=simulated,
            notes=notes,
            unit=workload.UNIT,
            checks=workload.checks,
            sim_digest=sim_digest(simulated, sim.events_executed, sim.now),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if hook is not None:
            journal = workload.journal
            result["layers"] = hook.totals(1)
            result["process_layers"] = hook.totals(0)
            result["cells"] = [
                [owner, frame, events, host_s]
                for (owner, frame), (events, host_s) in sorted(hook.cells.items())
            ]
            result["host_s"]["recovery.append_s"] = getattr(journal, "append_s", 0.0)
            result["host_s"]["recovery.snapshot_s"] = getattr(journal, "snapshot_s", 0.0)
            result["spans"] = [
                [i, r.kind, r.due, r.scheduled, r.first, r.ended, r.outcome]
                for i, r in enumerate(workload.requests[:SPAN_RECORDS])
            ]
    print(json.dumps(result))
    return 0


# -- parent side: process hygiene ---------------------------------------------


def _run_child(phase: str, args) -> dict:
    """One blocking child in its own process group; its JSON result."""
    command = [
        sys.executable, str(HERE / "run.py"), "--phase", phase,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
    ]
    if args.force_fail:
        command.append("--force-fail")
    # No byte-code caches: a run writes nothing outside out/, and every
    # set-up sample compiles the program from source, the first included.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:  # timeout or interrupt: take the whole group down
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    if proc.returncode != 0:
        raise SystemExit(
            f"{args.workload}: the {phase} phase exited with {proc.returncode}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def _assert_no_children() -> None:
    """Fail loudly if any child of this process is still around."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise SystemExit(f"process hygiene: child {pid or '(running)'} was left behind")


# -- parent side: one workload ------------------------------------------------


def _end_to_end(args, plain: dict, checks: list) -> dict:
    """The end-to-end values: medians over the measuring processes."""
    plains = [plain] + [
        _run_child("measure", args) for _ in range(MEASURE_SAMPLES - 1)
    ]
    checks.append((
        f"{MEASURE_SAMPLES} measuring processes simulate the same thing",
        len({p["sim_digest"] for p in plains}) == 1, "",
    ))
    setups = [p["setup_s"] for p in plains] + [
        _run_child("setup", args)["setup_s"]
        for _ in range(SETUP_SAMPLES - MEASURE_SAMPLES)
    ]
    rates = [p["sim_s"] / p["wall_s"] for p in plains]
    print(f"   setup_s samples: {' '.join(f'{s:.3f}' for s in setups)}")
    print(f"   sim_s_per_wall_s samples: {' '.join(f'{r:.3f}' for r in rates)}")
    return dict(
        plain["simulated"],
        setup_s=statistics.median(setups),
        sim_s_per_wall_s=statistics.median(rates),
        peak_rss_mb=statistics.median(p["peak_rss_mb"] for p in plains),
    )


def _per_layer(args, plain: dict, checks: list, should_move: dict) -> dict:
    """The per-layer values of a traced run; writes ``trace-<workload>.json``."""
    traced = _run_child("trace", args)
    layers = traced["layers"]
    events = traced["notes"]["events"]
    layer_events = sum(v["events"] for v in layers.values())
    layer_host = sum(v["host_s"] for v in layers.values())
    process_events = sum(v["events"] for v in traced["process_layers"].values())
    checks += [(f"traced run: {label}", ok, detail) for label, ok, detail in traced["checks"]]
    checks += [
        ("traced and untraced runs simulate the same thing",
         traced["sim_digest"] == plain["sim_digest"], ""),
        ("layer events sum to events_executed, by frame and by process",
         layer_events == process_events == events,
         f"{layer_events} and {process_events} vs {events}"),
        ("layer host_s sums to the traced wall time within 2 %",
         abs(layer_host / traced["wall_s"] - 1.0) <= 0.02,
         f"{layer_host:.3f} vs {traced['wall_s']:.3f}"),
    ]
    values = dict(traced["simulated"], **traced["host_s"])
    for layer, v in layers.items():
        values[f"{layer}.events"] = v["events"]
        values[f"{layer}.host_s"] = v["host_s"]
    for layer, v in traced["process_layers"].items():
        values[f"{layer}.proc_events"] = v["events"]
        values[f"{layer}.proc_host_s"] = v["host_s"]
    values["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    values["sim.us_per_event"] = 1e6 * plain["wall_s"] / plain["notes"]["events"]
    trace_file = OUT / f"trace-{args.workload}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "sim_digest": traced["sim_digest"],
        "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
        "trace_overhead_frac": values["trace_overhead_frac"],
        "events_executed": events,
        "layers": layers,
        "process_layers": traced["process_layers"],
        "cell_fields": ["process_layer", "frame_layer", "events", "host_s"],
        "cells": traced["cells"],
        "metrics": {k: values[k] for k in should_move},
        "should_move": should_move,
        "span_fields": ["request", "kind", "due", "scheduled", "first", "ended", "outcome"],
        "spans": traced["spans"],
    }, indent=1))
    print(f"   per-layer aggregates written to {trace_file.relative_to(ROOT)}")
    return values


def _run_workload(args) -> dict:
    """Measure (or trace) one workload; the driver's result object."""
    sys.path[:0] = [str(HERE)]
    from metrics import END_TO_END, PER_LAYER

    OUT.mkdir(exist_ok=True)
    plain = _run_child("measure", args)
    checks = list(plain["checks"])
    notes = plain["notes"]
    print(f"== {args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"({plain['sim_s']:.1f} simulated s in {plain['wall_s']:.2f} wall s)")
    if args.trace:
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        values = _per_layer(
            args, plain, checks, {name: v[2] for name, v in PER_LAYER.items()}
        )
    else:
        units = {name: unit for name, (unit, _, _, _) in END_TO_END.items()}
        values = _end_to_end(args, plain, checks)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"   {name:<28} {entry['value']:>16.6g} {entry['unit']}")
    print(f"   unit of work: {plain['unit']}; {notes['units']} units, "
          f"{notes['events']} events; requests {notes['outcomes']}")
    print(f"   startup_ms_hi is p{notes['startup_hi_percentile']:.3f} of "
          f"{notes['startup_samples']} requests; late_ms_hi is "
          f"p{notes['late_hi_percentile']:.3f} of {notes['late_samples']} samples; "
          "generator lateness 0 (schedules are in simulated time)")
    print(f"   sim_digest {plain['sim_digest']}")
    for label, passed, detail in checks:
        print(f"   [{'ok' if passed else 'FAILED'}] {label}"
              + (f" ({detail})" if detail and not passed else ""))
    # A viewer who gives up in an overloaded queue was answered as the
    # admission policy intends and is counted by served_frac; `failed`
    # counts the requests the program got wrong.
    failed = sum(
        n for outcome, n in notes["outcomes"].items()
        if outcome in ("refused", "short", "open")
    )
    return {
        "correct": all(passed for _, passed, _ in checks),
        "attempted": max(1, notes["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"size of the measured phase (default {RUN_SECONDS:g})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help=f"a few simulated seconds (--seconds {QUICK_SECONDS:g})")
    parser.add_argument("--phase", choices=("measure", "setup", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--force-fail", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else RUN_SECONDS
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.phase:
        return _child(args)
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    all_correct = True
    try:
        for name in names:
            args.workload = name
            result = _run_workload(args)
            all_correct &= result["correct"]
            print(json.dumps(result))
    finally:
        _assert_no_children()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
