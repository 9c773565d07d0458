"""How steady is the benchmark?  Run the full set twice and compare.

    python3 benchmarks/e2e/spread.py [--seeds 10] [--held-out 1000]
                                     [--baseline benchmarks/e2e/baseline.json]

For every workload the benchmark is run once per seed (seeds 1..N), and
the whole set is run a second time with the same seeds.  Per workload and
end-to-end metric the table shows both medians, how much worse the second
is than the first, the spread of each pass (distance between the first
and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) and the metric's bound.
Simulated metrics and ``sim_digest`` must agree exactly between the two
passes, seed by seed.  One more run on a held-out seed is recorded beside
them.  ``--baseline`` writes the medians with the machine's description.
"""

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE)]

from metrics import END_TO_END, SIMULATED  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402


def run_once(workload: str, seed: int) -> dict:
    """One driver-style run; its metrics and digest."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    digest = re.search(r"sim_digest ([0-9a-f]{64})", done.stdout).group(1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return {"values": values, "digest": digest, "failed": result["failed"]}


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--held-out", type=int, default=1000)
    parser.add_argument("--baseline", type=pathlib.Path)
    args = parser.parse_args()
    seeds = list(range(1, args.seeds + 1))
    passes = []
    for number in (1, 2):
        runs = {}
        for workload in WORKLOAD_NAMES:
            runs[workload] = [run_once(workload, seed) for seed in seeds]
            print(f"# pass {number}: {workload} done", file=sys.stderr)
        passes.append(runs)
    held_out = {w: run_once(w, args.held_out) for w in WORKLOAD_NAMES}

    ok = True
    print(f"{'workload':<16} {'metric':<18} {'median 1':>12} {'median 2':>12} "
          f"{'2 worse by':>10} {'spread 1':>9} {'spread 2':>9} {'bound':>6}  verdict")
    summary = {}
    for workload in WORKLOAD_NAMES:
        first, second = (p[workload] for p in passes)
        inexact = [
            seed for seed, a, b in zip(seeds, first, second)
            if a["digest"] != b["digest"]
            or any(a["values"][k] != b["values"][k] for k in SIMULATED)
        ]
        summary[workload] = {}
        for metric, (unit, better, bound, kind) in END_TO_END.items():
            one = [r["values"][metric] for r in first]
            two = [r["values"][metric] for r in second]
            m1, m2 = statistics.median(one), statistics.median(two)
            s1, s2 = spread(one), spread(two)
            drift = worse_by(m1, m2, better)
            # setup_s is judged on its medians only, as the driver does.
            widest = 0.0 if metric == "setup_s" else max(s1, s2)
            if kind == "simulated" and inexact:
                verdict = "NOT EXACT"
            elif widest > bound or drift > bound:
                verdict = "UNSTEADY"
            elif widest > bound / 3:
                verdict = "ok (spread over a third of the bound)"
            else:
                verdict = "ok"
            ok &= verdict.startswith("ok")
            print(f"{workload:<16} {metric:<18} {m1:>12.6g} {m2:>12.6g} "
                  f"{drift:>+10.2%} {s1:>9.2%} {s2:>9.2%} {bound:>6.0%}  {verdict}")
            summary[workload][metric] = {
                "unit": unit, "better": better, "bound": bound, "kind": kind,
                "median": m1, "median_second_pass": m2,
                "spread": s1, "spread_second_pass": s2,
                "held_out": held_out[workload]["values"][metric],
            }
        print(f"{workload:<16} simulated metrics and sim_digest, pass 1 vs pass 2, "
              f"seed by seed: {'identical' if not inexact else f'DIFFER on seeds {inexact}'}")
        print(f"{workload:<16} failed operations: "
              f"{sum(r['failed'] for r in first + second)}")
    if args.baseline:
        import numpy

        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip() or "unknown"
        args.baseline.write_text(json.dumps({
            "schema": "calliope-e2e-baseline-v1",
            "measured_on_commit": commit,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.platform(),
            "seeds": seeds,
            "held_out_seed": args.held_out,
            "sim_digests": {
                w: {str(s): r["digest"] for s, r in zip(seeds, passes[0][w])}
                | {str(args.held_out): held_out[w]["digest"]}
                for w in WORKLOAD_NAMES
            },
            "workloads": summary,
            "values_by_seed": [
                {w: [r["values"] for r in runs[w]] for w in WORKLOAD_NAMES}
                for runs in passes
            ],
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
