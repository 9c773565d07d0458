"""Alternating base/change pairs of the repo benchmark, and the verdict.

    python3 benchmarks/pairs.py BASE CHANGE --workload NAME
                                [--seconds S] [--seed N]

Both git revisions are extracted with ``git archive`` into a temporary
directory, and ``benchmarks/e2e/run.py --workload NAME`` runs from each
extracted tree in turn, for ten pairs.  The side that runs first
alternates from pair to pair, so drift in the host's speed falls on both
sides alike.  The metric is ``sim_s_per_wall_s`` (higher is better).  The
report gives each side's median and quartiles, the wins of the change (a
tie counts for neither side), every pair's change/base ratio and the
verdict of the rule for claiming a gain: the change wins at least nine
tenths of the pairs, and its median beats the base's by more than the
distance between the base's quartiles.

Every child (``git archive`` and each benchmark run) is a blocking child
in its own process group, killed as a group on timeout, and none outlives
the command (``os.waitpid(-1)`` is asserted empty at the end).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from typing import List, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
METRIC = "sim_s_per_wall_s"  # higher is better
PAIRS = 10
#: Share of the pairs the change must win to claim a gain.
WIN_SHARE = 0.9
#: Seconds allowed for one child (``git archive`` or one benchmark run).
RUN_TIMEOUT = 1800.0


@dataclass(frozen=True)
class Side:
    """One side's runs: median and quartiles (inclusive method)."""

    values: tuple
    q1: float
    median: float
    q3: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Side":
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return cls(tuple(values), q1, median, q3)

    @property
    def spread(self) -> float:
        return self.q3 - self.q1


@dataclass(frozen=True)
class Verdict:
    base: Side
    change: Side
    wins: int
    ratios: tuple
    needed: int
    gain: bool


def judge(base: Sequence[float], change: Sequence[float]) -> Verdict:
    """Apply the pair rule to ``base[i]`` / ``change[i]``, pair by pair."""
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("need two or more complete pairs")
    wins = sum(1 for b, c in zip(base, change) if c > b)
    ratios = tuple(c / b for b, c in zip(base, change))
    b, c = Side.of(base), Side.of(change)
    needed = math.ceil(WIN_SHARE * len(base))
    gain = wins >= needed and c.median - b.median > b.spread
    return Verdict(b, c, wins, ratios, needed, gain)


def report(verdict: Verdict) -> str:
    """The printed table: both sides, the wins, the ratios, the verdict."""
    lines = [f"{'side':<8}{'q1':>12}{'median':>12}{'q3':>12}   {METRIC}"]
    for name, side in (("base", verdict.base), ("change", verdict.change)):
        lines.append(f"{name:<8}{side.q1:>12.4f}{side.median:>12.4f}{side.q3:>12.4f}")
    pairs = len(verdict.ratios)
    lines.append(f"wins: {verdict.wins}/{pairs} (a gain needs {verdict.needed})")
    lines.append("ratios: " + " ".join(f"{r:.3f}" for r in verdict.ratios))
    lines.append(
        f"median ratio {verdict.change.median / verdict.base.median:.3f}; "
        f"median difference {verdict.change.median - verdict.base.median:+.4f} "
        f"against base spread {verdict.base.spread:.4f}"
    )
    lines.append("verdict: " + ("gain" if verdict.gain else "no gain claimed"))
    return "\n".join(lines)


# -- children -----------------------------------------------------------------


def _run(command: List[str], cwd: pathlib.Path) -> str:
    """One blocking child in its own process group; its standard output."""
    proc = subprocess.Popen(
        command, cwd=cwd, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except BaseException:  # timeout or interrupt: take the whole group down
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited with {proc.returncode}")
    return stdout


def _extract(rev: str, into: pathlib.Path) -> pathlib.Path:
    """``git archive`` of ``rev`` unpacked under ``into``."""
    tree = into / rev.replace("/", "_")
    tree.mkdir()
    archive = into / f"{tree.name}.tar"
    _run(["git", "archive", "-o", str(archive), rev], ROOT)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return tree


def _measure(tree: pathlib.Path, args) -> float:
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", args.workload,
               "--seed", str(args.seed)]
    if args.seconds is not None:
        command += ["--seconds", repr(args.seconds)]
    stdout = _run(command, tree)
    return json.loads(stdout.strip().splitlines()[-1])["metrics"][METRIC]["value"]


def _assert_no_children() -> None:
    """Fail loudly if any child of this process is still around."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise SystemExit(f"process hygiene: child {pid or '(running)'} was left behind")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        trees = {side: _extract(getattr(args, side), scratch)
                 for side in ("base", "change")}
        values = {"base": [], "change": []}
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                values[side].append(_measure(trees[side], args))
            print(f"pair {i + 1}: base {values['base'][-1]:.4f} "
                  f"change {values['change'][-1]:.4f} ({order[0]} first)",
                  flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        _assert_no_children()
    verdict = judge(values["base"], values["change"])
    print(f"{args.workload} seed {args.seed}, {args.base} -> {args.change}")
    print(report(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
