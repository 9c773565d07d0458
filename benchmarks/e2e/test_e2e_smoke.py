"""Smoke test of the repo benchmark at ``--quick`` scale (about a minute).

Not part of tier-1 (``testpaths`` is ``tests``); run it with
``python -m pytest benchmarks/e2e/test_e2e_smoke.py``.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE)]

import metrics  # noqa: E402
import run as bench  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench(*extra):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *extra],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert not _stray_benchmark_processes(), "a benchmark process survived the command"
    return done


def _stray_benchmark_processes():
    stray = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if str(HERE / "run.py").encode() in cmdline:
            stray.append(int(entry.name))
    return stray


def _result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def _digest(done):
    return re.search(r"sim_digest ([0-9a-f]{64})", done.stdout).group(1)


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCHMARK["run_seconds"] == bench.RUN_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert BENCHMARK["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, (unit, better, bound, _) in metrics.END_TO_END.items()
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better, _) in metrics.PER_LAYER.items()
    ]
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in metrics.END_TO_END and len(BENCHMARK["per_layer"]) <= 128


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric_and_repeats(workload):
    first = _bench("--workload", workload, "--trace", "0")
    assert first.returncode == 0, first.stdout
    result = _result(first)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == list(metrics.END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == metrics.END_TO_END[name][0]
        assert entry["value"] > 0, f"{name} must never read 0"
        assert re.search(rf"^\s+{re.escape(name)}\s", first.stdout, re.M)
    second = _bench("--workload", workload, "--trace", "0")
    assert _digest(first) == _digest(second)
    for name in metrics.SIMULATED:
        assert result["metrics"][name] == _result(second)["metrics"][name]


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_traced_run_prints_every_layer_metric_and_layers_add_up(workload):
    done = _bench("--workload", workload, "--trace", "1")
    assert done.returncode == 0, done.stdout
    result = _result(done)
    assert result["correct"]
    assert list(result["metrics"]) == list(metrics.PER_LAYER)
    trace = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
    for axis in ("layers", "process_layers"):
        assert sum(v["events"] for v in trace[axis].values()) == trace["events_executed"]
    assert sum(cell[2] for cell in trace["cells"]) == trace["events_executed"]
    assert trace["sim_digest"] == _digest(done)
    assert set(trace["should_move"]) == set(metrics.PER_LAYER)


def test_a_failed_check_makes_the_exit_code_non_zero():
    done = _bench("--workload", "ctrl_storm", "--force-fail")
    assert done.returncode != 0
    assert _result(done)["correct"] is False
    assert "[FAILED] forced failure" in done.stdout
