"""Every registered experiment: regenerate its table and hold its bar.

One case per ``repro.experiments.REGISTRY`` entry, with the results table
name as its pytest id (``-k graph1``).  Each runs the experiment at its
defaults, writes ``benchmarks/results/<table>.txt``, records its headline
rows in ``BENCH_trajectory.json`` and runs its checks.  Every column of
every table is simulated, so ``git status --porcelain benchmarks/results/``
after a run is the drift check.
"""

import pytest

from benchmarks.conftest import headline, publish
from repro.experiments import REGISTRY

ENTRIES = sorted(REGISTRY.values(), key=lambda entry: entry.table)


@pytest.mark.parametrize(
    "experiment", ENTRIES, ids=[entry.table for entry in ENTRIES]
)
def test_bench_experiment(benchmark, experiment):
    result = benchmark.pedantic(experiment.run, rounds=1)
    publish(benchmark, experiment.table, experiment.render(result))
    for metric, value, units, context in experiment.headlines(result):
        headline(experiment.table, metric, value, units, **context)
    experiment.checks(result)
