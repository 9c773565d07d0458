"""The experiment registry: one entry per committed results table.

Nothing here runs an experiment; the bench
(``benchmarks/test_bench_experiments.py``) does that.
"""

import dataclasses
import pathlib

from repro.experiments import REGISTRY
from repro.tools.cli import build_parser, main

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def test_every_committed_table_has_exactly_one_entry():
    committed = sorted(path.stem for path in RESULTS_DIR.glob("*.txt"))
    assert committed == sorted(entry.table for entry in REGISTRY.values())


def test_names_and_tables_are_unique():
    entries = list(REGISTRY.values())
    assert [entry.name for entry in entries] == list(REGISTRY)
    assert len({entry.name for entry in entries}) == len(entries)
    assert len({entry.table for entry in entries}) == len(entries)


def test_every_name_is_a_cli_choice():
    parser = build_parser()
    for name in REGISTRY:
        assert parser.parse_args([name]).experiment == name


def test_cli_list_prints_one_line_per_entry(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(REGISTRY)
    assert [line.split()[0] for line in lines] == list(REGISTRY)


def test_duration_reaches_only_entries_with_a_window():
    seen = []
    for entry in REGISTRY.values():
        probe = dataclasses.replace(
            entry, run=lambda **kw: seen.append(kw), render=lambda _: "",
        )
        seen.clear()
        probe.report(None)
        probe.report(7.0)
        expected = {entry.duration_arg: 7.0} if entry.duration_arg else {}
        assert seen == [{}, expected], entry.name
