"""The one-shot markdown report generator."""

import pytest

from repro.experiments import REGISTRY
from repro.tools.summary import generate, main


class TestGenerate:
    def test_subset_report_contains_sections(self):
        report = generate(duration=5.0, names=["memorypath"])
        assert "# Calliope reproduction report" in report
        assert "## memorypath" in report
        assert "7.50" in report

    def test_all_names_known(self):
        # Names the summary iterates are exactly the CLI registry.
        report_names = sorted(REGISTRY)
        assert "table1" in report_names and "graph1" in report_names


class TestMain:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["--out", str(out), "--only", "memorypath",
                     "--duration", "5"]) == 0
        text = out.read_text()
        assert "## memorypath" in text

    def test_stdout_default(self, capsys):
        assert main(["--only", "elevator", "--duration", "10"]) == 0
        assert "elevator" in capsys.readouterr().out
