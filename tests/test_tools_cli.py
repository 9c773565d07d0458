"""The experiment CLI."""

import pytest

from repro.experiments import REGISTRY
from repro.tools.cli import build_parser, main


class TestParser:
    def test_every_experiment_is_a_choice(self):
        parser = build_parser()
        for name in REGISTRY:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["warp-drive"])

    def test_duration_flag(self):
        args = build_parser().parse_args(["table1", "--duration", "5"])
        assert args.duration == 5.0


class TestMain:
    def test_list_prints_descriptions(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_runs_fast_experiment(self, capsys):
        assert main(["memorypath", "--duration", "5"]) == 0
        out = capsys.readouterr().out
        assert "theoretical" in out and "7.50" in out

    def test_runs_scalability(self, capsys):
        assert main(["scalability"]) == 0
        out = capsys.readouterr().out
        assert "Coordinator CPU" in out


class TestEdgeSubcommand:
    def test_edge_cache_is_an_experiment_choice(self):
        assert "edge-cache" in REGISTRY
        args = build_parser().parse_args(["edge-cache"])
        assert args.experiment == "edge-cache"

    def test_edge_reports_pins_and_hit_ratio(self, capsys):
        assert main(["edge", "--edges", "1", "--duration", "10",
                     "--titles", "3"]) == 0
        out = capsys.readouterr().out
        assert "edge0" in out
        assert "pinned bytes" in out
        assert "serve hit ratio" in out
        assert "placement loop" in out
        # The Zipf head gets pinned within a 10s window.
        assert "title0" in out


class TestLiveSubcommand:
    def test_live_tv_is_an_experiment_choice(self):
        assert "live-tv" in REGISTRY
        args = build_parser().parse_args(["live-tv"])
        assert args.experiment == "live-tv"

    def test_live_reports_surf_run(self):
        # E22's run path at small scale; ``live-tv`` runs it at its defaults.
        from repro.experiments.live import format_live, run_live

        point = run_live(n_channels=2, n_surfers=8, broadcast_seconds=10)
        assert not point.drain_violations
        out = format_live(point, [])
        assert "2 channels ingesting" in out
        assert "viewers/disk" in out
        assert "rewinds" in out
        assert "channels opened 2 / closed 2" in out
        assert "drain violations 0" in out

    def test_live_chaos_sweep_reports_verdicts(self):
        from repro.experiments.live import format_live, run_live, run_live_chaos

        point = run_live(n_channels=2, n_surfers=6, broadcast_seconds=8)
        reports = run_live_chaos(seeds=[61])
        assert not point.drain_violations and all(r.ok for r in reports)
        out = format_live(point, reports)
        assert "Chaos sweep" in out
        assert "1/1 seeds with zero violations" in out


class TestArgumentValidation:
    @pytest.mark.parametrize("value", ["0", "-5", "nan"])
    def test_non_positive_duration_rejected(self, value):
        # A zero window used to fall back to the experiment's default.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["memorypath", "--duration", value])

    @pytest.mark.parametrize("argv", [
        ["--duration", "0"], ["--duration", "-5"],
        ["--edges", "0"], ["--titles", "-2"],
    ])
    def test_edge_rejects_non_positive_arguments(self, argv):
        # A zero window used to crash in sim.run; a zero or negative
        # count used to be clamped to 1 without a word.
        from repro.tools.cli import build_edge_parser

        with pytest.raises(SystemExit):
            build_edge_parser().parse_args(argv)

    def test_summary_rejects_non_positive_duration(self):
        from repro.tools.summary import main as summary_main

        with pytest.raises(SystemExit):
            summary_main(["--only", "memorypath", "--duration", "0"])

    @pytest.mark.parametrize("spec", ["5..1", "1..", "a..3", "..3", ""])
    def test_bad_verify_seed_rejected(self, spec):
        # A reversed range used to run zero schedules and exit 0.
        from repro.tools.cli import build_verify_parser

        with pytest.raises(SystemExit):
            build_verify_parser().parse_args(["--seed", spec])

    def test_verify_seed_range_parsed(self):
        from repro.tools.cli import build_verify_parser

        assert build_verify_parser().parse_args(["--seed", "3..5"]).seed == [3, 4, 5]
        assert build_verify_parser().parse_args([]).seed == [1]
