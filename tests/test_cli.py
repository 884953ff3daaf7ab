"""CLI smoke tests."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.scale == 0.05
        assert args.seed == 7
        assert not args.with_bdrmap

    def test_flags(self):
        args = build_parser().parse_args(
            ["--scale", "0.2", "--seed", "9", "--skip-vpi", "--with-bdrmap"]
        )
        assert args.scale == 0.2
        assert args.seed == 9
        assert args.skip_vpi
        assert args.with_bdrmap

    def test_worker_flags(self):
        args = build_parser().parse_args(["--workers", "4", "--progress"])
        assert args.workers == 4
        assert args.progress
        assert build_parser().parse_args([]).workers == 1

    def test_data_fault_flags(self):
        args = build_parser().parse_args(
            [
                "--data-fault-plan", "whois-gap=0.2,seed=3",
                "--min-confidence", "0.8",
                "--sensitivity",
            ]
        )
        assert args.data_fault_plan == "whois-gap=0.2,seed=3"
        assert args.min_confidence == 0.8
        assert args.sensitivity
        assert build_parser().parse_args([]).data_fault_plan is None
        assert build_parser().parse_args([]).min_confidence == 0.0

    def test_sensitivity_requires_a_plan(self, capsys):
        with pytest.raises(SystemExit):
            main(["--sensitivity"])
        assert "--data-fault-plan" in capsys.readouterr().err

    def test_bad_data_fault_plan_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--data-fault-plan", "bogus=1"])
        assert "unknown data-fault-plan key" in capsys.readouterr().err


class TestMain:
    def test_tiny_run(self, capsys):
        code = main(
            [
                "--scale", "0.01",
                "--seed", "13",
                "--expansion-stride", "16",
                "--skip-vpi",
                "--skip-crossval",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 5" in out

    def test_parallel_run_with_progress(self, capsys):
        code = main(
            [
                "--scale", "0.01",
                "--seed", "13",
                "--expansion-stride", "16",
                "--skip-vpi",
                "--skip-crossval",
                "--workers", "2",
                "--progress",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "campaign throughput:" in captured.out
        assert "round1:" in captured.err

    def test_progress_reports_recovery(self, capsys):
        """Recovery prints each round, then corrects the round lines
        that closed with deferred probes counted as lost."""
        code = main(
            [
                "study",
                "--scale", "0.005",
                "--seed", "7",
                "--expansion-stride", "8",
                "--skip-crossval",
                "--skip-vpi",
                "--fault-plan", "rate-limit=0.3w3,seed=7",
                "--adaptive",
                "--breaker-threshold", "2",
                "--recovery-rounds", "2",
                "--progress",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert re.search(r"^  recovery round 1: ", err, re.M)
        for label in ("round1", "round2"):
            assert re.search(
                rf"^  {label}: ([0-9]+)/\1 probes \(100%\) after recovery",
                err,
                re.M,
            )

    def test_dirty_run_with_sensitivity(self, capsys):
        code = main(
            [
                "--scale", "0.01",
                "--seed", "13",
                "--expansion-stride", "16",
                "--skip-vpi",
                "--skip-crossval",
                "--data-fault-plan",
                "bgp-stale=0.1,moas=0.1,whois-gap=0.2,ixp-conflict=0.2,seed=2",
                "--min-confidence", "0.8",
                "--sensitivity",
                "--digest",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "data quality:" in out
        assert "sensitivity (clean -> dirty paper-table deltas):" in out
        assert "study digest:" in out

    def test_run_with_evaluation(self, capsys):
        code = main(
            [
                "--scale", "0.01",
                "--seed", "13",
                "--expansion-stride", "16",
                "--skip-vpi",
                "--skip-crossval",
                "--with-evaluation",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ground-truth evaluation" in out
