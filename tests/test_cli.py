"""Tests for the gemstone CLI."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for command in ("report", "headline", "lmbench", "power-model", "bp-fix"):
            args = parser.parse_args(
                [command] if command == "lmbench" else [command, "--instructions", "8000"]
            )
            assert args.command == command

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_core_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["headline", "--core", "M4"])

    def test_engine_defaults_to_columnar_and_has_no_alias(self):
        parser = build_parser()
        assert parser.parse_args(["headline"]).engine == "columnar"
        with pytest.raises(SystemExit):
            parser.parse_args(["headline", "--engine", "auto"])


class TestExecution:
    def test_lmbench_prints_table(self, capsys):
        assert main(["lmbench", "--machine", "gem5-ex5-big"]) == 0
        out = capsys.readouterr().out
        assert "ns / access" in out
        assert "gem5-ex5-big" in out

    def test_lmbench_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "lat.txt"
        assert main(["lmbench", "--out", str(out_file)]) == 0
        assert "ns / access" in out_file.read_text()

    def test_headline_small(self, capsys):
        assert main(["headline", "--instructions", "4000"]) == 0
        out = capsys.readouterr().out
        assert "time MAPE %" in out
        assert "ALL" in out


class TestJobsFlag:
    def test_jobs_default_is_serial(self):
        args = build_parser().parse_args(["headline"])
        assert args.jobs == 1

    def test_jobs_parsed(self):
        args = build_parser().parse_args(["report", "--jobs", "4"])
        assert args.jobs == 4

    def test_jobs_zero_means_all_cores(self, capsys):
        # 0 maps to GemStoneConfig(jobs=None) = one worker per CPU core.
        assert main(["headline", "--instructions", "4000", "--jobs", "0"]) == 0
        assert "time MAPE %" in capsys.readouterr().out

    def test_headline_parallel_matches_serial(self, capsys):
        assert main(["headline", "--instructions", "4000", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["headline", "--instructions", "4000", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial


class TestStartup:
    def test_import_does_not_load_scipy_stats(self):
        """Every ``gemstone`` run pays its imports; ``scipy.stats`` alone
        (with the spatial, sparse, optimize and linalg packages it pulls in)
        once cost about a second of a warm rerun's start-up."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        probe = (
            "import sys, repro.cli; "
            "print('repro.core.stats.stepwise' in sys.modules, "
            "'scipy.stats' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        # The fits are imported, and still without scipy.stats.
        assert out == ["True", "False"]
