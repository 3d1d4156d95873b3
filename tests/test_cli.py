"""Tests for the gemstone CLI."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import _gemstone, build_parser, main


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["headline"],
            ["campaign", "run", "--board", "b"],
            ["campaign", "worker", "--board", "b"],
        ],
        ids=["headline", "campaign-run", "campaign-worker"],
    )
    def test_engine_is_not_a_command_line_option(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*argv, "--engine", "scalar"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err


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


class TestSchedulingOptions:
    """Simulating across processes is ``campaign run --shards N``; no
    pipeline subcommand has a pool, and a campaign keeps its results on
    its board, so it takes no ``--cache-dir``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--jobs", "2"],
            ["headline", "--job-timeout", "5"],
            ["campaign", "run", "--board", "b", "--jobs", "2"],
        ],
        ids=["jobs", "job-timeout", "campaign-jobs"],
    )
    def test_pool_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_campaign_run_cache_dir_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "run", "--board", str(tmp_path / "board"),
                  "--cache-dir", str(tmp_path / "cache")])
        assert exit_info.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err
        assert not (tmp_path / "board").exists()

    @pytest.mark.parametrize(
        "command",
        ["report", "headline", "power-model", "bp-fix", "runtime-power"],
    )
    def test_pipeline_subcommands_take_cache_dir(self, command):
        args = build_parser().parse_args([command, "--cache-dir", "c"])
        assert args.cache_dir == "c"

    def test_zero_retries_runs_one_attempt(self):
        gemstone = _gemstone(build_parser().parse_args(["headline", "--retries", "0"]))
        assert gemstone.config.max_attempts == 1
        assert gemstone.executor.max_attempts == 1

    def test_retries_is_the_attempt_count(self):
        gemstone = _gemstone(build_parser().parse_args(["headline", "--retries", "5"]))
        assert gemstone.config.max_attempts == 5
        assert gemstone.executor.max_attempts == 5


class TestCampaignOptions:
    """Each ``campaign`` action accepts only the options it reads."""

    def test_status_rejects_run_options(self, tmp_path, capsys):
        board = str(tmp_path / "board")
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "status", "--board", board, "--instructions",
                  "5", "--core", "A7", "--retries", "9", "--model",
                  "nonsense"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        for option in ("--instructions", "--core", "--retries", "--model"):
            assert option in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["worker", "--shards", "2"],
            ["worker", "--instructions", "5"],
            ["worker", "--out", "f"],
            ["status", "--engine", "scalar"],
            ["status", "--owner", "w"],
            ["run", "--detail"],
            ["run", "--max-jobs", "3"],
        ],
    )
    def test_options_of_other_actions_are_usage_errors(self, argv, capsys):
        action, *rest = argv
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["campaign", action, "--board", "b", *rest])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_valid_forms_parse(self):
        parse = build_parser().parse_args
        run = parse(["campaign", "run", "--board", "b", "--shards", "4",
                     "--ttl", "2", "--no-collate", "--trace-out", "t",
                     "--instructions", "3000", "--core", "A7", "--model",
                     "gem5-ex5-little", "--retries", "2", "--guard-level",
                     "off", "--out", "r.txt", "--log-level", "info"])
        assert (run.action, run.board, run.shards, run.ttl, run.no_collate,
                run.trace_out, run.instructions, run.retries) == (
            "run", "b", 4, 2.0, True, "t", 3000, 2)
        worker = parse(["campaign", "worker", "--board", "b", "--owner", "w",
                        "--max-jobs", "3", "--guard-level", "paranoid",
                        "--log-json"])
        assert (worker.action, worker.owner, worker.max_jobs,
                worker.guard_level, worker.log_json) == (
            "worker", "w", 3, "paranoid", True)
        status = parse(["campaign", "status", "--board", "b", "--detail",
                        "--tail", "5", "--out", "s.txt"])
        assert (status.action, status.detail, status.tail, status.out) == (
            "status", True, 5, "s.txt")
        assert run.func is worker.func is status.func

    def test_an_action_is_required(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["campaign", "--board", "b"])
        assert exit_info.value.code == 2


def _fresh_interpreter(code: str) -> list[str]:
    """The words ``code`` prints in a new interpreter importing ``src``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.split()


class TestStartup:
    def test_no_step_loads_scipy(self):
        """Every ``gemstone`` run pays its imports, and scipy's special
        functions alone once cost a warm rerun about 0.3 s and 26 MB.  No
        scipy module is loaded by the import, by building the pipeline, or
        by the fits themselves."""
        out = _fresh_interpreter(
            "import sys\n"
            "def scipy_loaded():\n"
            "    return any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
            "import numpy as np, repro.cli\n"
            "print('repro.core.stats.stepwise' in sys.modules, scipy_loaded())\n"
            "from repro.core.pipeline import GemStone, GemStoneConfig\n"
            "GemStone(GemStoneConfig(core='A15'))\n"
            "print(scipy_loaded())\n"
            "from repro.core.stats import fit_ols, forward_stepwise\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.normal(size=(30, 3)); y = x @ [1.0, 0.5, 0.0] + rng.normal(size=30)\n"
            "fit_ols(x, y)\n"
            "forward_stepwise({f'x{i}': x[:, i] for i in range(3)}, y)\n"
            "print(scipy_loaded())\n"
        )
        # The fits are imported, and no step loads scipy.
        assert out == ["True", "False", "False", "False"]

    def test_import_does_not_load_the_kernel(self):
        """The compiled replay kernel is loaded by the first columnar replay,
        not at start-up; ``ctypes`` is only there if numpy brings it."""
        out = _fresh_interpreter(
            "import sys, repro.cli; "
            "print('repro.sim.kernel' in sys.modules, "
            "'repro.sim.columnar' in sys.modules, 'ctypes' in sys.modules)"
        )
        numpy_alone = _fresh_interpreter(
            "import sys, numpy; print('ctypes' in sys.modules)"
        )
        assert out == ["False", "False", *numpy_alone]
