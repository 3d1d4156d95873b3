"""CLI tests: repro-lint flags/exit codes, fixture files, gemstone lint."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.cli import main as gemstone_main

pytestmark = pytest.mark.lint

FIXTURES = Path(__file__).parent / "fixtures"
ALL_RULES = str(FIXTURES / "all_rules.py")
SUPPRESSED = str(FIXTURES / "suppressed.py")
XPROJ = str(FIXTURES / "xproj")
AS_SIM = ["--assume-module", "repro.sim._fixture"]
AS_ATOMICIO = ["--assume-module", "repro.atomicio"]


class TestFixtureFiles:
    def test_all_rules_fixture_reports_exactly_the_expected_ids(self, capsys):
        exit_code = lint_main([ALL_RULES, *AS_SIM, "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        reported = [finding["rule"] for finding in document["findings"]]
        assert exit_code == 1
        # One finding per core rule, nothing else.
        assert sorted(reported) == [
            "DET001", "DET002", "DET003", "OBS001", "OBS002", "OBS002",
            "PERF001",
            "PURE001", "PURE002", "ROB001", "ROB002", "ROB003",
        ]
        assert document["counts"] == {
            "DET001": 1, "DET002": 1, "DET003": 1, "OBS001": 1,
            "OBS002": 2,
            "PERF001": 1, "PURE001": 1, "PURE002": 1, "ROB001": 1,
            "ROB002": 1, "ROB003": 1,
        }
        # ROB004 is scoped to repro.atomicio, the one module that calls
        # flock; its seed fires exactly once there.
        lint_main([ALL_RULES, *AS_ATOMICIO, "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert document["counts"]["ROB004"] == 1

    def test_suppressed_fixture_exercises_suppression_paths(self, capsys):
        exit_code = lint_main([SUPPRESSED, *AS_SIM, "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        # The DET002 on the suppressed line is consumed; what remains is
        # the stale escape and the blanket escape.
        assert document["counts"] == {"SUP001": 1, "SUP002": 1}

    def test_without_assume_module_scoped_rules_stay_off(self, capsys):
        exit_code = lint_main([ALL_RULES, "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert sorted(document["counts"]) == [
            "DET003", "PURE001", "PURE002", "ROB001",
        ]


class TestExitCodesAndFlags:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x):\n    return x + 1\n")
        assert lint_main([str(clean)]) == 0
        assert capsys.readouterr().out.strip() == "no findings"

    def test_missing_path_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert lint_main([str(missing)]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_id_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_main([ALL_RULES, "--select", "NOPE123"])
        assert excinfo.value.code == 2
        assert "unknown rule id(s): NOPE123" in capsys.readouterr().err

    def test_select_runs_only_named_rules(self, capsys):
        exit_code = lint_main(
            [ALL_RULES, *AS_SIM, "--select", "DET002", "--format", "json"]
        )
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert document["counts"] == {"DET002": 1}

    def test_ignore_drops_named_rules(self, capsys):
        exit_code = lint_main(
            [ALL_RULES, *AS_SIM, "--ignore", "DET003,PURE001", "--format", "json"]
        )
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert sorted(document["counts"]) == [
            "DET001", "DET002", "OBS001", "OBS002", "PERF001", "PURE002",
            "ROB001", "ROB002", "ROB003",
        ]

    def test_exclude_skips_the_fixture_tree(self, capsys):
        exit_code = lint_main(
            [str(FIXTURES), "--exclude", str(FIXTURES), "--format", "json"]
        )
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert document["total"] == 0

    def test_list_rules_prints_the_catalogue(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "DET001", "DET002", "DET003", "OBS001", "OBS002",
            "PERF001", "PURE001",
            "PURE002", "ROB001", "ROB002", "ROB003", "ROB004",
            "SUP001", "SUP002",
            "PARSE001",
        ):
            assert rule_id in out

    def test_text_format_has_location_prefixes(self, capsys):
        exit_code = lint_main([ALL_RULES, *AS_SIM])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "all_rules.py:21:12: DET001" in out
        assert out.strip().endswith("7 error(s), 5 warning(s)")

    def test_project_fixture_reports_its_eight_findings(self, capsys):
        assert lint_main([XPROJ, "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["total"] == 8
        assert set(document["counts"].values()) == {1}

    @pytest.mark.parametrize(
        "option",
        [
            ["--jobs", "2"],
            ["--cache-dir", "lint-cache"],
            ["--baseline", "baseline.json"],
            ["--write-baseline", "baseline.json"],
            ["--stats"],
        ],
    )
    def test_deleted_engine_options_are_usage_errors(self, option, capsys):
        # The engine has one path: no cache, process pool or baseline.
        with pytest.raises(SystemExit) as excinfo:
            lint_main([XPROJ, *option])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestGemstoneLintSubcommand:
    def test_gemstone_lint_delegates_to_repro_lint(self, capsys):
        exit_code = gemstone_main(
            ["lint", ALL_RULES, *AS_SIM, "--format", "json"]
        )
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert document["total"] == 12

    def test_gemstone_lint_clean_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert gemstone_main(["lint", str(clean)]) == 0

    def test_gemstone_lint_accepts_leading_option(self, capsys):
        """Option-first invocations must reach repro-lint, not argparse."""
        assert gemstone_main(["lint", "--list-rules"]) == 0
        assert "DET001" in capsys.readouterr().out
