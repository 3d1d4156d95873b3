"""The zero-findings gate: repro-lint over the repository's own code.

This is the test that makes every rule a *standing invariant* rather than
a one-off audit: any future PR that introduces an unseeded RNG, a wall
clock in a sim path, a set-order leak, an impure pool worker, a mutable
default, a swallowed BaseException, or a stale suppression fails tier-1.

It runs ``make lint``'s repro-lint command itself — the same four roots
linted as one project, the known-bad rule fixtures under
``tests/analysis/fixtures`` excluded — so ``make check`` (ruff, mypy and
the tier-1 suite) lints the tree once.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The arguments ``make lint`` passes to ``python -m repro.analysis``.
LINT_ARGS = (
    "src", "tests", "benchmarks", "examples",
    "--exclude", "tests/analysis/fixtures",
)


def test_make_lint_runs_the_same_command():
    makefile = (REPO_ROOT / "Makefile").read_text().replace("\\\n", " ")
    commands = [
        " ".join(line.split())
        for line in makefile.splitlines()
        if "-m repro.analysis" in line
    ]
    assert commands == [
        "$(PYTHON) -m repro.analysis " + " ".join(LINT_ARGS)
    ]


def test_repository_is_clean(monkeypatch, capsys):
    """Source, tests, benchmarks and examples uphold every invariant the
    package enforces, linted as one project."""
    monkeypatch.chdir(REPO_ROOT)
    status = lint_main(list(LINT_ARGS))
    report = capsys.readouterr().out
    assert status == 0, f"repro-lint findings:\n{report}"
    assert report.strip() == "no findings"
