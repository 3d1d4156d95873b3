"""Lint-engine wall time: the serial lint of the ``make lint`` tree.

The engine has one path: parse each file once, run the per-file rules,
run the project phase, merge.  This benchmark times that path over the
tree ``make lint`` covers, ``REPEATS`` times in this process, and records
the median, the interquartile range and the finding count in
``BENCH_lint.json`` at the repo root.  It sets no floor: the number is a
measurement for the record, and the self-clean test is the gate.
Every repeat must report the same findings.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import median_and_iqr, paper_row, print_header
from repro.analysis import LintConfig, iter_python_files, lint_paths

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
#: The tree `make lint` covers, minus the known-bad rule fixtures.
LINT_TARGETS = [
    os.path.join(REPO_ROOT, name)
    for name in ("src", "tests", "benchmarks", "examples")
]
CONFIG = LintConfig(
    exclude=(os.path.join(REPO_ROOT, "tests", "analysis", "fixtures"),)
)
RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_lint.json")
REPEATS = 3


@pytest.mark.bench_lint
def test_bench_lint():
    files = len(iter_python_files(LINT_TARGETS, exclude=CONFIG.exclude))
    timings: list[float] = []
    runs = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        runs.append(lint_paths(LINT_TARGETS, CONFIG))
        timings.append(time.perf_counter() - started)
    assert all(run == runs[0] for run in runs)

    seconds, seconds_iqr = median_and_iqr(timings)
    print_header(f"lint engine: serial lint of the make-lint tree, {REPEATS} runs")
    print(paper_row("files", "n/a", str(files)))
    print(
        paper_row(
            "serial lint", "n/a", f"{seconds:.2f} s (IQR {seconds_iqr:.2f} s)"
        )
    )
    print(paper_row("findings", "0", str(len(runs[0]))))

    payload = {
        "bench": "lint_engine",
        "files": files,
        "repeats": REPEATS,
        "seconds": seconds,
        "seconds_iqr": seconds_iqr,
        "timings": timings,
        "findings": len(runs[0]),
    }
    with open(RESULTS_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
