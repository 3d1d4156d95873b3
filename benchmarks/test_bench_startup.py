"""Process start-up: what every fresh ``gemstone`` run pays before any work.

The paper's Section VII loop reruns GemStone after every model fix, and
every rerun is a new process, so on a warm cache the imports are a large
share of the rerun.  Three scenarios, each timed in :data:`REPEATS` fresh
interpreters:

* ``import`` — ``import repro.cli``;
* ``construct`` — the same import plus ``GemStone(config)`` for the paper
  configuration with a result cache and a checkpoint directory (the
  program a warm rerun builds before its first phase);
* ``warm-report`` — the same construction on a result cache filled once
  per bench session, then ``report()``: the whole warm rerun, which
  replays nothing.  Its ``report()`` call alone is also recorded
  (``report_seconds``).

A timing runs from just before the parent spawns the interpreter to just
after the child finishes the scenario, on the system-wide monotonic clock,
so it includes interpreter start-up but not teardown.  Repeats run in
rounds that visit every scenario, so slow drift on a shared host lands on
all alike.  The JSON records each scenario's median and interquartile
range.

Asserted gates: no child has any ``scipy`` module in ``sys.modules``, and
no ``warm-report`` child replays a job.  Both are deterministic; the timings
are recorded, not gated, because a time floor on a shared host measures
the host.

Results are emitted machine-readably to ``BENCH_startup.json`` at the repo
root so the trajectory can be tracked across PRs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import repro
from benchmarks.conftest import median_and_iqr, paper_row, print_header
from repro.core.pipeline import GemStone, GemStoneConfig

REPEATS = 9

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_startup.json"
)

#: argv: spawn time, scenario, run directory, filled result cache.  Prints
#: the elapsed seconds, whether any ``scipy`` module was imported and, for
#: ``warm-report``, the ``report()`` seconds and replayed jobs, as one
#: JSON object.
CHILD = """
import json, os, sys, time
spawn, scenario, run_dir, filled_cache = (
    float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4]
)
import repro.cli
out = {}
if scenario != "import":
    from repro.core.pipeline import GemStone, GemStoneConfig
    gemstone = GemStone(GemStoneConfig(
        core="A15",
        cache_dir=(
            filled_cache if scenario == "warm-report"
            else os.path.join(run_dir, "cache")
        ),
        checkpoint_dir=os.path.join(run_dir, "ckpt"),
    ))
    if scenario == "warm-report":
        started = time.monotonic()
        gemstone.report()
        out["report_seconds"] = time.monotonic() - started
        out["replays"] = gemstone.executor.telemetry.jobs_run
out["seconds"] = time.monotonic() - spawn
out["scipy"] = any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
print(json.dumps(out))
"""

SCENARIOS = ("import", "construct", "warm-report")


@pytest.fixture(scope="session")
def filled_cache(tmp_path_factory) -> str:
    """A result cache holding every job of the paper configuration."""
    directory = str(tmp_path_factory.mktemp("startup") / "cache")
    GemStone(GemStoneConfig(core="A15", cache_dir=directory)).report()
    return directory


def _child_env() -> dict[str, str]:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _time_once(
    scenario: str, run_dir: str, filled_cache: str, env: dict[str, str]
) -> dict:
    spawn = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", CHILD, repr(spawn), scenario, run_dir, filled_cache],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_bench_startup(tmp_path, filled_cache):
    env = _child_env()
    samples: dict[str, list[dict]] = {scenario: [] for scenario in SCENARIOS}
    for round_index in range(REPEATS):
        for scenario in SCENARIOS:
            run_dir = tmp_path / f"{scenario}-{round_index}"
            run_dir.mkdir()
            samples[scenario].append(
                _time_once(scenario, str(run_dir), filled_cache, env)
            )

    points = []
    for scenario in SCENARIOS:
        timings = [sample["seconds"] for sample in samples[scenario]]
        seconds, seconds_iqr = median_and_iqr(timings)
        point = {
            "scenario": scenario,
            "seconds": seconds,
            "seconds_iqr": seconds_iqr,
            "timings": timings,
            "scipy_imported": sum(sample["scipy"] for sample in samples[scenario]),
        }
        if scenario == "warm-report":
            report_timings = [sample["report_seconds"] for sample in samples[scenario]]
            point["report_seconds"], point["report_seconds_iqr"] = median_and_iqr(
                report_timings
            )
            point["report_timings"] = report_timings
            point["replays"] = sum(sample["replays"] for sample in samples[scenario])
        points.append(point)

    print_header(f"Process start-up: median of {REPEATS} fresh interpreters")
    for point in points:
        print(
            paper_row(
                point["scenario"],
                "-",
                f"{point['seconds']:.3f}s (IQR {point['seconds_iqr']:.3f}s)",
            )
        )

    payload = {
        "bench": "startup",
        "repeats": REPEATS,
        "cpu_count": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "points": points,
    }
    with open(RESULTS_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Gate after the snapshot is on disk so a miss still leaves evidence.
    for point in points:
        assert point["scipy_imported"] == 0, (
            f"{point['scenario']}: scipy imported in "
            f"{point['scipy_imported']} of {REPEATS} fresh processes"
        )
        assert point.get("replays", 0) == 0, (
            f"{point['scenario']}: {point['replays']} jobs replayed on a "
            "filled result cache"
        )
