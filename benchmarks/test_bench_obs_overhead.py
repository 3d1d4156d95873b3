"""Observability overhead: traced vs untraced single-trace replay.

Tracing is disabled by default everywhere, and the contract (ISSUE PR 5)
is that the instrumentation left behind in the hot path — null-span
context managers and one ``enabled`` check per probe point — costs less
than 5% on the single-trace replay path.  This benchmark times
``SimExecutor.run`` for one job on a precompiled trace with the default
disabled tracer and with a fully enabled in-memory tracer, interleaving
repetitions and taking the minimum of each to shed scheduler noise, then
asserts the enabled/disabled ratio stays under the budget (with the raw
``simulate`` loop printed as the uninstrumented reference).

Results are also emitted machine-readably to ``BENCH_obs.json`` at the
repo root so the trajectory of the overhead can be tracked across PRs.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import CompiledJob, paper_row, print_header
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.cpu import simulate
from repro.sim.executor import SimExecutor
from repro.sim.machine import gem5_ex5_big
from repro.workloads.suites import workload_by_name

TRACE_INSTRUCTIONS = 20_000
WORKLOAD = "mi-sha"
CALLS_PER_REP = 6
REPS = 5
OVERHEAD_BUDGET = 0.05

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_obs.json")


def _time_executor(job, tracer=None) -> float:
    """Wall seconds for CALLS_PER_REP uncached single-job replays."""
    executor = (
        SimExecutor()
        if tracer is None
        else SimExecutor(tracer=tracer, metrics=tracer.metrics)
    )
    started = time.perf_counter()
    for _ in range(CALLS_PER_REP):
        executor.run(job)
    return time.perf_counter() - started


def _time_raw(trace, machine) -> float:
    started = time.perf_counter()
    for _ in range(CALLS_PER_REP):
        simulate(trace, machine)
    return time.perf_counter() - started


def test_bench_obs_overhead():
    job = CompiledJob(
        workload_by_name(WORKLOAD), TRACE_INSTRUCTIONS, gem5_ex5_big()
    )
    trace, machine = job.compile(), job.machine

    # Warm every code path once (imports, first-call caches) before timing.
    _time_raw(trace, machine)
    registry = MetricsRegistry()
    _time_executor(job)
    _time_executor(job, Tracer(enabled=True, metrics=registry))

    raw, disabled, enabled = [], [], []
    for _ in range(REPS):
        raw.append(_time_raw(trace, machine))
        disabled.append(_time_executor(job))
        enabled.append(
            _time_executor(job, Tracer(enabled=True, metrics=MetricsRegistry()))
        )

    raw_s, disabled_s, enabled_s = min(raw), min(disabled), min(enabled)
    per_call_us = lambda s: s / CALLS_PER_REP * 1e6  # noqa: E731
    enabled_overhead = enabled_s / disabled_s - 1.0
    harness_overhead = disabled_s / raw_s - 1.0

    print_header("Observability overhead: single-trace replay hot path")
    print(
        paper_row(
            f"raw simulate(), {TRACE_INSTRUCTIONS} instrs",
            "n/a",
            f"{per_call_us(raw_s):,.0f} us/call",
        )
    )
    print(
        paper_row(
            "executor, tracing disabled (default)",
            "n/a",
            f"{per_call_us(disabled_s):,.0f} us/call "
            f"(+{harness_overhead * 100:.1f}% vs raw)",
        )
    )
    print(
        paper_row(
            "executor, tracing enabled",
            "n/a",
            f"{per_call_us(enabled_s):,.0f} us/call",
        )
    )
    print(
        paper_row(
            "enabled-vs-disabled overhead",
            f"<{OVERHEAD_BUDGET * 100:.0f}%",
            f"{enabled_overhead * 100:.2f}%",
        )
    )

    payload = {
        "bench": "obs_overhead",
        "workload": WORKLOAD,
        "trace_instructions": TRACE_INSTRUCTIONS,
        "calls_per_rep": CALLS_PER_REP,
        "reps": REPS,
        "raw_seconds_per_call": raw_s / CALLS_PER_REP,
        "disabled_seconds_per_call": disabled_s / CALLS_PER_REP,
        "enabled_seconds_per_call": enabled_s / CALLS_PER_REP,
        "enabled_overhead_fraction": enabled_overhead,
        "disabled_vs_raw_fraction": harness_overhead,
        "budget_fraction": OVERHEAD_BUDGET,
    }
    with open(RESULTS_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # The budget guards the *instrumentation*: even fully enabled, spans
    # must stay in the noise next to a 20k-instruction replay.
    assert enabled_overhead < OVERHEAD_BUDGET
