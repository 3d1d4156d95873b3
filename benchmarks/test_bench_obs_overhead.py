"""Observability overhead: traced vs untraced single-trace replay.

Tracing is disabled by default everywhere, and the contract (ISSUE PR 5)
is that the instrumentation left behind in the hot path — null-span
context managers and one ``enabled`` check per probe point — costs less
than 5% on the single-trace replay path.  This benchmark times
``SimExecutor.run`` for one job on a precompiled trace with the default
disabled tracer and with a fully enabled in-memory tracer in each of
``ROUNDS`` rounds, alternating which side runs first, and gates the median
of the per-round enabled/disabled ratios (with the raw ``simulate`` loop
printed as the uninstrumented reference).  A minimum over five
repetitions of a loop of a few milliseconds could not tell a 4 % overhead
from host noise; the median's quartiles are recorded with it.

Results are also emitted machine-readably to ``BENCH_obs.json`` at the
repo root so the trajectory of the overhead can be tracked across PRs.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from benchmarks.conftest import CompiledJob, paper_row, print_header
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.cpu import simulate
from repro.sim.executor import SimExecutor
from repro.sim.machine import gem5_ex5_big
from repro.workloads.suites import workload_by_name

TRACE_INSTRUCTIONS = 20_000
WORKLOAD = "mi-sha"
CALLS_PER_ROUND = 6
ROUNDS = 31
OVERHEAD_BUDGET = 0.05

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_obs.json")


def _time_executor(job, tracer=None) -> float:
    """Wall seconds for CALLS_PER_ROUND uncached single-job replays."""
    executor = (
        SimExecutor()
        if tracer is None
        else SimExecutor(tracer=tracer, metrics=tracer.metrics)
    )
    started = time.perf_counter()
    for _ in range(CALLS_PER_ROUND):
        executor.run(job)
    return time.perf_counter() - started


def _time_raw(trace, machine) -> float:
    started = time.perf_counter()
    for _ in range(CALLS_PER_ROUND):
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
    for round_ in range(ROUNDS):
        raw.append(_time_raw(trace, machine))
        tracer = Tracer(enabled=True, metrics=MetricsRegistry())
        if round_ % 2:
            enabled.append(_time_executor(job, tracer))
            disabled.append(_time_executor(job))
        else:
            disabled.append(_time_executor(job))
            enabled.append(_time_executor(job, tracer))
    raw, disabled, enabled = map(np.array, (raw, disabled, enabled))

    q1, enabled_overhead, q3 = (
        float(q) for q in np.percentile(enabled / disabled - 1.0, [25, 50, 75])
    )
    harness_overhead = float(np.median(disabled / raw)) - 1.0
    raw_s, disabled_s, enabled_s = (
        float(np.median(s)) for s in (raw, disabled, enabled)
    )
    per_call_us = lambda s: s / CALLS_PER_ROUND * 1e6  # noqa: E731

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
            f"{enabled_overhead * 100:.2f}% (quartiles {q1 * 100:+.2f}%/"
            f"{q3 * 100:+.2f}%)",
        )
    )

    payload = {
        "bench": "obs_overhead",
        "workload": WORKLOAD,
        "trace_instructions": TRACE_INSTRUCTIONS,
        "calls_per_round": CALLS_PER_ROUND,
        "rounds": ROUNDS,
        "raw_seconds_per_call": raw_s / CALLS_PER_ROUND,
        "disabled_seconds_per_call": disabled_s / CALLS_PER_ROUND,
        "enabled_seconds_per_call": enabled_s / CALLS_PER_ROUND,
        "enabled_overhead_fraction": enabled_overhead,
        "enabled_overhead_q1": q1,
        "enabled_overhead_q3": q3,
        "disabled_vs_raw_fraction": harness_overhead,
        "budget_fraction": OVERHEAD_BUDGET,
    }
    with open(RESULTS_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # The budget guards the *instrumentation*: even fully enabled, spans
    # must stay in the noise next to a 20k-instruction replay.
    assert enabled_overhead < OVERHEAD_BUDGET
