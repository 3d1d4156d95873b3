"""Columnar replay speedup: scalar vs columnar, cold and steady state.

The columnar engine (ISSUE PR 6) decodes a trace once into
struct-of-arrays batches and replays it as vectorized passes, with
verified memos on the decoded form making repeat replays of the same
trace nearly free.  This benchmark measures both regimes on four
representative (workload, machine) pairs at the production trace length:

* **cold**: the first-ever replay of a trace — pays decode, the
  compiled L1 replays and L2 walk, and memo construction;
* **steady**: repeated :func:`~repro.sim.cpu.simulate` calls on one
  already-decoded trace, each on a fresh state — the
  one-trace-many-configs regime the engine targets.

Asserted floors:

* steady-state columnar replay is >=4x faster than scalar on every pair
  (the target, usually met, is >=10x);
* the first-ever (cold) columnar replay, decode included, is >=2.5x
  faster than a steady-state scalar replay on every pair.

The compiled replay kernel is built (once per host) and loaded (once per
process) by an untimed warm-up replay of another trace, so no pair's
cold time includes it.

A DVFS operating point needs no replay of its own: it is a projection
of one :class:`~repro.sim.cpu.SimResult` (``time_seconds(f)``).

Results are emitted machine-readably to ``BENCH_replay.json`` at the
repo root so the trajectory can be tracked across PRs.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import paper_row, print_header
from repro.sim.cpu import simulate
from repro.sim.machine import machine_by_name
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import compile_trace

TRACE_INSTRUCTIONS = 60_000
PAIRS = (
    ("mi-qsort", "hw-a15"),
    ("parsec-canneal-1", "gem5-ex5-big"),
    ("mi-dijkstra", "hw-a7"),
    ("parsec-fluidanimate-4", "gem5-ex5-little"),
)
SCALAR_REPS = 2
COLUMNAR_REPS = 8
SPEEDUP_FLOOR = 4.0
SPEEDUP_TARGET = 10.0
COLD_FLOOR = 2.5

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_replay.json"
)


def _steady_seconds(trace, machine, engine: str, reps: int) -> float:
    """Per-replay wall seconds on an already-decoded trace."""
    simulate(trace, machine, engine=engine)  # decode and memos untimed
    started = time.perf_counter()
    for _ in range(reps):
        simulate(trace, machine, engine=engine)
    return (time.perf_counter() - started) / reps


def _bench_pair(workload: str, machine_name: str) -> dict:
    machine = machine_by_name(machine_name)
    trace = compile_trace(workload_by_name(workload), TRACE_INSTRUCTIONS, seed=101)

    started = time.perf_counter()
    simulate(trace, machine, engine="columnar")
    cold = time.perf_counter() - started

    scalar = _steady_seconds(trace, machine, "scalar", SCALAR_REPS)
    columnar = _steady_seconds(trace, machine, "columnar", COLUMNAR_REPS)

    return {
        "workload": workload,
        "machine": machine_name,
        "scalar_seconds": scalar,
        "columnar_cold_seconds": cold,
        "columnar_steady_seconds": columnar,
        "speedup_cold": scalar / cold,
        "speedup_steady": scalar / columnar,
    }


@pytest.mark.bench_replay
def test_bench_replay_speedup():
    warm_up = compile_trace(workload_by_name("mi-sha"), 1_000, seed=101)
    simulate(warm_up, machine_by_name("hw-a15"), engine="columnar")
    rows = [_bench_pair(workload, machine) for workload, machine in PAIRS]

    print_header("Columnar replay: scalar vs columnar, 60k-instr traces")
    for row in rows:
        label = f"{row['workload']}|{row['machine']}"
        print(
            paper_row(
                label,
                f">={SPEEDUP_FLOOR:.0f}x (target {SPEEDUP_TARGET:.0f}x)",
                f"{row['scalar_seconds'] * 1e3:.1f}ms scalar -> "
                f"{row['columnar_steady_seconds'] * 1e3:.1f}ms steady "
                f"= {row['speedup_steady']:.1f}x "
                f"({row['speedup_cold']:.1f}x cold)",
            )
        )

    payload = {
        "bench": "replay_speedup",
        "trace_instructions": TRACE_INSTRUCTIONS,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_target": SPEEDUP_TARGET,
        "cold_floor": COLD_FLOOR,
        "min_speedup_cold": min(r["speedup_cold"] for r in rows),
        "min_speedup_steady": min(r["speedup_steady"] for r in rows),
        "pairs": rows,
    }
    with open(RESULTS_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for row in rows:
        label = f"{row['workload']}|{row['machine']}"
        assert row["speedup_steady"] >= SPEEDUP_FLOOR, label
        assert row["speedup_cold"] >= COLD_FLOOR, label
