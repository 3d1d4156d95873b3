"""The columnar engine's L2 stage: one exact program-order walk, memoised.

Every columnar replay resolves the L2-facing event stream (L2, L2 TLBs,
stride prefetcher) with the compiled program-order walk of
:mod:`repro.sim.kernel`, and memoises the outcome on the decoded trace.  These tests pin
what that design promises:

* the trace that used to exhaust a batched prefetch fixpoint replays
  bit-identically to the scalar engine and records no guard event;
* replays A, B, A, each on a fresh state, equal the scalar engine, and
  the second replay of A takes the walk memo instead of walking.

DVFS projections on every machine are pinned in
``test_columnar_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.obs.tracer import Tracer
from repro.sim import columnar as columnar_mod
from repro.sim.cpu import simulate
from repro.sim.guard import compare_results
from repro.sim.machine import machine_by_name
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import compile_trace


def _assert_same(a, b) -> None:
    assert compare_results(a, b) == []


@pytest.fixture(scope="module")
def probe_trace():
    # Production length: the batched fixpoint exhausted its 40 rounds on
    # all three machines below at 60k instructions.
    return compile_trace(workload_by_name("rl-cache-probe"), 60_000)


@pytest.mark.parametrize(
    "machine_name", ["hw-a15", "gem5-ex5-big", "gem5-ex5-little"]
)
def test_former_fixpoint_exhaustion_is_exact_and_silent(
    probe_trace, machine_name
):
    machine = machine_by_name(machine_name)
    tracer = Tracer(enabled=True)
    columnar = simulate(probe_trace, machine, "columnar", tracer=tracer)
    _assert_same(columnar, simulate(probe_trace, machine, "scalar"))
    assert [r for r in tracer.records if r.get("name") == "guard"] == []
    # The replay really was traced: the walk span and profile are there.
    names = {r.get("name") for r in tracer.records}
    assert "replay/l2_walk" in names
    assert "replay-profile" in names


def test_l2_walk_memo_hit_matches_fresh_replays(monkeypatch):
    machine = machine_by_name("gem5-ex5-big")
    trace_a = compile_trace(workload_by_name("mi-qsort"), 6_000)
    trace_b = compile_trace(workload_by_name("parsec-canneal-1"), 6_000)
    walked = []
    real_walk = columnar_mod._l2_walk

    def counting_walk(*args):
        walked.append(args)
        return real_walk(*args)

    monkeypatch.setattr(columnar_mod, "_l2_walk", counting_walk)
    first_a = simulate(trace_a, machine)
    run_b = simulate(trace_b, machine)
    again_a = simulate(trace_a, machine)  # l2walk memo hit for A
    assert len(walked) == 2

    for result, trace in ((first_a, trace_a), (run_b, trace_b), (again_a, trace_a)):
        _assert_same(result, simulate(trace, machine, "scalar"))
