"""The columnar engine's L2 stage: one exact program-order walk, memoised.

Every columnar replay resolves the L2-facing event stream (L2, L2 TLBs,
stride prefetcher) with the scalar-model walk over the real state
objects, and memoises the outcome on the decoded trace.  These tests pin
what that design promises:

* the trace that used to exhaust a batched prefetch fixpoint replays
  bit-identically to the scalar engine and records no guard event;
* a memo hit through a reset-and-reused simulator never aliases the
  reused state's live counters, so A, B, A replays each equal a fresh
  replay.

Decode-once DVFS sweeps on every machine are pinned in
``test_columnar_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.obs.tracer import Tracer
from repro.sim.cpu import CpuSimulator, simulate
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


def test_l2_walk_memo_hit_does_not_alias_reused_state():
    machine = machine_by_name("gem5-ex5-big")
    trace_a = compile_trace(workload_by_name("mi-qsort"), 6_000)
    trace_b = compile_trace(workload_by_name("parsec-canneal-1"), 6_000)

    sim = CpuSimulator(machine)
    first_a = sim.run(trace_a)
    run_b = sim.run(trace_b)  # reset-in-place, walks B on the same objects
    again_a = sim.run(trace_a)  # reset-in-place, l2walk memo hit for A

    for result, trace in ((first_a, trace_a), (run_b, trace_b), (again_a, trace_a)):
        _assert_same(result, simulate(trace, machine))
        _assert_same(result, simulate(trace, machine, "scalar"))

    state = sim._state
    # The third replay took the memo: the reset L2 was never walked.
    assert state.l2.stats.accesses == 0
    cols = trace_a.replay_tables().columnar(trace_a)
    _, (_, l2_stats, l2_itlb_stats, l2_dtlb_stats) = cols.memo[("l2walk",)]
    live = (state.l2.stats, state.tlb.l2_itlb.stats, state.tlb.l2_dtlb.stats)
    for cached in (l2_stats, l2_itlb_stats, l2_dtlb_stats):
        assert all(cached is not obj for obj in live)
