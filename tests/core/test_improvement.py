"""Tests for the iterative model-improvement loop."""

import pytest

from repro.core.improvement import (
    ImprovementResult,
    ImprovementStep,
    iterative_improvement,
    standard_fixes,
)
from repro.core.stats.metrics import mape, mpe
from repro.sim.cpu import simulate
from repro.sim.executor import SimExecutor
from repro.sim.machine import gem5_ex5_big, hardware_a15
from repro.sim.result_cache import SimJob
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import compile_trace

WORKLOADS = tuple(
    workload_by_name(name)
    for name in (
        "par-basicmath-rad2deg", "mi-bitcount", "mi-sha", "mi-qsort",
        "parsec-canneal-1", "dhrystone", "whetstone", "mi-fft",
    )
)




def direct_replay_loop(
    hw_machine, model_machine, workloads, fixes, freq_hz=1.0e9,
    trace_instructions=20_000, min_improvement=1.0, max_rounds=None,
):
    """The loop as it was when it replayed each trace with ``simulate``
    directly: the oracle the executor-driven loop must match bit for bit."""

    def evaluate(machine, traces, hw_times):
        model_times = [
            simulate(trace, machine).time_seconds(freq_hz) for trace in traces
        ]
        return mape(hw_times, model_times), mpe(hw_times, model_times)

    traces = [compile_trace(w, trace_instructions) for w in workloads]
    hw_times = [simulate(t, hw_machine).time_seconds(freq_hz) for t in traces]

    current = model_machine
    current_mape, current_mpe = evaluate(current, traces, hw_times)
    initial = (current_mape, current_mpe)

    pending = dict(fixes)
    steps = []
    while pending and (max_rounds is None or len(steps) < max_rounds):
        scored = []
        for name, fix in pending.items():
            candidate = fix(current)
            error, bias = evaluate(candidate, traces, hw_times)
            scored.append((error, bias, name, candidate))
        scored.sort(key=lambda row: row[0])
        best_mape, best_mpe, best_name, best_machine = scored[0]
        if best_mape > current_mape - min_improvement:
            break
        rejected = tuple(
            name for error, _, name, _ in scored[1:] if error > current_mape
        )
        steps.append(
            ImprovementStep(
                applied=best_name, mape=best_mape, mpe=best_mpe,
                rejected=rejected,
            )
        )
        current = best_machine
        current_mape, current_mpe = best_mape, best_mpe
        del pending[best_name]

    return ImprovementResult(
        initial_mape=initial[0],
        initial_mpe=initial[1],
        steps=tuple(steps),
        final_machine=current,
        remaining=tuple(pending),
    )


def _run(loop):
    hw = hardware_a15()
    return loop(
        hw,
        gem5_ex5_big(),
        WORKLOADS,
        standard_fixes(hw),
        trace_instructions=10_000,
    )


@pytest.fixture(scope="module")
def result():
    return _run(iterative_improvement)


def test_matches_the_direct_replay_loop(result):
    """Every step's MAPE, MPE and rejections, the starting error, the
    never-accepted fixes and the final machine equal the direct loop's,
    exact floats included."""
    oracle = _run(direct_replay_loop)
    assert result.steps  # the comparison covers accepted rounds
    assert result == oracle
    assert result.remaining == oracle.remaining
    assert result.final_machine == oracle.final_machine


def test_compiles_each_workload_once_and_batches_each_round(monkeypatch):
    """One compile per workload for the whole loop, and one executor batch
    for the hardware and starting model plus one per scoring round."""
    compiled, batches = [], []
    compile_recipe, run_many = SimJob.compile_recipe, SimExecutor.run_many

    def spy_compile(job):
        compiled.append(job.profile.name)
        return compile_recipe(job)

    def spy_run_many(executor, jobs, *args, **kwargs):
        batches.append(len(jobs))
        return run_many(executor, jobs, *args, **kwargs)

    monkeypatch.setattr(SimJob, "compile_recipe", spy_compile)
    monkeypatch.setattr(SimExecutor, "run_many", spy_run_many)
    hw = hardware_a15()
    fixes = standard_fixes(hw)
    outcome = iterative_improvement(
        hw, gem5_ex5_big(), WORKLOADS[:4], fixes, trace_instructions=6_000,
    )

    assert sorted(compiled) == sorted(w.name for w in WORKLOADS[:4])
    rounds = len(outcome.steps) + bool(outcome.remaining)
    assert len(batches) == 1 + rounds
    pending = [len(fixes) - i for i in range(rounds)]
    assert batches == [2 * 4] + [n * 4 for n in pending]


class TestLoop:
    def test_mape_monotonically_decreases(self, result):
        mapes = [result.initial_mape] + [s.mape for s in result.steps]
        assert all(b < a for a, b in zip(mapes, mapes[1:]))

    def test_bp_fixed_first(self, result):
        """The dominant error must be repaired first (Section IV-F)."""
        assert result.steps
        assert result.steps[0].applied == "branch predictor"

    def test_substantial_overall_improvement(self, result):
        assert result.final_mape < result.initial_mape * 0.5

    def test_final_machine_differs_from_start(self, result):
        assert result.final_machine.predictor == "tournament"

    def test_audit_trail_renders(self, result):
        text = result.summary()
        assert "initial:" in text
        assert "branch predictor" in text

    def test_steps_unique(self, result):
        names = [s.applied for s in result.steps]
        assert len(names) == len(set(names))

    def test_remaining_disjoint_from_applied(self, result):
        applied = {s.applied for s in result.steps}
        assert not applied & set(result.remaining)


class TestValidation:
    def test_empty_workloads_rejected(self):
        hw = hardware_a15()
        with pytest.raises(ValueError):
            iterative_improvement(hw, gem5_ex5_big(), [], standard_fixes(hw))

    def test_empty_fixes_rejected(self):
        hw = hardware_a15()
        with pytest.raises(ValueError):
            iterative_improvement(hw, gem5_ex5_big(), WORKLOADS, {})

    def test_max_rounds_respected(self):
        hw = hardware_a15()
        result = iterative_improvement(
            hw, gem5_ex5_big(), WORKLOADS[:4], standard_fixes(hw),
            trace_instructions=6_000, max_rounds=1,
        )
        assert len(result.steps) <= 1

    def test_useless_fix_never_accepted(self):
        hw = hardware_a15()
        result = iterative_improvement(
            hw,
            gem5_ex5_big(),
            WORKLOADS[:4],
            {"no-op": lambda m: m},
            trace_instructions=6_000,
        )
        assert not result.steps
        assert result.remaining == ("no-op",)
        assert result.final_mape == result.initial_mape
