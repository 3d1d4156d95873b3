"""Unit tests for :mod:`repro.sim.guard`.

Plans and sampling, bit-exact result comparison, result/decode integrity
contracts, the guarded-simulate fallback matrix, guardrail accounting and
the executor's poison-job breaker that records on the guardrail.
Campaign-level chaos scenarios live in ``test_chaos_columnar.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.sim.cpu import simulate
from repro.sim.executor import POISON_THRESHOLD, RetryPolicy, SimExecutor
from repro.sim.faults import FaultPlan
from repro.sim.guard import (
    SENTINEL_INTERVAL,
    GuardEvent,
    GuardPlan,
    GuardRail,
    compare_results,
    guarded_simulate,
)
from repro.sim.machine import hardware_a15
from repro.sim.result_cache import SimJob
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import columnar_checksum, compile_trace, validate_columnar

N_INSTRS = 6_000

PARANOID = GuardPlan(level="paranoid")


@pytest.fixture(scope="module")
def trace():
    return compile_trace(workload_by_name("mi-sha"), N_INSTRS)


@pytest.fixture(scope="module")
def machine():
    return hardware_a15()


@pytest.fixture(scope="module")
def golden(trace, machine):
    """The scalar reference result everything must stay bit-identical to."""
    return simulate(trace, machine, "scalar")


def _assert_same(a, b):
    assert compare_results(a, b) == []


def _fresh_decode(trace):
    """A freshly built decode, bypassing any memoised attach."""
    tables = trace.replay_tables()
    tables._columnar = None
    return tables, tables.columnar(trace)


class TestGuardPlan:
    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown guard level"):
            GuardPlan(level="bogus")

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError, match="sentinel_interval"):
            GuardPlan(level="sentinel", sentinel_interval=0)

    def test_off_is_inactive(self):
        plan = GuardPlan()
        assert not plan.active
        assert not any(plan.samples(i) for i in range(64))

    def test_interval_resolution(self):
        assert GuardPlan(level="sentinel").interval == SENTINEL_INTERVAL
        assert GuardPlan(level="paranoid").interval == 1
        assert GuardPlan(level="sentinel", sentinel_interval=7).interval == 7

    def test_sampling_is_deterministic_and_seeded(self):
        plan = GuardPlan(level="sentinel", sentinel_interval=8)
        sampled = [i for i in range(64) if plan.samples(i)]
        assert sampled == list(range(0, 64, 8))
        assert sampled == [i for i in range(64) if plan.samples(i)]
        shifted = replace(plan, seed=3)
        assert [i for i in range(64) if shifted.samples(i)] == list(range(5, 64, 8))

    def test_paranoid_samples_every_ordinal(self):
        assert all(PARANOID.samples(i) for i in range(16))


class TestGuardEvent:
    def test_summary_wording(self):
        event = GuardEvent(
            kind="divergence",
            workload="mi-sha",
            machine="A15",
            action="fallback-scalar",
            detail="core_cycles: 1.0 != 2.0",
        )
        assert event.summary() == (
            "[divergence] mi-sha on A15 -> fallback-scalar "
            "(core_cycles: 1.0 != 2.0)"
        )
        bare = GuardEvent("deadline", "*", "*", "observe")
        assert bare.summary() == "[deadline] * on * -> observe"


class TestCompareResults:
    def test_identical_results_match(self, golden):
        assert compare_results(golden, golden) == []

    def test_nan_equals_nan(self, golden):
        a = replace(golden, core_cycles=float("nan"))
        b = replace(golden, core_cycles=float("nan"))
        assert compare_results(a, b) == []

    def test_scalar_field_mismatch_reported(self, golden):
        tweaked = replace(golden, core_cycles=golden.core_cycles + 1.0)
        mismatches = compare_results(golden, tweaked)
        assert len(mismatches) == 1
        assert mismatches[0].startswith("core_cycles:")

    def test_mapping_mismatches_reported(self, golden):
        counts = dict(golden.counts)
        key = sorted(counts)[0]
        counts[key] += 1
        counts["phantom"] = 9
        mismatches = compare_results(golden, replace(golden, counts=counts))
        assert any(f"counts[{key}]" in m for m in mismatches)
        assert any("present on one side only" in m for m in mismatches)


class TestResultIntegrity:
    def test_clean_result_has_no_problems(self, golden):
        assert golden.integrity_problems() == []

    def test_nan_and_inf_flagged(self, golden):
        assert replace(golden, core_cycles=float("nan")).integrity_problems()
        assert replace(
            golden, dram_stall_weight=float("inf")
        ).integrity_problems()

    def test_negative_count_flagged(self, golden):
        counts = dict(golden.counts)
        counts[sorted(counts)[0]] = -1
        problems = replace(golden, counts=counts).integrity_problems()
        assert any("negative" in p for p in problems)


class TestDecodeContract:
    def test_fresh_decode_validates(self, trace):
        _, cols = _fresh_decode(trace)
        assert validate_columnar(cols) == []
        assert cols.checksum == columnar_checksum(cols)

    def test_flipped_column_fails_checksum(self, trace):
        tables, cols = _fresh_decode(trace)
        try:
            cols.mem_line[::3] ^= 0x15
            problems = validate_columnar(cols)
            assert problems
            assert any("checksum" in p or "line" in p for p in problems)
        finally:
            # Detach the corrupted decode from the module-scoped trace.
            tables._columnar = None


class TestGuardedSimulate:
    def test_off_plan_is_a_passthrough(self, trace, machine, golden):
        result, events, sentinels = guarded_simulate(trace, machine)
        assert events == [] and sentinels == 0
        _assert_same(result, golden)

    def test_scalar_engine_bypasses_guards(self, trace, machine, golden):
        result, events, sentinels = guarded_simulate(
            trace, machine, engine="scalar", plan=PARANOID
        )
        assert events == [] and sentinels == 0
        _assert_same(result, golden)

    def test_clean_paranoid_run_dual_replays(self, trace, machine, golden):
        result, events, sentinels = guarded_simulate(
            trace, machine, plan=PARANOID
        )
        assert events == []
        assert sentinels == 1
        _assert_same(result, golden)

    def test_unsampled_ordinal_skips_the_sentinel(self, trace, machine, golden):
        plan = GuardPlan(level="sentinel", sentinel_interval=1000)
        result, events, sentinels = guarded_simulate(
            trace, machine, plan=plan, ordinal=1
        )
        assert events == [] and sentinels == 0
        _assert_same(result, golden)

    def test_corrupt_decode_requarantined(self, trace, machine, golden):
        faults = FaultPlan.corrupt_column("mi-sha")
        result, events, _ = guarded_simulate(
            trace, machine, plan=PARANOID, faults=faults, ordinal=0
        )
        assert [e.kind for e in events] == ["decode-corrupt"]
        assert events[0].action == "requarantine-decode"
        _assert_same(result, golden)
        # The re-decode healed in place: the next attempt runs clean.
        result, events, _ = guarded_simulate(
            trace, machine, plan=PARANOID, faults=faults, ordinal=0, attempt=2
        )
        assert events == []
        _assert_same(result, golden)

    def test_poisoned_memo_caught_by_sentinel(self, trace, machine, golden):
        faults = FaultPlan.poison_memo("mi-sha")
        result, events, sentinels = guarded_simulate(
            trace, machine, plan=PARANOID, faults=faults, ordinal=0
        )
        assert [e.kind for e in events] == ["divergence"]
        assert events[0].action == "fallback-scalar"
        assert sentinels == 1
        _assert_same(result, golden)
        # The divergence quarantined the decode and its memos.
        result, events, _ = guarded_simulate(
            trace, machine, plan=PARANOID, faults=faults, ordinal=0, attempt=2
        )
        assert events == []
        _assert_same(result, golden)

    def test_nan_result_rejected(self, trace, machine, golden):
        faults = FaultPlan.nan_pass("mi-sha")
        result, events, _ = guarded_simulate(
            trace, machine, plan=PARANOID, faults=faults, ordinal=0
        )
        assert [e.kind for e in events] == ["nan-result"]
        _assert_same(result, golden)

    def test_faults_target_their_job_only(self, trace, machine, golden):
        faults = FaultPlan.corrupt_column("mi-qsort")
        _, events, _ = guarded_simulate(
            trace, machine, plan=PARANOID, faults=faults, ordinal=0
        )
        assert events == []


class TestGuardRail:
    def test_record_routes_to_counters(self):
        rail = GuardRail(PARANOID)
        rail.record(GuardEvent("divergence", "w", "m", "fallback-scalar"))
        rail.record(GuardEvent("decode-corrupt", "w", "m", "requarantine-decode"))
        assert rail.metrics.counter("sim.guard.events").value == 2
        assert rail.metrics.counter("sim.guard.divergences").value == 1
        assert rail.metrics.counter("sim.guard.decode_quarantines").value == 1
        # Only genuine result replacements count as fallbacks.
        assert rail.metrics.counter("sim.guard.fallbacks").value == 1
        assert len(rail.events) == 2

    def test_absorb_worker_payload(self):
        rail = GuardRail(PARANOID)
        shipped = (GuardEvent("nan-result", "w", "m", "fallback-scalar"),)
        rail.absorb(shipped, sentinel_replays=1)
        rail.absorb((), sentinel_replays=1)
        assert rail.metrics.counter("sim.guard.sentinel_replays").value == 2
        assert rail.metrics.counter("sim.guard.nan_fallbacks").value == 1
        assert [e.kind for e in rail.events] == ["nan-result"]


class TestPoisonBreaker:
    """The executor's poison-job circuit breaker, driven through real pools.

    ``mi-sha`` hard-kills its worker on every attempt, so each pooled batch
    breaks the pool once; its serial isolation rerun fails too, which
    confirms one kill.  The bystander recovers serially and is never
    charged.
    """

    @pytest.fixture(scope="class")
    def pairs(self, machine):
        return [
            SimJob(workload_by_name(name), N_INSTRS, machine)
            for name in ("mi-sha", "mi-qsort")
        ]

    @staticmethod
    def _crashing(guard):
        return SimExecutor(
            jobs=2,
            retry=RetryPolicy(max_attempts=2, base_seconds=0.0),
            faults=FaultPlan.crash_workload("mi-sha", attempts=99),
            guard=guard,
        )

    def test_poison_accounting(self, pairs):
        executor = self._crashing(PARANOID)
        key, bystander = (job.key for job in pairs)
        assert POISON_THRESHOLD == 2
        assert not executor.is_poisoned(key)
        executor.run_many(pairs, raise_on_error=False)
        assert not executor.is_poisoned(key)
        executor.run_many(pairs, raise_on_error=False)
        assert executor.is_poisoned(key)
        assert not executor.is_poisoned(bystander)
        assert executor.telemetry.worker_crashes == 2
        # The breaker announces when it routes the job, not when it arms.
        assert executor.guard.metrics.counter("sim.guard.poison_jobs").value == 0

    def test_circuit_break_announces_once(self, pairs):
        executor = self._crashing(PARANOID)
        for _ in range(POISON_THRESHOLD):
            executor.run_many(pairs, raise_on_error=False)
        crashes = executor.telemetry.worker_crashes
        for _ in range(2):
            results = executor.run_many(pairs, raise_on_error=False)
            assert results[0] is None and results[1] is not None
        # Quarantined batches run in the parent: no further worker dies.
        assert executor.telemetry.worker_crashes == crashes
        assert executor.guard.metrics.counter("sim.guard.poison_jobs").value == 1
        assert [e.kind for e in executor.guard.events] == ["poison-job"]
        event = executor.guard.events[0]
        assert (event.workload, event.action) == ("mi-sha", "circuit-break")
        assert "killed 2 worker(s)" in event.detail

    def test_breaker_trips_with_guards_off(self, pairs):
        executor = self._crashing(GuardPlan())
        assert not executor.guard.plan.active
        for _ in range(POISON_THRESHOLD + 1):
            executor.run_many(pairs, raise_on_error=False)
        assert executor.is_poisoned(pairs[0].key)
        assert executor.telemetry.worker_crashes == POISON_THRESHOLD
        assert [e.kind for e in executor.guard.events] == ["poison-job"]
        assert executor.guard.metrics.counter("sim.guard.poison_jobs").value == 1
