"""Chaos suite: deterministic fault injection against the executor + cache.

Every scenario asserts the same invariant: whatever faults are injected —
worker crashes (a genuine broken pool), job hangs past the per-job timeout,
poisoned jobs, corrupt cache entries, unusable cache directories — the
recovered results are *bit-identical* to a fault-free serial run, and the
telemetry/quarantine accounting says exactly what happened.

The suite runs in the default ``make test`` path with a small deterministic
seed set; ``make test-chaos`` runs just these scenarios.
"""

from __future__ import annotations

import os

import pytest

from repro.sim.cpu import simulate
from repro.sim.executor import (
    RetryPolicy,
    SimExecutor,
    SimJobError,
    SimJobFailure,
)
from repro.sim.faults import FaultPlan, FaultSpec, InjectedFault
from repro.sim.guard import GuardPlan
from repro.sim.machine import hardware_a15
from repro.sim.result_cache import SimJob, SimResultCache
from repro.workloads.suites import workload_by_name

pytestmark = pytest.mark.chaos

N_INSTRS = 6_000

#: No backoff sleeps in tests; determinism does not need wall-clock.
FAST_RETRY = RetryPolicy(max_attempts=3, base_seconds=0.0)


@pytest.fixture(scope="module")
def machine():
    return hardware_a15()


@pytest.fixture(scope="module")
def jobs(machine):
    return [
        SimJob(workload_by_name(name), N_INSTRS, machine)
        for name in ("mi-sha", "mi-qsort", "dhrystone")
    ]


@pytest.fixture(scope="module")
def golden(jobs):
    """The fault-free serial reference results."""
    return [simulate(job.compile(), job.machine) for job in jobs]


def _assert_same(a, b):
    assert a.counts == b.counts
    assert a.core_cycles == b.core_cycles
    assert a.dram_stall_weight == b.dram_stall_weight
    assert a.components == b.components


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("meltdown", job=0)

    def test_job_fault_needs_target(self):
        with pytest.raises(ValueError):
            FaultSpec("crash")

    def test_plans_compose_with_or(self):
        plan = FaultPlan.crash_job(0) | FaultPlan.corrupt_cache("mi-sha")
        assert len(plan.faults) == 2
        assert bool(plan)
        assert not bool(FaultPlan())

    def test_crash_raises_in_parent(self):
        plan = FaultPlan.crash_job(3)
        with pytest.raises(InjectedFault):
            plan.apply_job_fault(3, "mi-sha", attempt=1, in_worker=False)
        # Wrong ordinal, exhausted attempts: no fault.
        plan.apply_job_fault(2, "mi-sha", attempt=1, in_worker=False)
        plan.apply_job_fault(3, "mi-sha", attempt=2, in_worker=False)

    def test_crash_by_workload_name(self):
        plan = FaultPlan.crash_workload("mi-sha", attempts=2)
        with pytest.raises(InjectedFault):
            plan.apply_job_fault(7, "mi-sha", attempt=2, in_worker=False)
        plan.apply_job_fault(7, "mi-qsort", attempt=1, in_worker=False)

    def test_shard_faults_match_phase_workload_and_attempt(self):
        plan = (FaultPlan.shard_crash("mi-sha")
                | FaultPlan.lease_stall("mi-qsort", seconds=0.5, attempts=2))
        crash = plan.shard_fault("stored", "mi-sha", 1)
        assert crash is not None and crash.kind == "shard-crash"
        # Spent attempt budget, wrong workload, wrong phase: no fault.
        assert plan.shard_fault("stored", "mi-sha", 2) is None
        assert plan.shard_fault("stored", "mi-qsort", 1) is None
        assert plan.shard_fault("claimed", "mi-sha", 1) is None
        stall = plan.shard_fault("claimed", "mi-qsort", 2)
        assert stall is not None and stall.kind == "lease-stall"
        assert stall.hang_seconds == 0.5
        assert plan.shard_fault("unknown-phase", "mi-sha", 1) is None

    def test_power_faults_deterministic(self):
        import numpy as np

        plan = FaultPlan.nan_power("w", fraction=0.5)
        samples = np.linspace(1.0, 2.0, 16)
        a, lost_a = plan.apply_power_faults("w", "A15-1e9", samples)
        b, lost_b = plan.apply_power_faults("w", "A15-1e9", samples)
        assert lost_a == lost_b == 8
        assert np.array_equal(a, b, equal_nan=True)
        # The input array is never mutated.
        assert np.isfinite(samples).all()


class TestRetryPolicy:
    def test_deterministic_exponential_backoff(self):
        policy = RetryPolicy(max_attempts=5, base_seconds=0.1, backoff=2.0,
                             cap_seconds=0.3)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(4) == pytest.approx(0.3)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)

    def test_pathological_attempt_counts_saturate_at_cap(self):
        # Campaign lease re-queues can produce attempt numbers far past
        # anything a pool retry loop sees; the bounded exponent must
        # saturate at the cap instead of raising OverflowError.
        policy = RetryPolicy(max_attempts=3, base_seconds=0.05,
                             backoff=2.0, cap_seconds=1.0)
        assert policy.delay(10_000) == policy.cap_seconds
        assert policy.delay(2**31) == policy.cap_seconds
        huge = RetryPolicy(max_attempts=3, base_seconds=1.0, backoff=10.0,
                           cap_seconds=float("inf"))
        assert huge.delay(10_000) == huge.delay(10_001)  # bounded, finite
        assert huge.delay(10_000) < float("inf")


class TestSerialRecovery:
    def test_flaky_job_retried_to_identical_result(self, jobs, golden):
        ex = SimExecutor(jobs=1, retry=FAST_RETRY, faults=FaultPlan.crash_job(0))
        results = ex.run_many(jobs)
        for result, reference in zip(results, golden):
            _assert_same(result, reference)
        assert ex.telemetry.job_retries == 1
        assert ex.telemetry.jobs_failed == 0

    def test_poisoned_job_fails_permanently(self, jobs):
        plan = FaultPlan.crash_workload(jobs[0].profile.name, attempts=99)
        ex = SimExecutor(jobs=1, retry=FAST_RETRY, faults=plan)
        with pytest.raises(SimJobError) as err:
            ex.run_many(jobs)
        assert err.value.failure.trace_name == jobs[0].profile.name
        assert err.value.failure.attempts == FAST_RETRY.max_attempts
        assert ex.telemetry.jobs_failed == 1

    def test_raise_on_error_false_degrades(self, jobs, golden):
        plan = FaultPlan.crash_workload(jobs[0].profile.name, attempts=99)
        ex = SimExecutor(jobs=1, retry=FAST_RETRY, faults=plan)
        results = ex.run_many(jobs, raise_on_error=False)
        assert results[0] is None
        for result, reference in zip(results[1:], golden[1:]):
            _assert_same(result, reference)
        assert len(ex.last_failures) == 1
        assert isinstance(ex.last_failures[0], SimJobFailure)


class TestPoolCrashIsolation:
    def test_worker_crash_recovers_bit_identical(self, jobs, golden):
        """A hard worker death (os._exit) breaks the pool; only the affected
        jobs rerun serially and the batch still matches the golden run."""
        ex = SimExecutor(jobs=2, retry=FAST_RETRY, faults=FaultPlan.crash_job(0))
        results = ex.run_many(jobs)
        for result, reference in zip(results, golden):
            _assert_same(result, reference)
        assert ex.telemetry.worker_crashes >= 1
        assert ex.telemetry.jobs_isolated >= 1
        assert ex.telemetry.jobs_failed == 0

    def test_hang_times_out_and_recovers(self, jobs, golden):
        ex = SimExecutor(
            jobs=4,
            retry=FAST_RETRY,
            timeout_seconds=0.6,
            faults=FaultPlan.hang_job(1, seconds=3.0),
        )
        results = ex.run_many(jobs)
        for result, reference in zip(results, golden):
            _assert_same(result, reference)
        assert ex.telemetry.job_timeouts == 1
        assert ex.telemetry.jobs_isolated == 1

    def test_no_retry_budget_reports_failure(self, jobs):
        plan = FaultPlan.crash_workload(jobs[0].profile.name, attempts=99)
        ex = SimExecutor(
            jobs=2, retry=RetryPolicy(max_attempts=1), faults=plan
        )
        results = ex.run_many(jobs, raise_on_error=False)
        assert results[0] is None
        assert ex.telemetry.jobs_failed >= 1

    def test_no_retry_budget_still_reruns_a_broken_pool(
        self, jobs, golden
    ):
        """A pool crash is not the job's own attempt: even at
        ``max_attempts=1`` every job in flight gets its serial isolation
        rerun, so a one-off worker death loses nothing."""
        ex = SimExecutor(
            jobs=2,
            retry=RetryPolicy(max_attempts=1, base_seconds=0.0),
            faults=FaultPlan.crash_job(0),
        )
        results = ex.run_many(jobs)
        for result, reference in zip(results, golden):
            _assert_same(result, reference)
        assert ex.telemetry.worker_crashes == 1
        assert ex.telemetry.jobs_isolated >= 1
        assert ex.telemetry.jobs_failed == 0

    def test_no_retry_budget_never_reruns_a_timeout(
        self, jobs, golden
    ):
        """A timed-out job respects the budget: it is not rerun in the
        parent (where nothing could interrupt it), even though its second
        attempt would not hang."""
        ex = SimExecutor(
            jobs=4,
            retry=RetryPolicy(max_attempts=1, base_seconds=0.0),
            timeout_seconds=0.6,
            faults=FaultPlan.hang_job(1, seconds=3.0),
        )
        results = ex.run_many(jobs, raise_on_error=False)
        assert results[1] is None
        assert [(f.trace_name, f.kind, f.attempts) for f in ex.last_failures] == [
            (jobs[1].profile.name, "timeout", 1)
        ]
        for i in (0, 2):
            _assert_same(results[i], golden[i])
        assert ex.telemetry.job_timeouts == 1
        assert ex.telemetry.jobs_failed == 1

    def test_no_retry_budget_never_reruns_an_oom(
        self, jobs, golden
    ):
        """A worker's own ``MemoryError`` respects the budget too."""
        ex = SimExecutor(
            jobs=2,
            retry=RetryPolicy(max_attempts=1, base_seconds=0.0),
            faults=FaultPlan.worker_oom(jobs[0].profile.name),
        )
        results = ex.run_many(jobs, raise_on_error=False)
        assert results[0] is None
        assert [(f.kind, f.attempts) for f in ex.last_failures] == [("oom", 1)]
        for i in (1, 2):
            _assert_same(results[i], golden[i])
        assert ex.telemetry.jobs_failed == 1
        assert [e.kind for e in ex.guard.events] == ["worker-oom"]


class TestCacheCorruption:
    def test_corrupt_write_quarantined_and_recomputed(
        self, jobs, golden, tmp_path
    ):
        cache_dir = str(tmp_path / "simcache")
        plan = FaultPlan.corrupt_cache(jobs[0].profile.name, attempts=99)
        ex = SimExecutor(jobs=1, retry=FAST_RETRY, cache_dir=cache_dir, faults=plan)
        first = ex.run_many(jobs)
        for result, reference in zip(first, golden):
            _assert_same(result, reference)
        # A fresh, fault-free executor over the same directory must detect
        # the corruption, quarantine the entry, and recompute identically.
        clean = SimExecutor(jobs=1, cache_dir=cache_dir)
        second = clean.run_many(jobs)
        for result, reference in zip(second, golden):
            _assert_same(result, reference)
        assert clean.cache.metrics.counter("sim.cache.quarantined").value == 1
        assert clean.telemetry.cache_hits == len(jobs) - 1
        quarantine = os.path.join(cache_dir, "quarantine")
        assert os.path.isdir(quarantine) and len(os.listdir(quarantine)) == 1

    def test_parallel_corrupt_reap_recovers(self, jobs, golden, tmp_path):
        """Workers write corrupt entries; the parent's reap detects it and
        recomputes in-process — results still bit-identical."""
        cache_dir = str(tmp_path / "simcache")
        plan = FaultPlan.corrupt_cache(attempts=1)  # every workload's 1st put
        ex = SimExecutor(jobs=2, retry=FAST_RETRY, cache_dir=cache_dir, faults=plan)
        results = ex.run_many(jobs)
        for result, reference in zip(results, golden):
            _assert_same(result, reference)
        assert ex.cache.metrics.counter("sim.cache.quarantined").value >= 1

    def test_unreaped_entry_reruns_as_attempt_two(self, jobs, golden, tmp_path):
        """A reap failure reruns like every other parent-side rerun of a
        pool job: in the serial lane as attempt 2, so a fault confined to
        attempt 1 fires once (in the worker), not again in the parent."""
        name = jobs[0].profile.name
        ex = SimExecutor(
            jobs=2, retry=FAST_RETRY, cache_dir=str(tmp_path / "simcache"),
            faults=FaultPlan.corrupt_cache(name) | FaultPlan.nan_pass(name),
            guard=GuardPlan(level="sentinel"),
        )
        results = ex.run_many(jobs)
        for result, reference in zip(results, golden):
            _assert_same(result, reference)
        assert ex.cache.metrics.counter("sim.cache.quarantined").value == 1
        assert [(e.kind, e.workload) for e in ex.guard.events] == [
            ("nan-result", name)
        ]


class TestDegradedCacheDirectory:
    def test_failing_writes_degrade_with_one_warning(
        self, jobs, golden, tmp_path, monkeypatch
    ):
        # chmod-based read-only dirs don't stop root, so simulate the
        # full/read-only filesystem at the atomic-rename step instead.
        cache = SimResultCache(str(tmp_path / "simcache"))

        def refuse(src, dst):
            raise OSError(30, "Read-only file system", dst)

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.warns(RuntimeWarning, match="degrading to uncached"):
            cache.put(jobs[0], golden[0])
            cache.put(jobs[1], golden[1])  # no second warning
        assert cache.degraded
        assert cache.metrics.counter("sim.cache.put_failures").value >= 1
        assert cache.get(jobs[0]) is None

    def test_executor_survives_unusable_cache(self, jobs, golden, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.warns(RuntimeWarning):
            ex = SimExecutor(jobs=1, cache_dir=str(blocker / "simcache"))
            results = ex.run_many(jobs)
        for result, reference in zip(results, golden):
            _assert_same(result, reference)


class TestTelemetryAccounting:
    def test_serial_fallback_counts_simulate_time_once(self, jobs, monkeypatch):
        """Satellite regression: the broken-pool fallback used to add the
        failed pool window *and* the serial window to ``simulate_seconds``.
        With a fake clock advancing 1 s per reading, the serial window is
        exactly 1 s and nothing else may be added."""
        import itertools

        import repro.sim.executor as executor_mod

        class BrokenPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes in this environment")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", BrokenPool)
        ticker = itertools.count()
        monkeypatch.setattr(
            executor_mod, "perf_counter", lambda: float(next(ticker))
        )
        ex = SimExecutor(jobs=4)
        ex.run_many(jobs)
        assert ex.telemetry.serial_fallbacks == 1
        assert ex.telemetry.simulate_seconds == 1.0
