"""Chaos suite: columnar faults against guarded campaigns.

Every scenario asserts the guard layer's core promise: whatever columnar
fault is injected — corrupt decoded columns, poisoned warm-row memos, NaNs
leaking out of a vectorized pass, workers dying over and over on one job,
workers running out of memory — the campaign's numbers stay *bit-identical*
to an all-scalar fault-free run, and every intervention is recorded as a
:class:`~repro.sim.guard.GuardEvent` in :class:`CollectionHealth` and the
report, never silently absorbed.

Runs in the default ``make test`` path; ``make test-chaos`` selects it.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import GemStone, GemStoneConfig
from repro.core.report import render_collection_health
from repro.sim.cpu import simulate
from repro.sim.executor import RetryPolicy, SimExecutor
from repro.sim.faults import FaultPlan
from repro.sim.guard import GuardPlan
from repro.sim.machine import hardware_a15
from repro.sim.result_cache import SimJob
from repro.workloads.suites import workload_by_name

from tests.conftest import SMALL_FREQS, TRACE_INSTRUCTIONS

pytestmark = pytest.mark.chaos

WORKLOADS = ("mi-sha", "mi-qsort", "dhrystone")
TARGET = "mi-sha"

NO_BACKOFF = RetryPolicy(max_attempts=2, base_seconds=0.0)

#: (fault plan constructor, guard event kind the campaign must record).
COLUMNAR_SCENARIOS = (
    ("corrupt-column", FaultPlan.corrupt_column, "decode-corrupt"),
    ("poison-memo", FaultPlan.poison_memo, "divergence"),
    ("nan-pass", FaultPlan.nan_pass, "nan-result"),
)


def _profiles():
    return tuple(workload_by_name(name) for name in WORKLOADS)


def _gemstone(faults=None, guard_level="paranoid", engine="columnar", **overrides):
    defaults = dict(
        core="A15",
        workloads=_profiles(),
        power_workloads=_profiles(),
        frequencies=SMALL_FREQS,
        trace_instructions=TRACE_INSTRUCTIONS,
        retry=NO_BACKOFF,
        faults=faults,
        engine=engine,
        guard_level=guard_level,
    )
    defaults.update(overrides)
    return GemStone(GemStoneConfig(**defaults))


@pytest.fixture(scope="module")
def reference():
    """The all-scalar, guard-off dataset every scenario must reproduce."""
    return _gemstone(engine="scalar", guard_level="off").dataset


def _assert_rows_bit_identical(dataset, reference):
    assert [
        (r.workload, r.freq_hz) for r in dataset.runs
    ] == [(r.workload, r.freq_hz) for r in reference.runs]
    for run in dataset.runs:
        ref = reference.run(run.workload, run.freq_hz)
        assert run.hw_time == ref.hw_time
        assert run.hw.pmc == ref.hw.pmc
        assert run.gem5_time == ref.gem5_time
        assert run.gem5.stats == ref.gem5.stats


class TestColumnarFaultHealing:
    @pytest.mark.parametrize(
        "constructor, kind",
        [(c, k) for _, c, k in COLUMNAR_SCENARIOS],
        ids=[name for name, _, _ in COLUMNAR_SCENARIOS],
    )
    def test_campaign_bit_identical_with_fault_recorded(
        self, constructor, kind, reference
    ):
        gs = _gemstone(faults=constructor(TARGET))
        dataset = gs.dataset
        _assert_rows_bit_identical(dataset, reference)
        # Nothing failed — the guard healed in place...
        assert dataset.health.failed == 0
        # ...and left a structured record of every intervention.
        kinds = {e.kind for e in dataset.health.guard_events}
        assert kinds == {kind}
        assert all(e.workload == TARGET for e in dataset.health.guard_events)
        assert dataset.health.degraded
        assert "guard intervention(s)" in dataset.health.summary()

    def test_clean_guarded_campaign_matches_and_stays_clean(self, reference):
        dataset = _gemstone().dataset
        _assert_rows_bit_identical(dataset, reference)
        assert dataset.health.guard_events == []
        assert not dataset.health.degraded

    def test_report_renders_guard_interventions(self, reference):
        gs = _gemstone(faults=FaultPlan.corrupt_column(TARGET))
        text = render_collection_health(gs.dataset.health)
        assert "guard interventions" in text
        assert "[decode-corrupt]" in text
        assert TARGET in text

    def test_health_spans_validation_and_power(self):
        # "whetstone" is only simulated by the power campaign, so its
        # fault fires in that phase; the validation fault fires earlier.
        gs = _gemstone(
            faults=FaultPlan.corrupt_column(TARGET)
            | FaultPlan.corrupt_column("whetstone"),
            power_workloads=_profiles() + (workload_by_name("whetstone"),),
        )
        validation_events = len(gs.dataset.health.guard_events)
        assert validation_events > 0
        assert all(
            e.workload == TARGET for e in gs.health.guard_events
        )
        gs.power_dataset
        # The shared record accumulates both campaigns without
        # double-counting either: the validation events appear once, the
        # power-only workload's events join them.
        new = gs.health.guard_events[validation_events:]
        assert new
        assert {e.workload for e in new} == {"whetstone"}
        assert [
            e.workload for e in gs.health.guard_events[:validation_events]
        ].count(TARGET) == validation_events


class TestKillAndResume:
    def test_resume_through_guard_fallback_is_byte_identical(self, tmp_path):
        # Each lineage keeps an on-disk sim cache so the resumed process
        # memo-hits the phases the original already simulated, exactly as
        # the uninterrupted process memo-hits them in memory.
        faults = FaultPlan.poison_memo(TARGET)
        reference = _gemstone(
            faults=faults,
            checkpoint_dir=str(tmp_path / "ref-ckpt"),
            cache_dir=str(tmp_path / "ref-cache"),
        ).report()
        assert "[divergence]" in reference

        directory = str(tmp_path / "ckpt")
        cache_dir = str(tmp_path / "cache")
        victim = _gemstone(
            faults=faults, checkpoint_dir=directory, cache_dir=cache_dir
        )
        victim.dataset  # guard fallback fires in this phase
        assert victim.health.guard_events
        del victim  # SIGKILL equivalent: checkpoints are all that survive

        resumed = _gemstone(
            faults=faults,
            checkpoint_dir=directory,
            cache_dir=cache_dir,
            resume=True,
        )
        assert resumed.report() == reference
        # The dataset phase restored (events came back from the
        # checkpoint), the later phases recomputed their own.
        assert resumed.runstate.metrics.counter("core.runstate.restored").value >= 1
        assert resumed.health.guard_events


class TestPoolScenarios:
    @pytest.fixture(scope="class")
    def machine(self):
        return hardware_a15()

    @pytest.fixture(scope="class")
    def jobs(self, machine):
        return [
            SimJob(workload_by_name(name), TRACE_INSTRUCTIONS, machine)
            for name in WORKLOADS
        ]

    @pytest.fixture(scope="class")
    def golden(self, jobs):
        return [simulate(j.compile(), j.machine, "scalar") for j in jobs]

    def _assert_same(self, results, golden):
        for result, ref in zip(results, golden):
            assert result.counts == ref.counts
            assert result.core_cycles == ref.core_cycles
            assert result.components == ref.components

    def test_worker_oom_isolated_bit_identical(self, jobs, golden):
        executor = SimExecutor(
            jobs=2,
            retry=NO_BACKOFF,
            faults=FaultPlan.worker_oom(TARGET),
            guard=GuardPlan(level="sentinel"),
        )
        results = executor.run_many(jobs)
        self._assert_same(results, golden)
        assert executor.telemetry.jobs_isolated >= 1
        assert executor.guard.metrics.counter("sim.guard.oom_events").value == 1
        kinds = [e.kind for e in executor.guard.events]
        assert kinds == ["worker-oom"]
        assert executor.guard.events[0].action == "isolate"

    def test_poison_job_circuit_broken_into_serial_lane(self, jobs, golden):
        executor = SimExecutor(
            jobs=2,
            retry=NO_BACKOFF,
            faults=FaultPlan.crash_workload(TARGET, attempts=10),
            guard=GuardPlan(level="sentinel"),
        )
        # Two batches each lose a worker to the poison job (the batches
        # themselves fail: the crash outlives the retry budget).
        for _ in range(2):
            results = executor.run_many(jobs, raise_on_error=False)
            assert any(r is None for r in results)
        crashes = executor.telemetry.worker_crashes
        assert executor.is_poisoned(jobs[0].key)
        assert executor.guard.metrics.counter("sim.guard.poison_jobs").value == 0

        # The third batch circuit-breaks it: the poison job runs (and
        # keeps failing) in the parent's serial quarantine lane, no
        # further workers die, and the healthy jobs are untouched.
        results = executor.run_many(jobs, raise_on_error=False)
        assert executor.telemetry.worker_crashes == crashes
        assert executor.guard.metrics.counter("sim.guard.poison_jobs").value == 1
        poison = [e for e in executor.guard.events if e.kind == "poison-job"]
        assert len(poison) == 1
        assert poison[0].workload == TARGET
        assert poison[0].action == "circuit-break"
        healthy = [
            (result, ref)
            for result, ref, job in zip(results, golden, jobs)
            if job.profile.name != TARGET
        ]
        assert healthy
        self._assert_same(
            [r for r, _ in healthy], [ref for _, ref in healthy]
        )

    def test_no_retry_budget_isolates_bystanders_of_a_broken_pool(
        self, machine
    ):
        """At ``max_attempts=1`` a broken pool still reruns its bystanders.

        A job whose pool attempt ended only because another job killed
        the worker gets its serial isolation rerun whatever the retry
        budget, so only the job at fault fails and only it is charged
        the kill that eventually poisons it.
        """
        jobs = [
            SimJob(workload_by_name(name), TRACE_INSTRUCTIONS, machine)
            for name in (
                "mi-sha", "mi-qsort", "dhrystone",
                "mi-crc32", "mi-dijkstra", "mi-fft",
            )
        ]
        golden = {
            j.profile.name: simulate(j.compile(), machine, "scalar")
            for j in jobs
        }
        executor = SimExecutor(
            jobs=2,
            retry=RetryPolicy(max_attempts=1, base_seconds=0.0),
            faults=FaultPlan.crash_workload(TARGET, attempts=10),
            guard=GuardPlan(level="sentinel"),
        )
        for batch in range(1, 4):
            results = executor.run_many(jobs, raise_on_error=False)
            assert executor.telemetry.jobs_failed == batch
            assert [f.trace_name for f in executor.last_failures] == [TARGET]
            for job, result in zip(jobs, results):
                if job.profile.name == TARGET:
                    assert result is None
                else:
                    self._assert_same([result], [golden[job.profile.name]])
        poison = [e for e in executor.guard.events if e.kind == "poison-job"]
        assert [e.workload for e in poison] == [TARGET]
