"""Tests for the simulation executor.

They assert *correctness*: bit-identical results, dedup accounting, cache
integration, recipe-major ordering and ordinal pinning.  Multi-process
runs are the sharded campaign's and are tested in ``test_campaign.py``
and ``test_chaos_campaign.py``.
"""

from __future__ import annotations

import dataclasses
import weakref

import pytest

import repro.sim.cpu as cpu_mod
import repro.sim.executor as executor_mod
from repro.core.validation import collect_validation_dataset
from repro.obs.metrics import MetricsRegistry
from repro.sim.cpu import simulate
from repro.sim.executor import (
    RetryPolicy,
    SimExecutor,
    SimTelemetry,
    prime_engines,
)
from repro.sim.faults import FaultPlan
from repro.sim.gem5 import Gem5Simulation
from repro.sim.guard import GuardPlan
from repro.sim.machine import gem5_ex5_big, hardware_a15
from repro.sim.platform import HardwarePlatform
from repro.sim.result_cache import SimJob, SimResultCache
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import slice_trace

N_INSTRS = 6_000


@pytest.fixture(scope="module")
def jobs():
    return [
        SimJob(workload_by_name(name), N_INSTRS, hardware_a15())
        for name in ("mi-sha", "mi-qsort", "dhrystone")
    ]


def _direct(job):
    return simulate(job.compile(), job.machine)


def _assert_same(a, b):
    assert a.counts == b.counts
    assert a.core_cycles == b.core_cycles
    assert a.dram_stall_weight == b.dram_stall_weight
    assert a.components == b.components


class TestRunMany:
    def test_serial_matches_direct_simulate(self, jobs):
        results = SimExecutor().run_many(jobs)
        for job, result in zip(jobs, results):
            _assert_same(result, _direct(job))

    def test_results_align_with_input_order(self, jobs):
        results = SimExecutor().run_many(reversed(jobs))
        for job, result in zip(reversed(jobs), results):
            assert result.trace_name == job.profile.name

    def test_duplicate_jobs_simulated_once(self, jobs):
        ex = SimExecutor()
        results = ex.run_many([jobs[0]] * 3)
        assert ex.telemetry.jobs_submitted == 3
        assert ex.telemetry.jobs_deduplicated == 2
        assert ex.telemetry.jobs_run == 1
        assert results[0] is results[1] is results[2]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            SimExecutor(engine="vector")

    @pytest.mark.parametrize("option", ["jobs", "timeout_seconds"])
    def test_pool_options_rejected(self, option):
        """Processes are the campaign's: the executor takes no pool size
        or per-job deadline."""
        with pytest.raises(TypeError):
            SimExecutor(**{option: 2})

    def test_defaults_are_uncached_and_columnar(self):
        executor = SimExecutor()
        assert executor.cache is None
        assert executor.engine == "columnar"


class TestCacheIntegration:
    def test_second_executor_hits_disk_cache(self, jobs, tmp_path):
        cache_dir = str(tmp_path / "simcache")
        first = SimExecutor(cache_dir=cache_dir)
        cold = first.run_many(jobs)
        assert first.telemetry.cache_hits == 0
        second = SimExecutor(cache_dir=cache_dir)
        warm = second.run_many(jobs)
        assert second.telemetry.cache_hits == len(jobs)
        assert second.telemetry.jobs_run == 0
        for c, w in zip(cold, warm):
            _assert_same(c, w)

    def test_simulated_jobs_populate_cache(self, jobs, tmp_path):
        cache_dir = str(tmp_path / "simcache")
        ex = SimExecutor(cache_dir=cache_dir)
        results = ex.run_many(jobs)
        assert len(ex.cache) == len(jobs)
        for job, result in zip(jobs, results):
            _assert_same(result, _direct(job))
            _assert_same(ex.cache.get(job), result)


class TestTelemetry:
    def test_wall_seconds_sums_stages(self):
        t = SimTelemetry(probe_seconds=1.0, simulate_seconds=2.0)
        assert t.wall_seconds == 3.0

    def test_throughput(self):
        t = SimTelemetry(jobs_run=4, simulate_seconds=2.0)
        assert t.throughput() == 2.0
        assert SimTelemetry().throughput() == 0.0

    def test_reads_and_writes_go_to_the_registry(self):
        reg = MetricsRegistry()
        t = SimTelemetry(reg)
        assert t.cache_hits == 0
        t.cache_hits += 2
        assert reg.value("sim.executor.cache_hits") == 2
        reg.counter("sim.executor.cache_hits").inc()
        assert t.cache_hits == 3

    def test_keyword_construction_sets_initial_values(self):
        t = SimTelemetry(jobs_run=4, jobs_failed=1)
        assert t.jobs_run == 4 and t.jobs_failed == 1

    def test_unknown_keyword_raises(self):
        with pytest.raises(TypeError):
            SimTelemetry(bogus=1)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            SimTelemetry().bogus

    def test_private_registry_when_none_given(self):
        a, b = SimTelemetry(), SimTelemetry()
        a.jobs_run += 1
        assert b.jobs_run == 0

    def test_as_dict_and_repr(self):
        t = SimTelemetry(jobs_run=1)
        assert t.as_dict()["jobs_run"] == 1
        assert t.as_dict()["jobs_failed"] == 0
        assert set(t.as_dict()) == set(SimTelemetry._fields)
        assert "jobs_run=1" in repr(t)


class TestPrimeEngines:
    def test_primes_both_engines_in_one_batch(self, small_profiles):
        profiles = small_profiles[:3]
        platform = HardwarePlatform("A15", trace_instructions=N_INSTRS)
        gem5 = Gem5Simulation(gem5_ex5_big(), trace_instructions=N_INSTRS)
        ex = SimExecutor()
        submitted = prime_engines(ex, (platform, gem5), profiles)
        assert submitted == 2 * len(profiles)
        assert ex.telemetry.batches == 1
        # A second priming finds everything memoised.
        assert prime_engines(ex, (platform, gem5), profiles) == 0


def _front_ends(executor):
    """A15 board and big-core gem5 model sharing one executor."""
    return (
        HardwarePlatform("A15", trace_instructions=N_INSTRS, executor=executor),
        Gem5Simulation(
            gem5_ex5_big(), trace_instructions=N_INSTRS, executor=executor
        ),
    )


class TestCollectionCache:
    def test_collection_fills_and_reuses_the_shared_cache(
        self, small_profiles, tmp_path
    ):
        profiles = small_profiles[:2]
        cache_dir = str(tmp_path / "simcache")

        def collect():
            executor = SimExecutor(cache_dir=cache_dir)
            platform, gem5 = _front_ends(executor)
            dataset = collect_validation_dataset(
                platform, gem5, profiles, (1000e6,), with_power=False
            )
            jobs = {
                engine.job_for(p).key: engine.job_for(p)
                for engine in (platform, gem5)
                for p in profiles
            }
            return dataset, executor, jobs

        cold, cold_ex, keys = collect()
        # Both arms batch through the one shared executor.
        assert cold_ex.telemetry.batches == 1
        cache = SimResultCache(cache_dir)
        assert len(keys) == 2 * len(profiles)
        assert len(cache) == len(keys)
        assert all(cache.get(job) is not None for job in keys.values())
        assert cold_ex.telemetry.jobs_run == len(keys)

        warm, warm_ex, _ = collect()
        assert warm_ex.telemetry.jobs_run == 0
        assert warm_ex.telemetry.cache_hits == len(keys)
        for c, w in zip(cold.runs, warm.runs):
            assert c.hw.pmc == w.hw.pmc
            assert c.gem5.stats == w.gem5.stats


@pytest.fixture(scope="module")
def machine_major():
    """Three recipes on two machines, submitted machine-major (the order
    ``prime_engines`` submits): every recipe's jobs are split apart."""
    return [
        SimJob(workload_by_name(name), N_INSTRS, machine)
        for machine in (hardware_a15(), gem5_ex5_big())
        for name in ("mi-sha", "mi-qsort", "dhrystone")
    ]


def _where(job):
    return (job.profile.name, job.machine.name)


class TestRecipeMajorSerialLane:
    def test_each_trace_is_released_after_its_last_job(
        self, machine_major, monkeypatch
    ):
        """When a recipe's jobs start, no earlier recipe's replay tables
        (decode, seeds, replay memos) are still alive."""
        original = executor_mod.guarded_simulate
        tables: dict[str, weakref.ref] = {}
        started: list[str] = []

        def tracking(trace, *args, **kwargs):
            if trace.digest not in started:
                alive = [
                    digest for digest in started
                    if tables[digest]() is not None
                ]
                assert alive == [], f"{trace.name}: earlier tables alive"
                started.append(trace.digest)
            outcome = original(trace, *args, **kwargs)
            tables[trace.digest] = weakref.ref(trace.replay_tables())
            return outcome

        monkeypatch.setattr(executor_mod, "guarded_simulate", tracking)
        SimExecutor().run_many(machine_major)
        assert len(started) == 3

    def test_results_follow_submission_order(self, machine_major):
        results = SimExecutor().run_many(machine_major)
        for job, result in zip(machine_major, results):
            assert result.trace_name == job.profile.name
            _assert_same(result, _direct(job))

    def test_ordinal_pinned_fault_hits_the_submitted_job(self, machine_major):
        ex = SimExecutor(
            retry=RetryPolicy(max_attempts=1, base_seconds=0.0),
            faults=FaultPlan.crash_job(1),
        )
        results = ex.run_many(machine_major, raise_on_error=False)
        assert [
            (f.trace_name, f.machine_name) for f in ex.last_failures
        ] == [_where(machine_major[1])]
        assert [i for i, r in enumerate(results) if r is None] == [1]

    def test_sentinels_sample_the_submitted_ordinals(
        self, machine_major, monkeypatch
    ):
        plan = GuardPlan(level="sentinel", sentinel_interval=3, seed=2)
        original = cpu_mod.simulate
        scalar: list[tuple[str, str]] = []

        def recording(trace, machine, engine="columnar", **kwargs):
            if engine == "scalar":
                scalar.append((trace.name, machine.name))
            return original(trace, machine, engine, **kwargs)

        monkeypatch.setattr(cpu_mod, "simulate", recording)
        ex = SimExecutor(guard=plan)
        ex.run_many(machine_major)
        sampled = [
            _where(job) for i, job in enumerate(machine_major)
            if plan.samples(i)
        ]
        assert len(sampled) == 2
        assert sorted(scalar) == sorted(sampled)
        assert ex.guard.metrics.counter("sim.guard.sentinel_replays").value == 2

    def test_guard_events_are_recorded_in_submission_order(
        self, machine_major
    ):
        faults = FaultPlan.nan_pass("mi-sha") | FaultPlan.nan_pass("mi-qsort")
        expected = [
            ("nan-result",) + _where(job) for job in machine_major
            if job.profile.name in ("mi-sha", "mi-qsort")
        ]
        ex = SimExecutor(faults=faults, guard=GuardPlan(level="sentinel"))
        ex.run_many(machine_major)
        assert [
            (e.kind, e.workload, e.machine) for e in ex.guard.events
        ] == expected


def _count_compiles(monkeypatch) -> list[str]:
    """Count ``compile_trace`` calls in every loaded module binding it."""
    import sys

    from repro.workloads import trace as trace_mod

    original = trace_mod.compile_trace
    calls: list[str] = []

    def counting(profile, *args, **kwargs):
        calls.append(profile.name)
        return original(profile, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "compile_trace", None) is original
        ):
            monkeypatch.setattr(module, "compile_trace", counting)
    return calls


class TestCompileOnMiss:
    def test_traces_compile_only_on_a_cache_miss(
        self, small_profiles, tmp_path, monkeypatch
    ):
        """A cold run compiles each workload once although it runs on the
        hardware and on gem5; a warm run answers every job from the cache
        without compiling anything."""
        from repro.core.pipeline import GemStone, GemStoneConfig

        profiles = small_profiles[:3]
        calls = _count_compiles(monkeypatch)

        def run():
            gs = GemStone(
                GemStoneConfig(
                    core="A15",
                    workloads=profiles,
                    power_workloads=profiles,
                    frequencies=(1000e6,),
                    trace_instructions=N_INSTRS,
                    cache_dir=str(tmp_path / "simcache"),
                )
            )
            return gs.dataset, gs.power_dataset, gs.executor.telemetry

        cold, cold_power, cold_telemetry = run()
        assert sorted(calls) == sorted(p.name for p in profiles)
        assert cold_telemetry.jobs_run == 2 * len(profiles)
        del calls[:]
        warm, warm_power, warm_telemetry = run()
        assert calls == []
        assert warm_telemetry.jobs_run == 0
        assert warm_telemetry.cache_hits == 2 * len(profiles)
        for c, w in zip(cold.runs, warm.runs):
            assert c.hw.pmc == w.hw.pmc
            assert c.gem5.stats == w.gem5.stats
        assert [o.power_w for o in cold_power] == [
            o.power_w for o in warm_power
        ]


class TestWindowedJobs:
    WINDOWS = ((0, 30), (30, 70), (70, 120))

    def _jobs(self):
        job = SimJob(workload_by_name("mi-sha"), N_INSTRS, hardware_a15())
        return job, [dataclasses.replace(job, window=w) for w in self.WINDOWS]

    def _assert_slices(self, job, results):
        full = job.compile()
        for (start, end), result in zip(self.WINDOWS, results):
            _assert_same(result, simulate(slice_trace(full, start, end), job.machine))

    def test_serial_lane_compiles_the_recipe_once(self, monkeypatch):
        job, windowed = self._jobs()
        calls = _count_compiles(monkeypatch)
        results = SimExecutor().run_many(windowed)
        assert calls == ["mi-sha"]
        self._assert_slices(job, results)

    def test_cached_windows_replay_nothing(self, tmp_path):
        job, windowed = self._jobs()
        cold = SimExecutor(cache_dir=str(tmp_path)).run_many(windowed)
        warm_executor = SimExecutor(cache_dir=str(tmp_path))
        warm = warm_executor.run_many(windowed)
        assert warm_executor.telemetry.jobs_run == 0
        for a, b in zip(cold, warm):
            _assert_same(a, b)


@pytest.mark.bench_smoke
def test_bench_smoke_serial_collection(small_profiles, tmp_path):
    """Tiny end-to-end collection on a disk cache: a cold run fills the
    cache, a warm run answers every job from it, both datasets agree."""
    from repro.core.pipeline import GemStone, GemStoneConfig

    def collect():
        gs = GemStone(
            GemStoneConfig(
                core="A15",
                workloads=small_profiles[:2],
                frequencies=(1000e6,),
                trace_instructions=N_INSTRS,
                cache_dir=str(tmp_path / "simcache"),
            )
        )
        return gs.dataset, gs.executor.telemetry

    cold, cold_telemetry = collect()
    assert len(cold.runs) == 2
    assert cold_telemetry.jobs_run == cold_telemetry.jobs_submitted == 4
    warm, warm_telemetry = collect()
    assert warm_telemetry.jobs_run == 0
    assert warm_telemetry.cache_hits == 4
    for c, w in zip(cold.runs, warm.runs):
        assert c.hw.pmc == w.hw.pmc
        assert c.gem5.stats == w.gem5.stats
