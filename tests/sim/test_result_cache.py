"""Tests for on-disk simulation-result caching."""

import dataclasses
import hashlib
import json
import os
from dataclasses import replace

import pytest

from repro.core.pipeline import GemStoneConfig
from repro.sim.campaign import campaign_jobs
from repro.sim.cpu import simulate
from repro.sim.executor import SimExecutor
from repro.sim.gem5 import Gem5Simulation
from repro.sim.machine import CacheGeometry, MachineConfig, gem5_ex5_big, hardware_a15
from repro.sim.platform import HardwarePlatform
from repro.sim.result_cache import (
    CACHE_SCHEMA_VERSION,
    SimJob,
    SimResultCache,
    machine_fingerprint,
)
from repro.uarch.tlb import TlbHierarchyConfig
from repro.workloads import trace as trace_mod
from repro.workloads.profile import WorkloadProfile
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import recipe_digest, slice_trace, workload_seed

#: The catalog mi-sha profile edited under its own name: same name, seed
#: and realised trace length, different behaviour.
MI_SHA = workload_by_name("mi-sha")
EDITED = {
    "ilp": replace(MI_SHA, ilp=1.0),
    "data_kb": replace(MI_SHA, data_kb=MI_SHA.data_kb * 8),
}


@pytest.fixture
def job():
    return SimJob(MI_SHA, 6_000, hardware_a15())


@pytest.fixture
def trace(job):
    return job.compile()


@pytest.fixture
def cache(tmp_path):
    return SimResultCache(str(tmp_path / "simcache"))


class TestKeys:
    def test_fingerprint_stable(self):
        assert machine_fingerprint(hardware_a15()) == machine_fingerprint(
            hardware_a15()
        )

    def test_fingerprint_sensitive_to_any_field(self):
        base = hardware_a15()
        tweaked = replace(base, dram_latency_ns=base.dram_latency_ns + 1.0)
        assert machine_fingerprint(base) != machine_fingerprint(tweaked)

    def test_key_distinguishes_machines(self, job):
        assert job.key != replace(job, machine=gem5_ex5_big()).key

    @pytest.mark.parametrize(
        "change",
        [
            {"profile": workload_by_name("mi-fft")},
            {"profile": EDITED["ilp"]},
            {"profile": EDITED["data_kb"]},
            {"n_instrs": 7_000},
        ],
        ids=["workload", "edited-ilp", "edited-data_kb", "n_instrs"],
    )
    def test_key_distinguishes_traces(self, job, change):
        assert job.key != replace(job, **change).key

    def test_recipe_uses_default_seed(self, job):
        seed = workload_seed("mi-sha")
        assert job.recipe == recipe_digest(MI_SHA, 6_000, seed)
        assert job.recipe != recipe_digest(MI_SHA, 6_000, seed=7)

    def test_key_distinguishes_trace_compiler_versions(self, job, monkeypatch):
        before = job.key
        monkeypatch.setattr(
            trace_mod, "TRACE_COMPILER_VERSION",
            trace_mod.TRACE_COMPILER_VERSION + 1,
        )
        assert replace(job).key != before

    def test_equal_recipes_equal_keys_without_compiling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a key must never compile a trace")

        monkeypatch.setattr(trace_mod, "_TraceBuilder", refuse)
        a = SimJob(MI_SHA, 6_000, hardware_a15())
        b = SimJob(replace(MI_SHA), 6_000, hardware_a15())
        assert a.key == b.key

    def test_edited_profile_misses_and_matches_uncached(self, cache):
        """An edited profile under a catalog name never reads the catalog
        profile's entry; its result is the one a fresh simulation gives."""
        machine = hardware_a15()
        catalog = SimJob(MI_SHA, 60_000, machine)
        edited = SimJob(EDITED["ilp"], 60_000, machine)
        cache.put(catalog, simulate(catalog.compile(), machine))
        assert cache.get(edited) is None
        ex = SimExecutor(cache_dir=cache.directory)
        assert ex.run(edited).core_cycles == pytest.approx(80_876.8)
        assert ex.run(edited).counts == simulate(
            edited.compile(), machine
        ).counts

    @pytest.mark.parametrize(
        "cls", [WorkloadProfile, MachineConfig, CacheGeometry, TlbHierarchyConfig]
    )
    def test_identity_memos_see_every_field(self, cls):
        """Fingerprints and recipe digests are memoised by value, so two
        configurations that compare equal must agree on every field."""
        assert all(
            f.compare and f.hash is not False for f in dataclasses.fields(cls)
        )

    def test_spec_round_trip_keeps_key(self, job):
        spec = json.loads(json.dumps(dataclasses.asdict(job)))
        assert SimJob.from_spec(spec) == job
        assert SimJob.from_spec(spec).key == job.key

    def test_window_is_part_of_the_key(self, job):
        first = replace(job, window=(0, 40))
        second = replace(job, window=(40, 80))
        assert len({job.key, first.key, second.key}) == 3
        # Windows share their recipe: one compiled trace serves them all.
        assert first.recipe == second.recipe == job.recipe

    def test_window_key_names_the_sliced_trace(self, job, trace):
        windowed = replace(job, window=(10, 50))
        sliced = slice_trace(trace, 10, 50)
        assert windowed.compile().digest == sliced.digest
        raw = f"{sliced.digest}|{machine_fingerprint(job.machine)}"
        assert windowed.key == hashlib.sha1(raw.encode()).hexdigest()

    def test_windowed_spec_round_trip_keeps_key(self, job):
        windowed = replace(job, window=(3, 30))
        spec = json.loads(json.dumps(dataclasses.asdict(windowed)))
        assert SimJob.from_spec(spec) == windowed
        assert SimJob.from_spec(spec).key == windowed.key

    def test_spec_without_a_window_is_unwindowed(self, job):
        spec = json.loads(json.dumps(dataclasses.asdict(job)))
        del spec["window"]
        assert SimJob.from_spec(spec) == job

    def test_paper_campaign_identities_pinned(self):
        """Every job key and recipe of the paper configuration is frozen:
        result caches, campaign boards and the report SHA all name results
        by them, so a change here orphans every stored result."""
        jobs = campaign_jobs(GemStoneConfig())
        assert len(jobs) == 110
        keys = hashlib.sha256("\n".join(j.key for j in jobs).encode())
        recipes = hashlib.sha256("\n".join(j.recipe for j in jobs).encode())
        assert keys.hexdigest() == (
            "b5aa9792fb678f8d84d49a906123cd7c8152681013cbda046689011597e8408f"
        )
        assert recipes.hexdigest() == (
            "c5d7a01dd27912abc15360402bc8b142e69f4a0290f0421c0df24a37da10a316"
        )


class TestStoreAndLoad:
    def test_miss_then_hit(self, cache, job, trace):
        machine = hardware_a15()
        assert cache.get(job) is None
        result = simulate(trace, machine)
        cache.put(job, result)
        cached = cache.get(job)
        assert cached is not None
        assert cached.counts == result.counts
        assert cached.core_cycles == pytest.approx(result.core_cycles)
        assert cached.dram_stall_weight == pytest.approx(result.dram_stall_weight)

    def test_cached_timing_identical(self, cache, job, trace):
        machine = hardware_a15()
        result = simulate(trace, machine)
        cache.put(job, result)
        cached = cache.get(job)
        assert cached.time_seconds(1e9) == pytest.approx(result.time_seconds(1e9))
        assert cached.sync_factor == result.sync_factor

    def test_modified_config_misses(self, cache, job, trace):
        machine = hardware_a15()
        cache.put(job, simulate(trace, machine))
        tweaked = replace(machine, mispredict_penalty=99.0)
        assert cache.get(replace(job, machine=tweaked)) is None

    def test_corrupt_entry_treated_as_miss(self, cache, job, trace):
        machine = hardware_a15()
        cache.put(job, simulate(trace, machine))
        import os
        path = cache._path(job.key)
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.get(job) is None
        assert not os.path.exists(path)

    def test_len_and_clear(self, cache, job, trace):
        machine = hardware_a15()
        cache.put(job, simulate(trace, machine))
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestIntegrity:
    """Schema/checksum verification and the quarantine path."""

    def _entry_path(self, cache, job):
        return cache._path(job.key)

    def _read_entry(self, path):
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            payload = json.loads(handle.read())
        return header, payload

    def _rewrite_payload(self, path, mutate):
        """Rewrite an entry's payload, keeping its header's sha1.

        ``n_bytes`` follows the new body, so only the checksum can tell.
        """
        header, payload = self._read_entry(path)
        mutate(payload)
        body = json.dumps(payload, sort_keys=True).encode()
        header["n_bytes"] = len(body)
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n" + body)

    def test_envelope_format(self, cache, job, trace):
        machine = hardware_a15()
        cache.put(job, simulate(trace, machine))
        header, payload = self._read_entry(self._entry_path(cache, job))
        assert header["schema"] == CACHE_SCHEMA_VERSION
        assert set(header) == {"schema", "sha1", "n_bytes"}
        assert set(payload) == {
            "trace_name", "threads", "counts", "core_cycles",
            "dram_stall_weight", "components",
        }

    def test_bit_rot_quarantined(self, cache, job, trace):
        """A flipped payload value fails the checksum, not just bad JSON."""
        machine = hardware_a15()
        cache.put(job, simulate(trace, machine))
        path = self._entry_path(cache, job)

        def bump(payload):
            payload["core_cycles"] += 1.0  # still perfectly valid JSON

        self._rewrite_payload(path, bump)
        assert cache.get(job) is None
        assert cache.metrics.counter("sim.cache.quarantined").value == 1
        # The corrupt bytes are preserved for post-mortems, out of the key
        # namespace so they can never answer another read; the destination
        # name is suffixed with a content hash of the corrupt bytes.
        stem = os.path.splitext(os.path.basename(path))[0]
        quarantined = [
            name
            for name in os.listdir(cache.quarantine_dir)
            if name.startswith(f"{stem}-") and name.endswith(".json")
        ]
        assert len(quarantined) == 1
        assert not os.path.exists(path)

    def test_repeated_quarantines_never_collide(self, cache, job, trace):
        """Two corruptions of the same key keep two post-mortem artifacts.

        The quarantine name used to be just the key's basename, so a
        second corrupt entry for the same job silently overwrote the
        first; the content-hash suffix keeps both.
        """
        machine = hardware_a15()
        result = simulate(trace, machine)
        path = self._entry_path(cache, job)
        for gen in range(2):
            cache.put(job, result)

            def bump(payload, gen=gen):
                payload["core_cycles"] += 1.0 + gen  # distinct corruption

            self._rewrite_payload(path, bump)
            assert cache.get(job) is None
        assert cache.metrics.counter("sim.cache.quarantined").value == 2
        stem = os.path.splitext(os.path.basename(path))[0]
        quarantined = [
            name
            for name in os.listdir(cache.quarantine_dir)
            if name.startswith(f"{stem}-")
        ]
        assert len(quarantined) == 2

    def test_stale_schema_quarantined(self, cache, job, trace):
        machine = hardware_a15()
        cache.put(job, simulate(trace, machine))
        path = self._entry_path(cache, job)
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            body = handle.read()
        header["schema"] = CACHE_SCHEMA_VERSION - 1
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n" + body)
        assert cache.get(job) is None
        assert cache.metrics.counter("sim.cache.quarantined").value == 1

    def test_rewrite_after_quarantine_recovers(self, cache, job, trace):
        machine = hardware_a15()
        result = simulate(trace, machine)
        cache.put(job, result)
        path = self._entry_path(cache, job)
        with open(path, "w") as handle:
            handle.write("{half-written")
        assert cache.get(job) is None
        cache.put(job, result)
        cached = cache.get(job)
        assert cached is not None
        assert cached.counts == result.counts

    def test_telemetry_counts(self, cache, job, trace):
        machine = hardware_a15()
        assert cache.get(job) is None
        cache.put(job, simulate(trace, machine))
        assert cache.get(job) is not None
        assert cache.metrics.counter("sim.cache.misses").value == 1
        assert cache.metrics.counter("sim.cache.hits").value == 1
        assert cache.metrics.counter("sim.cache.quarantined").value == 0
        assert cache.metrics.counter("sim.cache.put_failures").value == 0


class TestIntegration:
    def test_platform_uses_cache(self, tmp_path):
        cache_dir = str(tmp_path / "platform-cache")
        profile = workload_by_name("mi-sha")
        first = HardwarePlatform("A15", trace_instructions=6_000,
                                 executor=SimExecutor(cache_dir=cache_dir))
        m1 = first.characterize(profile, 1000e6)
        second = HardwarePlatform("A15", trace_instructions=6_000,
                                  executor=SimExecutor(cache_dir=cache_dir))
        m2 = second.characterize(profile, 1000e6)
        assert m1.time_seconds == m2.time_seconds
        assert m1.pmc == m2.pmc
        assert len(SimResultCache(cache_dir)) >= 1
        assert second.executor.telemetry.cache_hits == 1
        assert second.executor.telemetry.jobs_run == 0

    def test_gem5_uses_cache(self, tmp_path):
        cache_dir = str(tmp_path / "gem5-cache")
        profile = workload_by_name("mi-sha")
        first = Gem5Simulation(trace_instructions=6_000,
                               executor=SimExecutor(cache_dir=cache_dir))
        s1 = first.run(profile, 1000e6)
        second = Gem5Simulation(trace_instructions=6_000,
                                executor=SimExecutor(cache_dir=cache_dir))
        s2 = second.run(profile, 1000e6)
        assert s1.stats == s2.stats
        assert second.executor.telemetry.cache_hits == 1

    def test_cached_equals_uncached(self, tmp_path):
        profile = workload_by_name("mi-fft")
        cache_dir = str(tmp_path / "c")
        cached = Gem5Simulation(trace_instructions=6_000,
                                executor=SimExecutor(cache_dir=cache_dir))
        cached.run(profile, 1000e6)               # populate
        rerun = Gem5Simulation(trace_instructions=6_000,
                               executor=SimExecutor(cache_dir=cache_dir))
        plain = Gem5Simulation(trace_instructions=6_000)
        assert rerun.run(profile, 1000e6).stats == plain.run(profile, 1000e6).stats
        assert rerun.executor.telemetry.cache_hits == 1
        assert plain.executor.cache is None


class TestAdvisoryLock:
    def test_put_and_quarantine_run_under_lock(self, cache, job, trace):
        # The locked write path must still round-trip and quarantine
        # exactly as before.
        machine = hardware_a15()
        result = simulate(trace, machine, "scalar")
        cache.put(job, result)
        assert cache.get(job) is not None


class TestGet:
    def test_get_states(self, cache, job, trace):
        machine = hardware_a15()
        assert cache.get(job) is None           # missing
        cache.put(job, simulate(trace, machine, "scalar"))
        assert cache.get(job) is not None       # intact
        with open(cache._path(job.key), "r+") as handle:
            handle.write("garbage")
        assert cache.get(job) is None           # corrupt -> quarantined
        assert cache.get(job) is None           # and stays gone
        assert cache.metrics.counter("sim.cache.quarantined").value == 1


class TestSharedDirectory:
    def test_caches_over_one_directory_share_entries(self, cache, job, trace):
        """Processes sharing a directory (campaign shards) each open their
        own cache over it and read each other's entries."""
        result = simulate(trace, job.machine, "scalar")
        cache.put(job, result)
        other = SimResultCache(cache.directory)
        assert other.get(job).counts == result.counts
        assert len(other) == len(cache) == 1
