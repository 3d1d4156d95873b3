"""Tests for on-disk simulation-result caching."""

import json
import os
from dataclasses import replace

import pytest

from repro.sim.cpu import simulate
from repro.sim.executor import SimExecutor
from repro.sim.gem5 import Gem5Simulation
from repro.sim.machine import gem5_ex5_big, hardware_a15
from repro.sim.platform import HardwarePlatform
from repro.sim.result_cache import (
    CACHE_SCHEMA_VERSION,
    SimResultCache,
    cache_key,
    cache_spec,
    machine_fingerprint,
    open_cache_spec,
)
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import compile_trace


@pytest.fixture
def trace():
    return compile_trace(workload_by_name("mi-sha"), 6_000)


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

    def test_key_distinguishes_machines(self, trace):
        assert cache_key(trace, hardware_a15()) != cache_key(trace, gem5_ex5_big())

    def test_key_distinguishes_traces(self, trace):
        other = compile_trace(workload_by_name("mi-fft"), 6_000)
        assert cache_key(trace, hardware_a15()) != cache_key(other, hardware_a15())


class TestStoreAndLoad:
    def test_miss_then_hit(self, cache, trace):
        machine = hardware_a15()
        assert cache.get(trace, machine) is None
        result = simulate(trace, machine)
        cache.put(trace, machine, result)
        cached = cache.get(trace, machine)
        assert cached is not None
        assert cached.counts == result.counts
        assert cached.core_cycles == pytest.approx(result.core_cycles)
        assert cached.dram_stall_weight == pytest.approx(result.dram_stall_weight)

    def test_cached_timing_identical(self, cache, trace):
        machine = hardware_a15()
        result = simulate(trace, machine)
        cache.put(trace, machine, result)
        cached = cache.get(trace, machine)
        assert cached.time_seconds(1e9) == pytest.approx(result.time_seconds(1e9))
        assert cached.sync_factor == result.sync_factor

    def test_modified_config_misses(self, cache, trace):
        machine = hardware_a15()
        cache.put(trace, machine, simulate(trace, machine))
        tweaked = replace(machine, mispredict_penalty=99.0)
        assert cache.get(trace, tweaked) is None

    def test_corrupt_entry_treated_as_miss(self, cache, trace):
        machine = hardware_a15()
        cache.put(trace, machine, simulate(trace, machine))
        import os
        path = cache._path(cache_key(trace, machine))
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.get(trace, machine) is None
        assert not os.path.exists(path)

    def test_len_and_clear(self, cache, trace):
        machine = hardware_a15()
        cache.put(trace, machine, simulate(trace, machine))
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestIntegrity:
    """Schema/checksum verification and the quarantine path."""

    def _entry_path(self, cache, trace, machine):
        return cache._path(cache_key(trace, machine))

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

    def test_envelope_format(self, cache, trace):
        machine = hardware_a15()
        cache.put(trace, machine, simulate(trace, machine))
        header, payload = self._read_entry(self._entry_path(cache, trace, machine))
        assert header["schema"] == CACHE_SCHEMA_VERSION
        assert set(header) == {"schema", "sha1", "n_bytes"}
        assert set(payload) == {
            "trace_name", "threads", "counts", "core_cycles",
            "dram_stall_weight", "components",
        }

    def test_bit_rot_quarantined(self, cache, trace):
        """A flipped payload value fails the checksum, not just bad JSON."""
        machine = hardware_a15()
        cache.put(trace, machine, simulate(trace, machine))
        path = self._entry_path(cache, trace, machine)

        def bump(payload):
            payload["core_cycles"] += 1.0  # still perfectly valid JSON

        self._rewrite_payload(path, bump)
        assert cache.get(trace, machine) is None
        assert cache.telemetry.quarantined == 1
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

    def test_repeated_quarantines_never_collide(self, cache, trace):
        """Two corruptions of the same key keep two post-mortem artifacts.

        The quarantine name used to be just the key's basename, so a
        second corrupt entry for the same job silently overwrote the
        first; the content-hash suffix keeps both.
        """
        machine = hardware_a15()
        result = simulate(trace, machine)
        path = self._entry_path(cache, trace, machine)
        for gen in range(2):
            cache.put(trace, machine, result)

            def bump(payload, gen=gen):
                payload["core_cycles"] += 1.0 + gen  # distinct corruption

            self._rewrite_payload(path, bump)
            assert cache.get(trace, machine) is None
        assert cache.telemetry.quarantined == 2
        stem = os.path.splitext(os.path.basename(path))[0]
        quarantined = [
            name
            for name in os.listdir(cache.quarantine_dir)
            if name.startswith(f"{stem}-")
        ]
        assert len(quarantined) == 2

    def test_stale_schema_quarantined(self, cache, trace):
        machine = hardware_a15()
        cache.put(trace, machine, simulate(trace, machine))
        path = self._entry_path(cache, trace, machine)
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            body = handle.read()
        header["schema"] = CACHE_SCHEMA_VERSION - 1
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n" + body)
        assert cache.get(trace, machine) is None
        assert cache.telemetry.quarantined == 1

    def test_rewrite_after_quarantine_recovers(self, cache, trace):
        machine = hardware_a15()
        result = simulate(trace, machine)
        cache.put(trace, machine, result)
        path = self._entry_path(cache, trace, machine)
        with open(path, "w") as handle:
            handle.write("{half-written")
        assert cache.get(trace, machine) is None
        cache.put(trace, machine, result)
        cached = cache.get(trace, machine)
        assert cached is not None
        assert cached.counts == result.counts

    def test_telemetry_counts(self, cache, trace):
        machine = hardware_a15()
        assert cache.get(trace, machine) is None
        cache.put(trace, machine, simulate(trace, machine))
        assert cache.get(trace, machine) is not None
        assert cache.telemetry.misses == 1
        assert cache.telemetry.hits == 1
        assert cache.telemetry.quarantined == 0
        assert cache.telemetry.put_failures == 0


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
    def test_put_and_quarantine_run_under_lock(self, cache, trace):
        # The locked write path must still round-trip and quarantine
        # exactly as before.
        machine = hardware_a15()
        result = simulate(trace, machine, "scalar")
        cache.put(trace, machine, result)
        key = cache_key(trace, machine)
        assert cache.verify(key)


class TestVerify:
    def test_verify_states(self, cache, trace):
        machine = hardware_a15()
        key = cache_key(trace, machine)
        assert not cache.verify(key)          # missing
        cache.put(trace, machine, simulate(trace, machine, "scalar"))
        assert cache.verify(key)              # intact
        with open(cache._path(key), "r+") as handle:
            handle.write("garbage")
        assert not cache.verify(key)          # corrupt -> quarantined
        assert not cache.verify(key)          # and stays gone


class TestCacheSpec:
    def test_spec_round_trip(self, tmp_path):
        flat = SimResultCache(str(tmp_path / "flat"))
        assert cache_spec(None) is None
        assert open_cache_spec(None) is None
        rebuilt_flat = open_cache_spec(cache_spec(flat))
        assert isinstance(rebuilt_flat, SimResultCache)
        assert rebuilt_flat.directory == flat.directory
