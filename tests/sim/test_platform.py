"""Tests for the simulated hardware platform (PMU, sensors, thermals)."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.events.armv7_pmu import events_for_core
from repro.sim.executor import SimJobError
from repro.sim.faults import FaultPlan
from repro.sim.machine import gem5_ex5_big
from repro.sim.platform import (
    MAX_PMU_COUNTERS,
    SENSOR_HZ,
    HardwarePlatform,
    POWER_WINDOW_SECONDS,
)
from repro.workloads.suites import workload_by_name


@pytest.fixture(scope="module")
def measurement(platform_a15):
    return platform_a15.characterize(workload_by_name("mi-qsort"), 1000e6)


def _field_bytes(measurement) -> dict[str, bytes]:
    """Each field of a measurement as bytes: floats, dicts and arrays
    compare bit for bit, NaN included."""
    return {
        f.name: pickle.dumps(getattr(measurement, f.name))
        for f in dataclasses.fields(measurement)
    }


def _scalar_multiplexed_pmc(self, sim, freq_hz, time_seconds, repeat, rng):
    """Reference: the PMU capture with one ``rng.normal`` call per draw."""
    ideal = self._ideal_pmc(sim, freq_hz, time_seconds, repeat)
    numbers = sorted(ideal)
    pmc = {}
    for group_start in range(0, len(numbers), MAX_PMU_COUNTERS):
        group = numbers[group_start:group_start + MAX_PMU_COUNTERS]
        group_jitter = 1.0 + rng.normal(0.0, 0.004)
        for event in group:
            event_noise = 1.0 + rng.normal(0.0, 0.002)
            pmc[event] = ideal[event] * group_jitter * event_noise
    pmc[0x11] = ideal[0x11] * (1.0 + rng.normal(0.0, 0.001))  # cycle counter
    return pmc


class TestConstruction:
    def test_wrong_machine_core_rejected(self):
        with pytest.raises(ValueError):
            HardwarePlatform("A7", machine=gem5_ex5_big())

    def test_default_executor_is_serial_uncached_and_unguarded(self):
        platform = HardwarePlatform("A15", trace_instructions=2_000)
        assert platform.executor.cache is None
        assert not platform.executor.guard.plan.active

    def test_default_machines(self, platform_a15, platform_a7):
        assert platform_a15.machine.name == "hw-a15"
        assert platform_a7.machine.name == "hw-a7"


class TestCharacterize(object):
    def test_deterministic(self, platform_a15):
        profile = workload_by_name("mi-sha")
        a = platform_a15.characterize(profile, 1000e6)
        b = HardwarePlatform(
            "A15", trace_instructions=platform_a15.trace_instructions
        ).characterize(profile, 1000e6)
        assert a is not b
        assert _field_bytes(a) == _field_bytes(b)

    def test_covers_all_a15_events(self, measurement):
        expected = {e.number for e in events_for_core("A15")}
        assert set(measurement.pmc) == expected

    def test_a7_covers_only_a7_events(self, platform_a7):
        m = platform_a7.characterize(workload_by_name("mi-sha"), 1000e6)
        expected = {e.number for e in events_for_core("A7")}
        assert set(m.pmc) == expected

    def test_time_plausible(self, measurement):
        # natural_seconds is ~4 s at nominal CPI 1; actual CPI shifts it.
        assert 0.5 < measurement.time_seconds < 120.0

    def test_instructions_scale_with_repeat(self, platform_a15, measurement):
        profile = workload_by_name("mi-qsort")
        repeat = platform_a15.repeat_count(profile, platform_a15.trace_instructions)
        per_trace = platform_a15._sim(profile).counts["instructions"]
        assert measurement.pmc[0x08] == pytest.approx(
            per_trace * repeat * profile.threads, rel=0.02
        )

    def test_multiplexing_jitter_differs_between_groups(self, measurement):
        """Events from different counter groups carry different run jitter;
        derived identities hold only approximately, as on real hardware."""
        l1d = measurement.pmc[0x04]
        split_sum = measurement.pmc[0x40] + measurement.pmc[0x41]
        assert l1d == pytest.approx(split_sum, rel=0.03)
        assert l1d != split_sum  # but not exactly (multiplexed runs)

    def test_rate_helper(self, measurement):
        assert measurement.rate(0x08) == pytest.approx(
            measurement.pmc[0x08] / measurement.time_seconds
        )

    def test_energy_helper(self, measurement):
        assert measurement.energy_j() == pytest.approx(
            measurement.power_w * measurement.time_seconds
        )

    def test_cycles_close_to_time_times_frequency(self, measurement):
        expected = measurement.time_seconds * measurement.effective_freq_hz
        assert measurement.pmc[0x11] == pytest.approx(expected, rel=0.05)

    def test_multithreaded_counts_aggregate_cores(self, platform_a15):
        one = platform_a15.characterize(workload_by_name("parsec-canneal-1"), 1000e6)
        four = platform_a15.characterize(workload_by_name("parsec-canneal-4"), 1000e6)
        assert four.pmc[0x08] > 3.0 * one.pmc[0x08]


class TestPower:
    def test_power_positive_and_plausible(self, measurement):
        assert 0.1 < measurement.power_w < 8.0

    def test_sample_count_covers_window(self, measurement):
        assert len(measurement.power_samples) >= int(
            POWER_WINDOW_SECONDS * SENSOR_HZ
        )

    def test_mean_matches_samples(self, measurement):
        assert measurement.power_w == pytest.approx(
            float(np.mean(measurement.power_samples))
        )

    def test_power_grows_with_frequency(self, platform_a15):
        profile = workload_by_name("mi-sha")
        low = platform_a15.characterize(profile, 600e6)
        high = platform_a15.characterize(profile, 1800e6)
        assert high.power_w > 1.8 * low.power_w

    def test_four_threads_draw_more_power(self, platform_a15):
        one = platform_a15.characterize(workload_by_name("parsec-canneal-1"), 1000e6)
        four = platform_a15.characterize(workload_by_name("parsec-canneal-4"), 1000e6)
        assert four.power_w > 2.0 * one.power_w

    def test_with_power_false_skips_sensors(self, platform_a15):
        m = platform_a15.characterize(
            workload_by_name("mi-sha"), 1000e6, with_power=False
        )
        assert np.isnan(m.power_w)
        assert len(m.power_samples) == 0

    def test_temperature_above_ambient(self, measurement):
        assert measurement.temperature_c > 28.0


class TestThrottling:
    def test_a15_throttles_at_2ghz_on_hot_workload(self, platform_a15):
        m = platform_a15.characterize(workload_by_name("parsec-canneal-4"), 2000e6)
        assert m.throttled
        assert m.effective_freq_hz == pytest.approx(1.8e9)

    def test_no_throttling_at_1800(self, platform_a15):
        m = platform_a15.characterize(workload_by_name("parsec-canneal-4"), 1800e6)
        assert not m.throttled

    def test_a7_never_throttles(self, platform_a7):
        m = platform_a7.characterize(workload_by_name("mi-sha"), 1400e6)
        assert not m.throttled


class TestMeasureEvents:
    def test_limited_counters_enforced(self, platform_a15):
        profile = workload_by_name("mi-sha")
        with pytest.raises(ValueError, match="counters"):
            platform_a15.measure_events(
                profile, 1000e6, [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x08]
            )

    def test_requested_events_returned(self, platform_a15):
        profile = workload_by_name("mi-sha")
        result = platform_a15.measure_events(profile, 1000e6, [0x08, 0x11])
        assert set(result) == {0x08, 0x11}

    def test_unknown_event_raises(self, platform_a7):
        with pytest.raises(KeyError):
            platform_a7.measure_events(workload_by_name("mi-sha"), 1000e6, [0x43])

    def test_invalid_opp_rejected(self, platform_a15):
        with pytest.raises(KeyError):
            platform_a15.characterize(workload_by_name("mi-sha"), 777e6)


class TestFaultPlan:
    def test_job_faults_reach_the_default_executor(self):
        # A fault plan means the same thing with or without an explicit
        # executor: a crash that outlasts the retry budget fails the job.
        platform = HardwarePlatform(
            "A15",
            trace_instructions=2_000,
            faults=FaultPlan.crash_workload("mi-sha", attempts=5),
        )
        with pytest.raises(SimJobError, match="mi-sha"):
            platform.characterize(workload_by_name("mi-sha"), 1000e6)
        assert platform.executor.telemetry.jobs_failed == 1

    def test_power_faults_leave_the_simulation_alone(self):
        profile = workload_by_name("mi-sha")
        clean = HardwarePlatform("A15", trace_instructions=2_000)
        faulty = HardwarePlatform(
            "A15",
            trace_instructions=2_000,
            faults=FaultPlan.nan_power(fraction=0.5),
        )
        a = clean.characterize(profile, 1000e6)
        b = faulty.characterize(profile, 1000e6)
        assert a.time_seconds == b.time_seconds
        assert a.pmc == b.pmc
        assert b.power_samples_lost > 0
        assert faulty.executor.telemetry.job_retries == 0


class TestMemo:
    def test_repeated_point_returns_the_memoised_measurement(self):
        platform = HardwarePlatform("A15", trace_instructions=2_000)
        profile = workload_by_name("mi-sha")
        first = platform.characterize(profile, 1000e6)
        assert platform.characterize(profile, 1000e6) is first
        assert platform.characterize(profile, 600e6) is not first
        timing_only = platform.characterize(profile, 1000e6, with_power=False)
        assert timing_only is not first
        assert np.isnan(timing_only.power_w)

    def test_failed_characterisation_is_retried(self, monkeypatch):
        platform = HardwarePlatform("A15", trace_instructions=2_000)
        profile = workload_by_name("mi-sha")
        real_sim = platform._sim
        calls = []

        def flaky_sim(p):
            calls.append(p)
            if len(calls) == 1:
                raise OSError("board unreachable")
            return real_sim(p)

        monkeypatch.setattr(platform, "_sim", flaky_sim)
        with pytest.raises(OSError):
            platform.characterize(profile, 1000e6)
        measurement = platform.characterize(profile, 1000e6)
        assert platform.characterize(profile, 1000e6) is measurement
        assert len(calls) == 2


class TestNoiseDrawOracle:
    """The PMU capture draws its noise in one vector; it must equal the
    scalar loop of one ``rng.normal`` per draw byte for byte, including
    every draw made after it from the same stream (the power window)."""

    @pytest.mark.parametrize(
        "faults",
        [None, FaultPlan.drop_power(fraction=0.3), FaultPlan.nan_power(fraction=0.3)],
        ids=["clean", "drop-power", "nan-power"],
    )
    @pytest.mark.parametrize("core", ["A7", "A15"])
    def test_vector_draw_equals_scalar_draws(self, core, faults, monkeypatch):
        # The A7's 29 events leave a partial last counter group.
        if core == "A7":
            assert len(events_for_core("A7")) % MAX_PMU_COUNTERS != 0
        platform = HardwarePlatform(core, trace_instructions=2_000, faults=faults)
        profile = workload_by_name("parsec-canneal-4")
        throttled = False
        for freq in platform.opps.frequencies():
            for with_power in (True, False):
                vector = platform._characterize(profile, freq, with_power)
                with monkeypatch.context() as patch:
                    patch.setattr(
                        HardwarePlatform, "_multiplexed_pmc", _scalar_multiplexed_pmc
                    )
                    scalar = platform._characterize(profile, freq, with_power)
                assert _field_bytes(vector) == _field_bytes(scalar), (freq, with_power)
                if faults is not None and with_power:
                    assert vector.power_samples_lost > 0
                throttled |= vector.throttled
        # The A15's 2 GHz point is throttled to 1.8 GHz; it is covered too.
        assert throttled == (core == "A15")
