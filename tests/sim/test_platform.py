"""Tests for the simulated hardware platform (PMU, sensors, thermals)."""

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


class TestConstruction:
    def test_wrong_machine_core_rejected(self):
        with pytest.raises(ValueError):
            HardwarePlatform("A7", machine=gem5_ex5_big())

    def test_default_executor_is_serial_uncached_and_unguarded(self):
        platform = HardwarePlatform("A15", trace_instructions=2_000)
        assert platform.executor.jobs == 1
        assert platform.executor.cache is None
        assert not platform.executor.guard.plan.active

    def test_default_machines(self, platform_a15, platform_a7):
        assert platform_a15.machine.name == "hw-a15"
        assert platform_a7.machine.name == "hw-a7"


class TestCharacterize(object):
    def test_deterministic(self, platform_a15):
        profile = workload_by_name("mi-sha")
        a = platform_a15.characterize(profile, 1000e6)
        b = platform_a15.characterize(profile, 1000e6)
        assert a.time_seconds == b.time_seconds
        assert a.pmc == b.pmc
        assert a.power_w == b.power_w

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
