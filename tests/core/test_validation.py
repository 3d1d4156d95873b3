"""Tests for experiment collation and execution-time error analysis."""

import numpy as np
import pytest

from repro.core.validation import collect_validation_dataset
from repro.sim.gem5 import Gem5Simulation
from repro.sim.machine import gem5_ex5_little
from repro.workloads.suites import workload_by_name

from tests.conftest import SMALL_FREQS, SMALL_WORKLOADS


class TestDatasetShape:
    def test_run_count(self, small_dataset):
        assert len(small_dataset.runs) == len(SMALL_WORKLOADS) * len(SMALL_FREQS)

    def test_workloads_in_order(self, small_dataset):
        assert small_dataset.workloads == SMALL_WORKLOADS

    def test_lookup(self, small_dataset):
        run = small_dataset.run("mi-qsort", SMALL_FREQS[0])
        assert run.workload == "mi-qsort"
        assert run.freq_hz == SMALL_FREQS[0]

    def test_lookup_missing(self, small_dataset):
        with pytest.raises(KeyError):
            small_dataset.run("mi-qsort", 123.0)

    def test_runs_at_frequency(self, small_dataset):
        runs = small_dataset.runs_at(SMALL_FREQS[1])
        assert [r.workload for r in runs] == list(SMALL_WORKLOADS)

    def test_core_mismatch_rejected(self, platform_a15):
        little = Gem5Simulation(gem5_ex5_little(), trace_instructions=8_000)
        with pytest.raises(ValueError, match="core"):
            collect_validation_dataset(
                platform_a15, little, [workload_by_name("mi-sha")], SMALL_FREQS
            )

    def test_empty_workloads_rejected(self, platform_a15, gem5_sim_a15):
        with pytest.raises(ValueError, match="no workloads"):
            collect_validation_dataset(platform_a15, gem5_sim_a15, [], SMALL_FREQS)


class TestErrorStatistics:
    def test_sign_convention(self, small_dataset):
        run = small_dataset.run("par-basicmath-rad2deg", SMALL_FREQS[1])
        # The buggy model overestimates this workload's time => negative.
        assert run.time_percentage_error < -100

    def test_mpe_le_mape_in_magnitude(self, small_dataset):
        for freq in SMALL_FREQS:
            assert abs(small_dataset.time_mpe(freq)) <= small_dataset.time_mape(freq)

    def test_whole_sweep_aggregation(self, small_dataset):
        per_freq = [small_dataset.time_mape(f) for f in SMALL_FREQS]
        overall = small_dataset.time_mape()
        assert min(per_freq) <= overall <= max(per_freq)

    def test_errors_at_ordering(self, small_dataset):
        errors = small_dataset.errors_at(SMALL_FREQS[0])
        assert len(errors) == len(SMALL_WORKLOADS)
        index = list(SMALL_WORKLOADS).index("par-basicmath-rad2deg")
        run = small_dataset.run("par-basicmath-rad2deg", SMALL_FREQS[0])
        assert errors[index] == pytest.approx(run.time_percentage_error)

    def test_mpe_more_positive_at_higher_frequency(self, small_dataset):
        """The paper: 'the MPE ... becomes gradually more positive with
        frequency' (the model's too-low DRAM latency matters more)."""
        assert small_dataset.time_mpe(SMALL_FREQS[1]) > small_dataset.time_mpe(
            SMALL_FREQS[0]
        )

    def test_suite_stats(self, small_dataset):
        mape, mpe = small_dataset.suite_time_stats(["parsec"])
        assert mape >= abs(mpe)
        with pytest.raises(ValueError):
            small_dataset.suite_time_stats(["spec"])


class TestMatrices:
    def test_pmc_rate_matrix_shape(self, small_dataset):
        matrix, events = small_dataset.pmc_rate_matrix(SMALL_FREQS[0])
        assert matrix.shape == (len(SMALL_WORKLOADS), len(events))
        assert 0x08 in events

    def test_pmc_rates_are_totals_over_time(self, small_dataset):
        matrix, events = small_dataset.pmc_rate_matrix(SMALL_FREQS[0], [0x08])
        run = small_dataset.runs_at(SMALL_FREQS[0])[0]
        assert matrix[0, 0] == pytest.approx(run.hw.pmc[0x08] / run.hw_time)

    def test_total_matrix(self, small_dataset):
        totals, events = small_dataset.pmc_total_matrix(SMALL_FREQS[0], [0x08, 0x11])
        assert totals.shape == (len(SMALL_WORKLOADS), 2)
        assert (totals > 0).all()

    def test_gem5_rate_matrix(self, small_dataset):
        matrix, stats = small_dataset.gem5_rate_matrix(SMALL_FREQS[0])
        assert matrix.shape[0] == len(SMALL_WORKLOADS)
        assert "commit.committedInsts" in stats
        assert np.isfinite(matrix).all()
