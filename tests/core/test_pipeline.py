"""Tests for the GemStone facade."""

import pytest

from repro.core.pipeline import GemStone, GemStoneConfig
from repro.sim.machine import gem5_ex5_big_fixed_bp, gem5_ex5_little

from tests.conftest import SMALL_FREQS, SMALL_WORKLOADS


class TestConfig:
    def test_defaults_resolve(self):
        config = GemStoneConfig()
        assert config.resolve_machine().name == "gem5-ex5-big"
        assert len(config.resolve_workloads()) == 45
        assert len(config.resolve_power_workloads()) == 65
        assert len(config.resolve_frequencies()) == 4

    def test_a7_default_machine(self):
        assert GemStoneConfig(core="A7").resolve_machine().name == "gem5-ex5-little"

    def test_machine_by_name(self):
        config = GemStoneConfig(gem5_machine="gem5-ex5-big-fixed")
        assert config.resolve_machine().predictor == "tournament"

    def test_machine_by_config(self):
        config = GemStoneConfig(gem5_machine=gem5_ex5_big_fixed_bp())
        assert config.resolve_machine().name == "gem5-ex5-big-fixed"

    def test_core_mismatch_rejected(self):
        with pytest.raises(ValueError, match="targets"):
            GemStone(GemStoneConfig(core="A15", gem5_machine=gem5_ex5_little()))

    def test_unknown_core_rejected_at_construction(self):
        # Eager: the ValueError fires from the config itself, before any
        # platform or simulation is built.
        with pytest.raises(ValueError, match="core must be 'A7' or 'A15'"):
            GemStoneConfig(core="A53")
        with pytest.raises(ValueError, match="got 'a15'"):
            GemStoneConfig(core="a15")

    def test_fewer_than_one_attempt_rejected_at_construction(self):
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            GemStoneConfig(max_attempts=0)


class TestLazyProducts:
    def test_dataset_cached(self, small_gemstone):
        assert small_gemstone.dataset is small_gemstone.dataset

    def test_headline_errors_available(self, small_gemstone):
        dataset = small_gemstone.dataset
        assert dataset.time_mpe(1000e6) < 0  # buggy model overestimates time
        assert dataset.time_mape(1000e6) > 20

    def test_workload_clusters(self, small_gemstone):
        clusters = small_gemstone.workload_clusters
        assert clusters.clusters.n_clusters == 6
        assert clusters is small_gemstone.workload_clusters

    def test_correlations(self, small_gemstone):
        assert len(small_gemstone.pmc_correlation.event_names) > 30
        assert len(small_gemstone.gem5_correlation.event_names) > 10

    def test_regressions_cached_per_source(self, small_gemstone):
        assert small_gemstone.regression("hw") is small_gemstone.regression("hw")
        assert small_gemstone.regression("hw") is not small_gemstone.regression("gem5")

    def test_event_comparison(self, small_gemstone):
        assert 0x10 in small_gemstone.event_comparison.ratios

    def test_power_model_cached(self, small_gemstone):
        assert small_gemstone.power_model is small_gemstone.power_model
        assert small_gemstone.power_model.quality.mape < 10

    def test_with_machine_produces_fresh_run(self, small_gemstone):
        fixed = small_gemstone.with_machine("gem5-ex5-big-fixed")
        assert fixed.gem5.machine.name == "gem5-ex5-big-fixed"
        assert fixed.config.workloads == small_gemstone.config.workloads

    def test_bp_fix_swings_mpe(self, small_gemstone):
        """Section VII on the small set: fixing the BP moves the MPE from
        strongly negative toward (or past) zero."""
        buggy_mpe = small_gemstone.dataset.time_mpe(1000e6)
        fixed = small_gemstone.with_machine("gem5-ex5-big-fixed")
        fixed_mpe = fixed.dataset.time_mpe(1000e6)
        assert fixed_mpe > buggy_mpe + 20

    def test_compare_with_little_type_check(self, small_gemstone):
        with pytest.raises(ValueError):
            small_gemstone.compare_with_little(small_gemstone)


class TestReport:
    def test_report_renders_every_section(self, small_gemstone):
        report = small_gemstone.report()
        for fragment in (
            "GemStone report",
            "Execution-time error",
            "MPE per workload",
            "Correlation of HW PMC rates",
            "gem5 statistics vs error",
            "Stepwise error regression",
            "gem5 events / HW PMC equivalents",
            "Branch predictor accuracy",
            "empirical power model",
            "power/energy error",
            "scaling normalised",
        ):
            assert fragment in report, fragment
