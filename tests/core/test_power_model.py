"""Tests for the Powmon-style power modelling (Section V)."""

import numpy as np
import pytest

from repro.core.power_model import (
    EventTerm,
    PowerModelApplication,
    PowerModelBuilder,
    collect_power_dataset,
    restraint_pool_gem5,
    validate_power_model,
)
from repro.events.matching import UNAVAILABLE_IN_GEM5

from tests.conftest import SMALL_FREQS


@pytest.fixture(scope="module")
def observations(platform_a15, small_profiles):
    return collect_power_dataset(platform_a15, small_profiles, SMALL_FREQS)


@pytest.fixture(scope="module")
def model(observations):
    builder = PowerModelBuilder(
        "A15", excluded_events=restraint_pool_gem5("A15"), max_terms=5
    )
    return builder.fit(observations)


class TestEventTerm:
    def test_single_event(self):
        term = EventTerm(0x11)
        assert term.name == "0x11"
        assert term.rate({0x11: 5.0}) == 5.0
        assert term.events() == (0x11,)

    def test_difference(self):
        term = EventTerm(0x1B, 0x73)
        assert term.name == "0x1B-0x73"
        assert term.rate({0x1B: 10.0, 0x73: 4.0}) == 6.0
        assert term.events() == (0x1B, 0x73)

    def test_missing_event_raises(self):
        with pytest.raises(KeyError):
            EventTerm(0x11).rate({})

    def test_pretty_name(self):
        assert "INST_SPEC" in EventTerm(0x1B, 0x73).pretty_name


class TestDataset:
    def test_observation_count(self, observations, small_profiles):
        assert len(observations) == len(small_profiles) * len(SMALL_FREQS)

    def test_rates_positive_power_plausible(self, observations):
        for obs in observations:
            assert obs.power_w > 0.05
            assert obs.rates[0x08] > 0

    def test_voltage_from_opp_table(self, observations):
        volts = {round(o.freq_hz): o.voltage for o in observations}
        assert volts[600_000_000] < volts[1_000_000_000]


class TestSelection:
    def test_cycle_counter_selected_first(self, model):
        """Pooled across OPPs, 0x11 dominates — the paper's Fig. 7 shows it
        as the biggest non-intercept component."""
        assert model.terms[0].positive == 0x11

    def test_restrained_selection_avoids_gem5_incompatible(self, model):
        pool = restraint_pool_gem5("A15")
        for term in model.terms:
            for event in term.events():
                assert event not in pool or event == 0x73  # difference arm

    def test_unrestricted_may_use_more_events(self, observations):
        builder = PowerModelBuilder("A15", max_terms=5)
        unrestricted = builder.fit(observations)
        assert unrestricted.quality.adjusted_r2 > 0.98

    def test_selection_ignores_observation_order(self, observations):
        builder = PowerModelBuilder(
            "A15", excluded_events=restraint_pool_gem5("A15"), max_terms=5
        )
        terms = builder.select_events(observations)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(observations))
            shuffled = [observations[i] for i in order]
            assert builder.select_events(shuffled) == terms

    #: Row order only reorders the floating-point sums inside each OLS
    #: fit, so coefficients may move by rounding, never by more than this.
    PERMUTATION_REL_TOL = 1e-12

    def test_per_opp_fit_ignores_observation_order(self, observations):
        builder = PowerModelBuilder(
            "A15", excluded_events=restraint_pool_gem5("A15"), max_terms=5
        )
        reference = builder.fit(observations)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(observations))
            shuffled = builder.fit([observations[i] for i in order])
            assert shuffled.terms == reference.terms
            assert shuffled.per_opp.keys() == reference.per_opp.keys()
            for key, fit in reference.per_opp.items():
                other = shuffled.per_opp[key]
                assert other.names == fit.names
                np.testing.assert_allclose(
                    np.r_[other.intercept, other.coefficients],
                    np.r_[fit.intercept, fit.coefficients],
                    rtol=self.PERMUTATION_REL_TOL, atol=0,
                )


class TestModelQuality:
    def test_accuracy_in_paper_range(self, model):
        quality = model.quality
        assert quality.mape < 8.0
        assert quality.adjusted_r2 > 0.98
        assert quality.ser < 0.2

    def test_vif_acceptable(self, model):
        assert model.quality.mean_vif < 15.0

    def test_validate_matches_stored_quality(self, model, observations):
        fresh = validate_power_model(model, observations)
        assert fresh.mape == pytest.approx(model.quality.mape)

    def test_max_ape_recorded(self, model):
        assert model.quality.max_ape >= model.quality.mape
        assert "@" in model.quality.worst_observation


class TestPrediction:
    def test_predict_at_fitted_opp(self, model, observations):
        obs = observations[0]
        predicted = model.predict(obs.rates, obs.freq_hz)
        assert predicted == pytest.approx(obs.power_w, rel=0.25)

    def test_unfitted_opp_raises(self, model, observations):
        with pytest.raises(KeyError, match="MHz"):
            model.predict(observations[0].rates, 123e6)

    def test_components_sum_to_prediction(self, model, observations):
        obs = observations[0]
        estimate = model.predict_components(obs.rates, obs.freq_hz)
        assert sum(estimate.components.values()) == pytest.approx(
            estimate.power_w
        )
        assert "intercept" in estimate.components

    def test_required_events_deduplicated(self, model):
        events = model.required_events()
        assert len(events) == len(set(events))


class TestApplication:
    @pytest.fixture(scope="class")
    def application(self, model, platform_a15):
        return PowerModelApplication(model, platform_a15.opps)

    def test_apply_to_hw(self, application, platform_a15, small_profiles):
        measurement = platform_a15.characterize(small_profiles[2], SMALL_FREQS[1])
        estimate = application.apply_to_hw(measurement)
        assert estimate.power_w == pytest.approx(measurement.power_w, rel=0.3)

    def test_apply_to_gem5(self, application, gem5_sim_a15, small_profiles):
        stats = gem5_sim_a15.run(small_profiles[2], SMALL_FREQS[1])
        estimate = application.apply_to_gem5(stats)
        assert 0.05 < estimate.power_w < 10.0

    def test_gem5_rates_cover_model_events(self, application, gem5_sim_a15,
                                           small_profiles):
        stats = gem5_sim_a15.run(small_profiles[0], SMALL_FREQS[0])
        rates = application.gem5_rates(stats)
        assert set(rates) == set(application.model.required_events())

    def test_unmatchable_model_rejected(self, observations, platform_a15):
        builder = PowerModelBuilder("A15", max_terms=2)
        bad = builder.fit(observations, terms=(EventTerm(0x11), EventTerm(0x6A)))
        assert 0x6A in UNAVAILABLE_IN_GEM5
        with pytest.raises(ValueError, match="without gem5 matches"):
            PowerModelApplication(bad, platform_a15.opps)


class TestGem5Equations:
    def test_equations_render(self, model):
        text = model.gem5_equations()
        assert "power[" in text
        assert "rate(" in text
        for key in model.per_opp:
            assert f"{key / 1e6:.0f}MHz" in text
