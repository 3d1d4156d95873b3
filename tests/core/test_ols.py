"""Tests for the from-scratch OLS implementation."""

import numpy as np
import pytest

from repro.core.stats.ols import fit_ols, variance_inflation_factors


@pytest.fixture
def linear_data():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 10, size=(60, 2))
    y = 3.0 + 2.0 * x[:, 0] - 0.5 * x[:, 1] + rng.normal(0, 0.1, 60)
    return x, y


class TestCoefficients:
    def test_recovers_known_model(self, linear_data):
        x, y = linear_data
        model = fit_ols(x, y, names=("a", "b"))
        assert model.intercept == pytest.approx(3.0, abs=0.1)
        assert model.coefficient("a") == pytest.approx(2.0, abs=0.05)
        assert model.coefficient("b") == pytest.approx(-0.5, abs=0.05)

    def test_r2_high_for_clean_data(self, linear_data):
        x, y = linear_data
        assert fit_ols(x, y).r2 > 0.99

    def test_predict_matches_fit(self, linear_data):
        x, y = linear_data
        model = fit_ols(x, y)
        residual = y - model.predict(x)
        assert float(np.abs(residual).mean()) < 0.2

    def test_predict_single_row(self, linear_data):
        x, y = linear_data
        model = fit_ols(x, y)
        single = model.predict(x[0])
        assert single.shape == (1,)

    def test_unknown_coefficient_name(self, linear_data):
        x, y = linear_data
        with pytest.raises(KeyError):
            fit_ols(x, y, names=("a", "b")).coefficient("c")

    def test_extreme_scale_regressors(self):
        """The power-model regime: rates ~1e9 against an O(1) intercept."""
        rng = np.random.default_rng(3)
        x = rng.uniform(0.5e9, 2e9, size=(50, 2))
        y = 0.4 + 3e-10 * x[:, 0] + 1e-9 * x[:, 1] + rng.normal(0, 1e-3, 50)
        model = fit_ols(x, y)
        assert model.intercept == pytest.approx(0.4, abs=0.02)
        assert model.coefficients[0] == pytest.approx(3e-10, rel=0.05)


class TestInference:
    def test_significant_term_low_p(self, linear_data):
        x, y = linear_data
        model = fit_ols(x, y)
        assert model.p_values[1] < 1e-6

    def test_noise_term_high_p(self):
        rng = np.random.default_rng(5)
        x = np.column_stack([rng.uniform(0, 10, 80), rng.normal(size=80)])
        y = 1.0 + 2.0 * x[:, 0] + rng.normal(0, 1.0, 80)
        model = fit_ols(x, y, names=("signal", "noise"))
        assert model.p_values[2] > 0.05
        assert model.max_p_value() > 0.05

    def test_t_equals_beta_over_se(self, linear_data):
        x, y = linear_data
        model = fit_ols(x, y)
        expected = model.coefficients[0] / model.std_errors[1]
        assert model.t_values[1] == pytest.approx(expected)

    def test_summary_renders(self, linear_data):
        x, y = linear_data
        text = fit_ols(x, y, names=("a", "b")).summary()
        assert "R^2" in text and "(intercept)" in text and "a" in text


class TestWeighted:
    def test_weights_shift_fit_toward_heavy_points(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 20.0])  # outlier at the end
        plain = fit_ols(x, y)
        down_weighted = fit_ols(
            x, y, weights=np.array([1.0] * 5 + [1e-6])
        )
        assert abs(down_weighted.coefficients[0] - 1.0) < abs(
            plain.coefficients[0] - 1.0
        )

    def test_relative_weighting_improves_small_value_fit(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(1, 100, size=(100, 1))
        y = 0.1 + 0.05 * x[:, 0]
        y *= 1 + rng.normal(0, 0.05, 100)  # multiplicative noise
        weighted = fit_ols(x, y, weights=1.0 / y)
        plain = fit_ols(x, y)
        def small_ape(model):
            mask = x[:, 0] < 10
            predicted = model.predict(x)
            return np.abs((y[mask] - predicted[mask]) / y[mask]).mean()
        assert small_ape(weighted) <= small_ape(plain) * 1.05

    def test_nonpositive_weights_rejected(self):
        x = np.ones((5, 1))
        with pytest.raises(ValueError):
            fit_ols(x, np.ones(5), weights=np.zeros(5))


class TestValidation:
    def test_too_few_observations_degrades(self):
        # Constant columns + n <= p + 1 used to raise; now the fit shrinks
        # to an intercept-only model and records what it dropped.
        result = fit_ols(np.ones((3, 3)), np.ones(3))
        assert result.names == ()
        assert result.intercept == pytest.approx(1.0)
        assert any("constant" in note for note in result.degraded)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_ols(np.ones((10, 2)), np.ones(9))

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError, match="names"):
            fit_ols(np.ones((10, 2)), np.ones(10), names=("only-one",))


class TestVif:
    def test_independent_regressors_vif_near_one(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(200, 3))
        assert variance_inflation_factors(x).max() < 1.2

    def test_collinear_regressors_high_vif(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=200)
        x = np.column_stack([base, base + rng.normal(0, 0.01, 200)])
        assert variance_inflation_factors(x).min() > 100

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            variance_inflation_factors(np.ones((10, 1)))


class TestDegradedDesigns:
    """Field-data hardening: singular/NaN designs degrade, never raise."""

    def test_all_nan_column_is_dropped_with_a_note(self, linear_data):
        x, y = linear_data
        x = np.column_stack([x, np.full(len(y), np.nan)])
        model = fit_ols(x, y, names=("a", "b", "bad"))
        assert model.names == ("a", "b")
        assert model.coefficient("a") == pytest.approx(2.0, abs=0.05)
        assert any("'bad'" in note and "finite" in note for note in model.degraded)

    def test_duplicate_column_keeps_the_earlier_one(self, linear_data):
        x, y = linear_data
        x = np.column_stack([x, x[:, 0]])
        model = fit_ols(x, y, names=("a", "b", "a_again"))
        assert model.names == ("a", "b")
        assert any(
            "collinear" in note and "'a_again'" in note
            for note in model.degraded
        )

    def test_rows_with_nan_observations_are_dropped(self, linear_data):
        x, y = linear_data
        y = y.copy()
        y[3] = np.nan
        model = fit_ols(x, y, names=("a", "b"))
        assert model.names == ("a", "b")
        assert model.coefficient("a") == pytest.approx(2.0, abs=0.05)
        assert any("observation" in note for note in model.degraded)

    def test_clean_designs_carry_no_notes_and_identical_numbers(
        self, linear_data
    ):
        x, y = linear_data
        model = fit_ols(x, y, names=("a", "b"))
        assert model.degraded == ()
        # Bit-identical to a from-scratch fit: hardening must not perturb
        # the historical numeric path for well-posed designs.
        again = fit_ols(x.copy(), y.copy(), names=("a", "b"))
        assert model.coefficients.tolist() == again.coefficients.tolist()
