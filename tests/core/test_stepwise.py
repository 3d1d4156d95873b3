"""Tests for the forward-selection stepwise regression."""

import numpy as np
import pytest

from repro.core.stats.ols import fit_ols
from repro.core.stats.stepwise import forward_stepwise


@pytest.fixture
def candidates():
    """Two true drivers, one redundant copy, three noise regressors."""
    rng = np.random.default_rng(13)
    n = 80
    a = rng.uniform(0, 10, n)
    b = rng.uniform(0, 10, n)
    y = 5.0 + 3.0 * a - 2.0 * b + rng.normal(0, 0.2, n)
    pool = {
        "a": a,
        "b": b,
        "a_copy": a + rng.normal(0, 0.01, n),
        "noise1": rng.normal(size=n),
        "noise2": rng.normal(size=n),
        "noise3": rng.normal(size=n),
    }
    return pool, y


class TestSelection:
    def test_finds_true_drivers(self, candidates):
        pool, y = candidates
        result = forward_stepwise(pool, y, max_terms=4)
        assert result.selected[0] in ("a", "a_copy")
        assert "b" in result.selected

    def test_noise_rejected_by_p_rule(self, candidates):
        pool, y = candidates
        result = forward_stepwise(pool, y, max_terms=6, p_value_limit=0.05)
        for name in ("noise1", "noise2", "noise3"):
            assert name not in result.selected

    def test_r2_improves_monotonically(self, candidates):
        pool, y = candidates
        result = forward_stepwise(pool, y, max_terms=4)
        r2s = [step.r2 for step in result.steps]
        assert r2s == sorted(r2s)

    def test_max_terms_respected(self, candidates):
        pool, y = candidates
        result = forward_stepwise(pool, y, max_terms=1, p_value_limit=None)
        assert len(result.selected) == 1

    def test_vif_limit_blocks_redundant_copy(self, candidates):
        pool, y = candidates
        result = forward_stepwise(
            pool, y, max_terms=5, p_value_limit=None, vif_limit=5.0
        )
        # a and a_copy are nearly identical; the restraint admits only one.
        assert not ({"a", "a_copy"} <= set(result.selected))

    def test_adjusted_r2_mode(self, candidates):
        pool, y = candidates
        result = forward_stepwise(
            pool, y, max_terms=6, p_value_limit=None, use_adjusted_r2=True
        )
        assert {"b"} <= set(result.selected)
        assert result.model.adjusted_r2 > 0.99

    def test_mean_vif_reported(self, candidates):
        pool, y = candidates
        result = forward_stepwise(pool, y, max_terms=3, p_value_limit=None)
        if len(result.selected) >= 2:
            assert result.mean_vif >= 1.0

    def test_single_term_vif_is_nan(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 30)
        result = forward_stepwise({"x": x}, 2 * x, max_terms=1)
        assert np.isnan(result.mean_vif)


class TestValidation:
    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            forward_stepwise({}, np.ones(10))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            forward_stepwise({"x": np.ones(5)}, np.ones(6))

    def test_constant_candidates_skipped(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 30)
        result = forward_stepwise(
            {"const": np.ones(30), "x": x}, 3 * x, max_terms=2
        )
        assert result.selected == ("x",)

    def test_all_constant_degrades_to_intercept_only(self):
        result = forward_stepwise({"c": np.ones(10)}, np.ones(10))
        assert result.selected == ()
        assert result.model.intercept == pytest.approx(1.0)
        assert any("intercept-only" in note for note in result.degraded)

    def test_audit_trail_matches_selection(self, candidates):
        pool, y = candidates
        result = forward_stepwise(pool, y, max_terms=3)
        assert tuple(s.added for s in result.steps) == result.selected


class TestDegradedCandidatePools:
    """Field-data hardening: NaN/constant candidates degrade, never raise."""

    def test_nan_candidate_is_skipped_with_a_note(self, candidates):
        pool, y = candidates
        pool = dict(pool)
        pool["broken"] = np.full(y.size, np.nan)
        result = forward_stepwise(pool, y, max_terms=4)
        assert "broken" not in result.selected
        assert "b" in result.selected
        assert any("'broken'" in note for note in result.degraded)

    def test_all_degenerate_pool_degrades_to_intercept_only(self):
        y = np.array([2.0, 4.0, 6.0])
        pool = {"broken": np.full(3, np.nan), "flat": np.ones(3)}
        result = forward_stepwise(pool, y, max_terms=4)
        assert result.selected == ()
        assert result.model.intercept == pytest.approx(4.0)
        assert result.degraded != ()

    def test_literally_empty_pool_is_a_programmer_error(self):
        with pytest.raises(ValueError, match="no candidate"):
            forward_stepwise({}, np.array([1.0, 2.0]))

    def test_clean_pools_carry_no_notes(self, candidates):
        pool, y = candidates
        assert forward_stepwise(pool, y, max_terms=4).degraded == ()


def _orthonormal_centred(n: int, k: int, seed: int) -> list[np.ndarray]:
    """``k`` orthonormal, zero-mean vectors: R^2 values follow exactly."""
    raw = np.random.default_rng(seed).normal(size=(n, k))
    q, _ = np.linalg.qr(raw - raw.mean(axis=0))
    return list(q.T)


class TestScanSemantics:
    """The scan is not an argmax: a candidate replaces the running best only
    by beating it by more than ``min_improvement``, in dict order."""

    def test_near_tie_goes_to_the_earlier_candidate(self):
        e1, e2, e3, e4 = _orthonormal_centred(40, 4, seed=1)
        y = e1 + e4
        pool = {"first": e1 + 0.30 * e2, "second": e1 + 0.2999 * e3}
        gap = fit_ols(pool["second"], y).r2 - fit_ols(pool["first"], y).r2
        assert 0 < gap < 1e-4  # "second" scores higher, by less than the margin
        result = forward_stepwise(pool, y, max_terms=1, min_improvement=1e-4)
        assert result.selected == ("first",)

    def test_higher_scoring_candidate_failing_the_p_rule_is_passed_over(self):
        e1, e2, e3, e4, e5 = _orthonormal_centred(27, 5, seed=0)
        y = e1 + e2 + e4
        # "bad" scores higher than "good" with "a" selected, but makes the
        # coefficient of "a" insignificant; on its own it stays within
        # min_improvement of "a", which therefore wins step 1.
        pool = {
            "a": e1,
            "bad": e1 + e2 + np.sqrt(1.1) * e3,
            "good": e2 + np.sqrt(1.5) * e5,
        }
        with_bad = fit_ols(np.column_stack([pool["a"], pool["bad"]]), y)
        with_good = fit_ols(np.column_stack([pool["a"], pool["good"]]), y)
        assert with_bad.r2 > with_good.r2
        assert with_bad.max_p_value() > 0.05 >= with_good.max_p_value()
        result = forward_stepwise(pool, y, max_terms=2, min_improvement=0.1)
        assert result.selected == ("a", "good")


class TestScreenBudget:
    def test_noise_candidates_are_screened_not_fitted(self, monkeypatch):
        import repro.core.stats.stepwise as stepwise

        fits = []
        real_fit = stepwise.fit_ols

        def counting_fit(*args, **kwargs):
            fits.append(1)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(stepwise, "fit_ols", counting_fit)
        rng = np.random.default_rng(7)
        n = 60
        signal = rng.uniform(0, 10, n)
        pool = {"signal": signal}
        pool.update({f"noise{i:03d}": rng.normal(size=n) for i in range(200)})
        y = 3.0 * signal + rng.normal(size=n)
        result = forward_stepwise(pool, y)
        assert result.selected[0] == "signal"
        # The unscreened loop refitted every remaining candidate on every
        # step: 1 965 fit_ols calls on this pool (22 with the screen).
        assert len(fits) <= 1965 // 10


def _permuted(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n)


class TestRowPermutationInvariance:
    """Reordering the observations must not change the selection."""

    @pytest.mark.parametrize(
        "policy",
        [
            dict(p_value_limit=0.05),
            dict(p_value_limit=None, use_adjusted_r2=True, vif_limit=5.0),
        ],
    )
    def test_same_selection_and_steps(self, candidates, policy):
        pool, y = candidates
        base = forward_stepwise(pool, y, max_terms=4, **policy)
        for seed in range(5):
            perm = _permuted(seed, y.size)
            moved = forward_stepwise(
                {k: v[perm] for k, v in pool.items()}, y[perm], max_terms=4, **policy
            )
            assert moved.selected == base.selected
            for got, want in zip(moved.steps, base.steps):
                assert got.r2 == pytest.approx(want.r2, rel=1e-9)
                assert got.adjusted_r2 == pytest.approx(want.adjusted_r2, rel=1e-9)
                assert got.max_p_value == pytest.approx(
                    want.max_p_value, rel=1e-9, abs=1e-300
                )
