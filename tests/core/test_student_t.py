"""The two-sided Student-t tail against a 40-digit oracle, and its contract.

The oracle is ``mpmath.betainc(dof/2, 1/2, 0, dof/(dof+t²))`` at 40 digits,
evaluated at the exact double ``t``.  scipy is no oracle here: its
``2*stdtr(1, -1e-8)`` is itself off by about 3e-9.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import student_t
from repro.core.stats.student_t import two_sided_t_tail

#: The relative error allowed against the oracle wherever the tail is at
#: least 1e-300 (below that the double result may underflow).
BOUND = 1e-12


def _oracle_errors(pairs):
    """Relative errors of the tail against mpmath at (t, dof) pairs whose
    tail is at least 1e-300, each dof's points evaluated in one call."""
    mpmath = pytest.importorskip("mpmath")
    errors = []
    with mpmath.workdps(40):
        for dof, ts in pairs:
            ours = two_sided_t_tail(ts, dof)
            d = mpmath.mpf(int(dof))
            for t, value in zip(ts.tolist(), ours.tolist()):
                t = mpmath.mpf(t)
                truth = mpmath.betainc(d / 2, mpmath.mpf(1) / 2, 0, d / (d + t * t),
                                       regularized=True)
                if truth >= mpmath.mpf("1e-300"):
                    errors.append((float(abs(mpmath.mpf(value) - truth) / truth),
                                   dof, float(t)))
    return errors


class TestAgainstTheOracle:
    def test_every_integer_dof_to_1000(self):
        rng = np.random.default_rng(20)
        pairs = [
            (dof, np.concatenate([10.0 ** rng.uniform(-8, 3, 3),
                                  np.abs(rng.standard_cauchy(1))]))
            for dof in range(1, 1001)
        ]
        errors = _oracle_errors(pairs)
        assert len(errors) > 3000
        worst = max(errors)
        assert worst[0] < BOUND, worst

    def test_a_dense_grid_and_the_switch_points(self):
        # Both branches are slowest at their switch point, u·(a+1) = 3.
        dofs = sorted({*range(1, 31), *np.unique(np.round(np.logspace(1.5, 3, 25)))})
        grid = np.logspace(-8, 3, 45)
        pairs = []
        for dof in dofs:
            switch = math.sqrt(student_t._SWITCH / (dof / 2 + 1) * dof)
            near = switch * np.array([0.9, 1 - 1e-12, 1.0, 1 + 1e-12, 1.1])
            pairs.append((dof, np.concatenate([grid, near])))
        worst = max(_oracle_errors(pairs))
        assert worst[0] < BOUND, worst


class TestEdgeCases:
    @pytest.mark.parametrize("dof", [0, -1, -0.5, math.nan, math.inf])
    def test_a_dof_that_is_not_finite_and_positive_gives_nan(self, dof):
        out = two_sided_t_tail(np.array([0.0, 1.0, math.inf]), dof)
        assert np.isnan(out).all()

    @pytest.mark.parametrize("dof", [0.5, 1, 6, 40, 258, 1000])
    def test_zero_infinite_and_nan_t(self, dof):
        out = two_sided_t_tail(np.array([0.0, -0.0, math.inf, -math.inf, math.nan]), dof)
        np.testing.assert_array_equal(out, [1.0, 1.0, 0.0, 0.0, math.nan])

    def test_the_sign_of_t_does_not_matter(self):
        t = np.linspace(-30, 30, 121)
        np.testing.assert_array_equal(two_sided_t_tail(t, 7), two_sided_t_tail(-t, 7))

    def test_shapes_are_kept(self):
        assert two_sided_t_tail(2.0, 5).shape == ()
        assert two_sided_t_tail(np.ones((2, 3)), 5).shape == (2, 3)
        assert two_sided_t_tail([], 5).shape == (0,)

    def test_a_t_whose_square_overflows_keeps_its_tail(self):
        # For dof = 1 the tail is 2/(π|t|) far out, representable to 1e-307.
        t = np.array([1e160, 1e300])
        np.testing.assert_allclose(two_sided_t_tail(t, 1), 2 / (math.pi * t), rtol=1e-12)


class TestElementwise:
    def test_a_value_does_not_depend_on_the_rest_of_the_array(self):
        """Short arrays run the fraction in Python floats and long ones in
        numpy, with either branch's terms; every element is the same bits
        as when it is evaluated alone."""
        rng = np.random.default_rng(4)
        for dof in (1, 6, 37, 258, 999):
            t = np.concatenate([10.0 ** rng.uniform(-3, 2, 40), [0.0, math.inf, math.nan]])
            alone = np.array([two_sided_t_tail(v, dof) for v in t])
            np.testing.assert_array_equal(two_sided_t_tail(t, dof), alone)
            np.testing.assert_array_equal(two_sided_t_tail(t[:5], dof), alone[:5])

    def test_the_screen_value_equals_the_block_maximum(self):
        """The stepwise screen takes each candidate's largest slope p-value
        as the tail at its smallest |t|; that is the maximum of the tail
        over the (terms, candidates) block, and a NaN column stays NaN."""
        t_abs = np.abs(np.random.default_rng(3).normal(0, 3, (4, 25)))
        t_abs[2, 7] = math.nan
        for dof in (5, 31, 256):
            per_candidate = two_sided_t_tail(t_abs.min(axis=0), dof)
            block_max = two_sided_t_tail(t_abs, dof).max(axis=0)
            np.testing.assert_array_equal(per_candidate, block_max)
            assert np.isnan(per_candidate[7])


@settings(max_examples=200, deadline=None)
@given(
    dof=st.one_of(st.integers(1, 2000), st.floats(0.05, 5000.0)),
    t=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40),
)
def test_the_tail_lies_in_the_unit_interval_and_falls_with_abs_t(dof, t):
    """Non-increasing in |t| up to the rounding the oracle bound allows:
    two values within that bound of the truth can be out of order by it."""
    t_abs = np.sort(np.abs(np.array(t)))
    tail = two_sided_t_tail(t_abs, dof)
    assert ((tail >= 0.0) & (tail <= 1.0)).all()
    assert (tail[1:] <= tail[:-1] * (1 + 2 * BOUND)).all()
