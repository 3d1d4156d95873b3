"""The two-sided Student-t tail: the p-value of a t-statistic, in numpy.

``2·P(T_dof > |t|)`` is the regularised incomplete beta function
``I_x(a, 1/2)`` with ``a = dof/2``, ``x = dof / (dof + t²) = 1/(1+u)`` and
``u = t²/dof``.  It is evaluated as ``front · F / a``, with the front factor
``x^a (1−x)^{1/2} / B(a, 1/2)`` and ``F`` the incomplete beta function's
continued fraction in ``x``.  For small ``|t|`` (``u·(a+1) <= 3``, so
``|t|`` below 1.4 to 2.5 depending on ``dof``) the complement
``1 − I_{1−x}(1/2, a)`` is used instead, whose fraction in ``1 − x``
converges quickly there.  That is past the textbook switch point
``x = (a+1)/(a+5/2)``: it cuts the terms the direct fraction needs by a
third, and the complement's result stays above 0.014, so the subtraction
costs less than two digits.

Accuracy comes from three choices:

* the front factor is formed in logs from ``u`` alone:
  ``log x = −log1p(u)`` and ``log(1−x) = −log1p(1/u)``, so neither ``x``
  nor ``1 − x`` is rounded before its log;
* ``log B(a, 1/2)`` is ``lgamma(a) + lgamma(1/2) − lgamma(a + 1/2)`` only
  while ``a`` is small; for larger ``a`` that difference of two large
  numbers would lose about ``ε·lgamma(a)``, so it is written through
  Stirling's series, whose large parts cancel analytically;
* the fraction is evaluated backwards with a fixed number of terms per
  degrees of freedom and branch: as many as Lentz's method needs at the
  switch point, where both branches converge slowest, found once per
  ``dof``.

Each element's value depends only on that element and ``dof``, not on the
rest of the array.  Against a 40-digit oracle the relative error stays
below 2e-13 for integer ``dof`` up to 1000 wherever the tail is at least
1e-300 (``tests/core/test_student_t.py``; EXPERIMENTS.md P10).  Past that
it grows with ``dof`` (about 5e-13 at 1e4 and 3e-11 at 1e6), far beyond the
observation counts the fits see.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: Stirling's series for ``lgamma(z) − ((z − 1/2) log z − z + log(2π)/2)``:
#: the coefficients of ``z^-1, z^-3, ..., z^-15``.  At ``z >= 10`` the
#: first omitted term is below 2e-18.
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
    -3617 / 122400,
)
#: Below this ``a`` the lgamma difference is accurate to a few ulps of a
#: number no larger than 13.
_STIRLING_FROM = 10.0
#: Lentz's stopping rule (relative change of the last step), and the value
#: that replaces a zero denominator in its recurrences.
_CONVERGED = 1e-15
_TINY = 1e-300
#: The direct branch serves ``u·(a+1) > _SWITCH``, the complement the rest.
_SWITCH = 3.0
#: Cap on ``1/z − 1`` in the fraction's scaled recurrence, so that ``z = 0``
#: (``t`` = 0 or infinite, where the front factor is 0) stays finite.
_MAX_SCALE = 1e300
#: Arrays up to this size evaluate the fraction in Python floats.
_SCALAR_SIZE = 16


def two_sided_t_tail(t, dof: float) -> np.ndarray:
    """``2·P(T_dof > |t|)`` elementwise over ``t``.

    ``t = 0`` gives 1, ``t = ±inf`` gives 0 and ``t = NaN`` gives NaN; a
    ``dof`` that is not a finite positive number gives NaN everywhere.
    """
    t = np.abs(np.asarray(t, dtype=float))
    if not 0.0 < dof < math.inf:
        return np.full(t.shape, np.nan)
    shape = t.shape
    t = t.ravel()
    a = 0.5 * dof
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = t * t / dof
        inv_u = 1.0 / u
        log1p_u = np.log1p(u)
        huge = np.isinf(u)
        if huge.any():  # t² overflowed: log(1 + u) = log u to double precision
            log1p_u[huge] = 2.0 * np.log(t[huge]) - math.log(dof)
        # log x = −log1p(u) and log(1 − x) = −log1p(1/u).
        front = np.exp(-0.5 * np.log1p(inv_u) - a * log1p_u - _log_beta_half(a))
        direct = u * (a + 1.0) > _SWITCH
        # 1/sqrt(z) for the fraction's variable z: x, or 1 − x = 1/(1 + 1/u).
        scale = np.sqrt(1.0 + np.minimum(np.where(direct, u, inv_u), _MAX_SCALE))
    ratio = front * _fraction(_fractions(a), direct, scale)
    return np.where(direct, ratio / a, 1.0 - 2.0 * ratio).reshape(shape)


@functools.lru_cache(maxsize=256)
def _fractions(a: float) -> tuple[np.ndarray, tuple[tuple[float, ...], ...]]:
    """Both branches' fraction coefficients at ``a = dof/2``, deepest first.

    Row 0 is for ``I_x(a, 1/2)`` and row 1 for ``I_{1−x}(1/2, a)``, each as
    long as Lentz's method needs at the switch point, where that branch
    converges slowest, and zero-padded in front to one length: a zero term
    leaves the recurrence at its starting value, so a mixed array runs one
    recurrence and every element still sees exactly its own branch's terms.
    Computed once per ``dof`` (a process fits with a few dozen), as an
    array and as tuples.
    """
    u = _SWITCH / (a + 1.0)
    direct = _terms(a, 0.5, 1.0 / (1.0 + u))[::-1]
    complement = _terms(0.5, a, u / (1.0 + u))[::-1]
    n = max(len(direct), len(complement))
    rows = (
        tuple([0.0] * (n - len(direct)) + direct),
        tuple([0.0] * (n - len(complement)) + complement),
    )
    array = np.array(rows)
    array.flags.writeable = False  # shared by every call with this dof
    return array, rows


def _fraction(
    rows: tuple[np.ndarray, tuple[tuple[float, ...], ...]],
    direct: np.ndarray,
    scale: np.ndarray,
) -> np.ndarray:
    """``1/(1 + c_1 z/(1 + c_2 z/(1 + ...)))`` evaluated from its last term.

    ``scale`` is ``1/sqrt(z)``.  With ``f_k = sqrt(z)·g_k`` the recurrence
    ``f_k = 1 + c_k z / f_{k+1}`` becomes ``g_k = scale + c_k / g_{k+1}``:
    two array operations per term.  A short array runs the same recurrence
    in Python floats, which is cheaper than two numpy calls per term and
    rounds every division and addition alike, so the values are identical.
    """
    array, terms = rows
    if scale.size <= _SCALAR_SIZE:
        out = []
        for s, is_direct in zip(scale.tolist(), direct.tolist()):
            g = s
            for c in terms[0] if is_direct else terms[1]:
                g = s + c / g
            out.append(s / g)
        return np.array(out)
    g = scale.copy()
    for row in np.where(direct, array[0, :, None], array[1, :, None]):
        np.divide(row, g, out=g)
        g += scale
    return scale / g


def _terms(p: float, q: float, z: float) -> list[float]:
    """The coefficients ``c_k`` of the ``I_z(p, q)`` fraction, as many as
    Lentz's method takes to converge at ``z``: ``c_1 = −(p+q)/(p+1)``, then
    per ``m >= 1`` the pair ``m(q−m)/((p+2m−1)(p+2m))`` and
    ``−(p+m)(p+q+m)/((p+2m)(p+2m+1))``."""
    terms = [-(p + q) / (p + 1.0)]
    d = 1.0 / ((1.0 + terms[0] * z) or _TINY)
    c = 1.0
    m = 0
    while True:
        m += 1
        for coefficient in (
            m * (q - m) / ((p + 2 * m - 1) * (p + 2 * m)),
            -(p + m) * (p + q + m) / ((p + 2 * m) * (p + 2 * m + 1)),
        ):
            terms.append(coefficient)
            step = coefficient * z
            d = 1.0 / ((1.0 + step * d) or _TINY)
            c = (1.0 + step / c) or _TINY
        if abs(c * d - 1.0) <= _CONVERGED:
            return terms


def _log_beta_half(a: float) -> float:
    """``log B(a, 1/2)`` to within a few ulps of 1 for every ``a > 0``."""
    if a < _STIRLING_FROM:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    # lgamma(a) − lgamma(a + 1/2) through Stirling's formula: the
    # (z − 1/2) log z − z parts reduce to −log(a)/2 + 1/2 − a·log1p(1/(2a)).
    return (
        0.5 * math.log(math.pi / a)
        + (0.5 - a * math.log1p(0.5 / a))
        + _stirling_rest(a)
        - _stirling_rest(a + 0.5)
    )


def _stirling_rest(z: float) -> float:
    """The tail of Stirling's series for ``lgamma(z)``, ``z >= 10``."""
    w = 1.0 / (z * z)
    total = 0.0
    for coefficient in reversed(_STIRLING):
        total = total * w + coefficient
    return total / z
