"""Ordinary least squares with full inferential statistics, from scratch.

Implements the regression core the paper's methodology relies on: coefficient
estimates, standard errors, t-statistics and p-values (used by the stepwise
selection's 0.05 stopping rule, Section IV-D), plus the Variance Inflation
Factor diagnostics the power models are validated with (Section V quotes a
mean VIF of 6 as "a low level of inter-correlation, as required").

The two-sided p-value ``2·P(T_dof > |t|)`` comes from
:func:`repro.core.stats.student_t.two_sided_t_tail`, a numpy continued
fraction, so fitting imports nothing beyond numpy (EXPERIMENTS.md P10: a
special-function library cost every process about 0.3 s and 26 MB at
start-up).  All linear algebra is plain numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stats.student_t import two_sided_t_tail


@dataclass(frozen=True)
class OlsResult:
    """A fitted linear model ``y ~ intercept + X @ coef``.

    Attributes:
        names: Regressor names (excluding the intercept).  On a degraded
            fit these are the *surviving* regressors only; dropped columns
            are listed in ``degraded``.
        intercept / coefficients: Fitted parameters.
        std_errors: Standard errors, intercept first.
        t_values / p_values: Per-parameter t-statistics and two-sided
            p-values, intercept first.
        r2 / adjusted_r2: Goodness of fit.
        ser: Standard error of regression (residual std. error).
        n_observations: Sample size.
        degraded: Human-readable notes recorded when the fit had to drop
            non-finite, constant or collinear columns (or rows, or shrink
            the model to fit the sample); empty for a clean fit.
    """

    names: tuple[str, ...]
    intercept: float
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray
    r2: float
    adjusted_r2: float
    ser: float
    n_observations: int
    degraded: tuple[str, ...] = ()

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict responses for a design matrix (columns match names)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != len(self.names):
            raise ValueError(
                f"expected {len(self.names)} regressors, got {x.shape[1]}"
            )
        return self.intercept + x @ self.coefficients

    def coefficient(self, name: str) -> float:
        """Coefficient of a named regressor.

        Raises:
            KeyError: If the regressor is not part of the model.
        """
        try:
            index = self.names.index(name)
        except ValueError as exc:
            raise KeyError(f"regressor {name!r} not in model") from exc
        return float(self.coefficients[index])

    def max_p_value(self) -> float:
        """Largest p-value among the slope terms (stepwise stopping rule)."""
        if len(self.names) == 0:
            return 0.0
        return float(self.p_values[1:].max())

    def summary(self) -> str:
        """Multi-line human-readable fit summary."""
        lines = [
            f"OLS fit: n={self.n_observations}, p={len(self.names)}",
            f"R^2={self.r2:.4f}  adj R^2={self.adjusted_r2:.4f}  SER={self.ser:.4g}",
            f"{'term':<38s}{'coef':>12s}{'std err':>12s}{'t':>9s}{'p':>10s}",
        ]
        rows = [("(intercept)", self.intercept)] + [
            (name, float(c)) for name, c in zip(self.names, self.coefficients)
        ]
        for i, (name, coef) in enumerate(rows):
            lines.append(
                f"{name:<38s}{coef:>12.4g}{self.std_errors[i]:>12.3g}"
                f"{self.t_values[i]:>9.2f}{self.p_values[i]:>10.2g}"
            )
        return "\n".join(lines)


def fit_ols(
    x: np.ndarray,
    y: np.ndarray,
    names: tuple[str, ...] | list[str] | None = None,
    weights: np.ndarray | None = None,
) -> OlsResult:
    """Fit ``y = b0 + X b`` by (optionally weighted) least squares.

    Args:
        x: Design matrix of shape ``(n, p)`` (``p`` may be 0 for an
            intercept-only model).
        y: Response vector of length ``n``.
        names: Regressor names; defaults to ``x0..x{p-1}``.
        weights: Optional positive per-observation weights (WLS).  Passing
            ``1/y`` minimises *relative* residuals — how the power models
            reach low MAPE across a wide power range.

    The fit *degrades* rather than crashing on pathological design
    matrices, which fault-injected collection campaigns can legitimately
    produce: all-non-finite columns, rows with NaN/inf values, constant
    columns and collinear duplicates are dropped by deterministic pivoted
    selection (earlier columns win), and the model shrinks until the
    surviving sample supports it.  Every drop is recorded in the result's
    ``degraded`` notes; a clean design takes the exact historical code
    path and yields bit-identical results.

    Raises:
        ValueError: On shape mismatches, empty input, or non-positive
            weights — programmer errors, not data degradation.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    n, p = x.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if n == 0:
        raise ValueError("no observations")
    if names is None:
        names = tuple(f"x{i}" for i in range(p))
    names = tuple(names)
    if len(names) != p:
        raise ValueError(f"{len(names)} names for {p} regressors")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(f"weights have shape {weights.shape}, expected ({n},)")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")

    x, y, weights, names, notes = _prune_design(x, y, weights, names)
    n, p = x.shape
    if n < 2:
        # A single surviving observation cannot support even an
        # intercept-only model's inferential statistics; report its mean
        # with undefined errors rather than crashing the pipeline.
        notes.append(
            "single surviving observation: intercept-only fit with "
            "undefined inferential statistics"
        )
        return OlsResult(
            names=(),
            intercept=float(y[0]),
            coefficients=np.empty(0),
            std_errors=np.full(1, np.nan),
            t_values=np.full(1, np.nan),
            p_values=np.full(1, np.nan),
            r2=1.0,
            adjusted_r2=float("nan"),
            ser=float("nan"),
            n_observations=1,
            degraded=tuple(notes),
        )

    design = np.column_stack([np.ones(n), x])
    if weights is not None:
        sqrt_w = np.sqrt(weights)
        solve_design = design * sqrt_w[:, None]
        solve_y = y * sqrt_w
    else:
        solve_design = design
        solve_y = y
    # Column-normalise before solving: event rates sit at ~1e9 while the
    # intercept column is 1.0, and an unscaled pseudo-inverse would truncate
    # the intercept direction as numerical noise.
    scales = np.sqrt((solve_design**2).sum(axis=0))
    scales[scales == 0] = 1.0
    scaled = solve_design / scales
    gram = scaled.T @ scaled
    gram_inv_scaled = np.linalg.pinv(gram)
    beta = (gram_inv_scaled @ scaled.T @ solve_y) / scales
    gram_inv = gram_inv_scaled / np.outer(scales, scales)

    residuals = y - design @ beta
    dof = n - p - 1
    sigma2 = float(residuals @ residuals) / dof
    std_errors = np.sqrt(np.clip(np.diag(gram_inv) * sigma2, 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = np.where(std_errors > 0, beta / std_errors, np.inf)
    p_values = two_sided_t_tail(t_values, dof)

    ss_res = float(residuals @ residuals)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    adj = 1.0 - (1.0 - r2) * (n - 1) / dof

    return OlsResult(
        names=names,
        intercept=float(beta[0]),
        coefficients=beta[1:].copy(),
        std_errors=std_errors,
        t_values=t_values,
        p_values=p_values,
        r2=r2,
        adjusted_r2=adj,
        ser=float(np.sqrt(sigma2)),
        n_observations=n,
        degraded=tuple(notes),
    )


def _prune_design(
    x: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray | None,
    names: tuple[str, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, tuple[str, ...], list[str]]:
    """Drop degenerate columns/rows so the OLS solve is well-posed.

    Deterministic pivoted column dropping: earlier columns always win a
    collinearity tie (matching stepwise selection order), and the notes
    name exactly what was removed.  Clean inputs pass through untouched.
    """
    notes: list[str] = []
    n, p = x.shape
    keep = np.ones(p, dtype=bool)
    finite = np.isfinite(x)

    # Columns with no finite data at all (e.g. an all-NaN fault-injected
    # event rate) are unusable; dropping them first preserves the rows.
    for j in range(p):
        if not finite[:, j].any():
            keep[j] = False
            notes.append(f"dropped regressor {names[j]!r}: no finite values")

    # Rows holding NaN/inf in y or any surviving column.
    row_ok = np.isfinite(y)
    if keep.any():
        row_ok &= finite[:, keep].all(axis=1)
    if not row_ok.all():
        notes.append(
            f"dropped {int((~row_ok).sum())} observation(s) with "
            "non-finite values"
        )
        x, y = x[row_ok], y[row_ok]
        if weights is not None:
            weights = weights[row_ok]
        n = y.size
        if n == 0:
            raise ValueError("no finite observations")

    # Constant columns are collinear with the intercept.
    for j in range(p):
        if keep[j] and np.ptp(x[:, j]) == 0:
            keep[j] = False
            notes.append(f"dropped constant regressor {names[j]!r}")

    # Pivoted collinearity pruning: grow a unit-normalised basis starting
    # from the intercept; a column that does not raise the rank is a
    # linear combination of earlier ones and is dropped.
    def unit(column: np.ndarray) -> np.ndarray:
        norm = float(np.sqrt(column @ column))
        return column / norm if norm > 0 else column

    basis = [unit(np.ones(n))]
    for j in range(p):
        if not keep[j]:
            continue
        trial = np.column_stack(basis + [unit(x[:, j])])
        if np.linalg.matrix_rank(trial) > len(basis):
            basis.append(unit(x[:, j]))
        else:
            keep[j] = False
            notes.append(f"dropped collinear regressor {names[j]!r}")

    # Shrink the model until the sample supports it (n > p + 1), dropping
    # the latest-pivoted columns first.
    survivors = [j for j in range(p) if keep[j]]
    while survivors and n <= len(survivors) + 1:
        j = survivors.pop()
        keep[j] = False
        notes.append(
            f"dropped regressor {names[j]!r}: too few observations (n={n})"
        )

    if not keep.all():
        x = x[:, keep]
        names = tuple(name for name, kept in zip(names, keep) if kept)
    return x, y, weights, names, notes


def variance_inflation_factors(x: np.ndarray) -> np.ndarray:
    """VIF of each column of the design matrix.

    ``VIF_j = 1 / (1 - R^2_j)`` where ``R^2_j`` regresses column ``j`` on the
    others.  Values near 1 indicate independent regressors; the paper treats
    a mean VIF of ~6 as acceptably low for its power models.

    Raises:
        ValueError: For fewer than two columns (VIF undefined).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("VIF needs a 2-D design matrix with >= 2 columns")
    n, p = x.shape
    vifs = np.empty(p)
    for j in range(p):
        others = np.delete(x, j, axis=1)
        design = np.column_stack([np.ones(n), others])
        beta, *_ = np.linalg.lstsq(design, x[:, j], rcond=None)
        predicted = design @ beta
        ss_res = float(((x[:, j] - predicted) ** 2).sum())
        ss_tot = float(((x[:, j] - x[:, j].mean()) ** 2).sum())
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
        vifs[j] = np.inf if r2 >= 1.0 else 1.0 / (1.0 - r2)
    return vifs
