"""Forward-selection stepwise regression (Sections IV-D and V).

Two stopping/selection policies from the paper are supported:

* **p-value rule** (error regression, Section IV-D): add the candidate that
  maximises R^2; stop when any term's p-value rises above 0.05 ("a common
  rule of thumb is that terms with p-values above 0.05 are not statistically
  significant").
* **adjusted-R^2 with VIF restraint** (power-model event selection,
  Section V): add the candidate that maximises adjusted R^2, reject
  candidates that push the mean VIF past a limit, stop when no candidate
  improves adjusted R^2 or the event budget is reached.

Each step first screens every candidate in one matrix pass: residualising
``y`` and the candidates against the QR factor of the current selection
gives each candidate's score and slope t-statistics in closed form.  The
two-sided t tail falls as ``|t|`` grows, so a candidate's largest slope
p-value is one tail evaluation at its smallest ``|t|``.  The
scan then fits with ``fit_ols`` only the candidates the screen cannot rule
out.  The result is exact: every rejection in the scan is a bare
``continue`` that changes no state, and a candidate is skipped only when
its closed-form score or p-value clears that rejection by a margin well
above rounding.  Where rounding could dominate (near-collinear or
near-perfect fits, constant ``y``, non-finite values) it is fully fitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stats.ols import OlsResult, fit_ols, variance_inflation_factors
from repro.core.stats.student_t import two_sided_t_tail

#: Fixed parts of the margins by which a closed-form score must sit below
#: the bar, or a closed-form max p-value above the limit, to skip a fit.
_SCORE_MARGIN = 1e-9
_P_MARGIN = 1e-6
#: Both margins also grow with the rounding estimate
#: ``eps * kappa^2 * ||y||^2 / rss`` (``kappa``: condition number of the
#: unit-scaled design), times this factor.  On adversarial random designs
#: the closed forms and ``fit_ols`` never differed by more than 0.6x the
#: estimate in score and 10x in p-value.
_ROUNDING_SAFETY = 1e4
#: Unit-norm residual^2 at or below which a column is near-collinear with
#: the selection, and residual sum of squares relative to ``||y||^2`` at or
#: below which a fit is near-perfect: no closed form is trusted there.
_COLLINEAR = 1e-8
_PERFECT = 1e-9


@dataclass(frozen=True)
class StepwiseStep:
    """Record of one accepted selection step."""

    added: str
    r2: float
    adjusted_r2: float
    max_p_value: float


@dataclass(frozen=True)
class StepwiseResult:
    """Outcome of a forward selection.

    Attributes:
        selected: Names of the chosen regressors, in selection order.
        model: Final fitted OLS model.
        steps: Per-step audit trail (what was added, fit quality after).
        mean_vif: Mean VIF of the final design (nan for single-regressor
            models, where VIF is undefined).
        degraded: Notes recorded when the selection had to degrade —
            candidates skipped for non-finite values, or an intercept-only
            fallback because nothing was selectable; empty when clean.
    """

    selected: tuple[str, ...]
    model: OlsResult
    steps: tuple[StepwiseStep, ...]
    mean_vif: float
    degraded: tuple[str, ...] = ()


def forward_stepwise(
    candidates: dict[str, np.ndarray],
    y: np.ndarray,
    max_terms: int = 10,
    p_value_limit: float | None = 0.05,
    use_adjusted_r2: bool = False,
    vif_limit: float | None = None,
    min_improvement: float = 1e-4,
) -> StepwiseResult:
    """Greedy forward selection over named candidate regressors.

    Args:
        candidates: Name -> regressor vector (all the same length as ``y``).
            Both totals and rates may be offered, as the paper does.
        y: Response vector.
        max_terms: Maximum number of regressors to select.
        p_value_limit: Stop *before* accepting a step that would leave any
            term with a p-value above this limit (None disables the rule).
        use_adjusted_r2: Score candidates by adjusted R^2 instead of R^2.
        vif_limit: Reject candidates whose inclusion pushes the mean VIF of
            the design past this value (None disables the restraint).
        min_improvement: Minimum score improvement to keep going.  It also
            decides between candidates within a step: candidates are scanned
            in dict order, and a later one replaces the running best only
            if it beats it by more than this margin.

    Degradation: candidates containing NaN/inf values are skipped with a
    note, constant candidates are skipped silently (they can never help),
    and when nothing is selectable — every candidate degenerate, or no
    candidate passing the acceptance rules — the result degrades to an
    intercept-only model with an explanatory note instead of raising.

    Raises:
        ValueError: On empty candidates or length mismatches.
    """
    if not candidates:
        raise ValueError("no candidate regressors")
    y = np.asarray(y, dtype=float)
    n = y.size
    notes: list[str] = []
    arrays: dict[str, np.ndarray] = {}
    for name, vec in candidates.items():
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (n,):
            raise ValueError(f"candidate {name!r} has shape {arr.shape}, expected ({n},)")
        if not np.isfinite(arr).all():
            notes.append(f"skipped candidate {name!r}: non-finite values")
            continue
        if np.std(arr) > 0:  # constant regressors can never help
            arrays[name] = arr
    if not arrays:
        notes.append(
            "no usable candidate regressor (all constant or non-finite); "
            "degraded to an intercept-only model"
        )
        return _intercept_only(y, notes)

    names = list(arrays)
    unit = np.column_stack(list(arrays.values()))
    with np.errstate(over="ignore", invalid="ignore"):
        unit = unit / np.sqrt((unit**2).sum(axis=0))

    selected: list[str] = []
    steps: list[StepwiseStep] = []
    best_model: OlsResult | None = None
    best_score = -np.inf

    while len(selected) < max_terms:
        best_candidate: str | None = None
        candidate_model: OlsResult | None = None
        candidate_score = best_score
        score_hi, p_lo = _screen(
            unit, [names.index(s) for s in selected], y, use_adjusted_r2
        )

        for i, (name, arr) in enumerate(arrays.items()):
            if name in selected:
                continue
            if score_hi[i] <= candidate_score + min_improvement or (
                p_value_limit is not None and p_lo[i] > p_value_limit
            ):
                continue  # the screen proves a check below rejects it
            design = np.column_stack([arrays[s] for s in selected] + [arr])
            if design.shape[0] <= design.shape[1] + 1:
                continue
            model = fit_ols(design, y, names=tuple(selected) + (name,))
            if name not in model.names:
                # The candidate was pruned as collinear with the current
                # selection; accepting it would select a phantom term.
                continue
            score = model.adjusted_r2 if use_adjusted_r2 else model.r2
            if score <= candidate_score + min_improvement:
                continue
            if p_value_limit is not None and model.max_p_value() > p_value_limit:
                continue
            if vif_limit is not None and len(selected) >= 1:
                vifs = variance_inflation_factors(design)
                if float(np.mean(vifs)) > vif_limit:
                    continue
            best_candidate = name
            candidate_model = model
            candidate_score = score

        if best_candidate is None or candidate_model is None:
            break
        selected.append(best_candidate)
        best_model = candidate_model
        best_score = candidate_score
        steps.append(
            StepwiseStep(
                added=best_candidate,
                r2=candidate_model.r2,
                adjusted_r2=candidate_model.adjusted_r2,
                max_p_value=candidate_model.max_p_value(),
            )
        )

    if best_model is None:
        notes.append(
            "stepwise selection accepted no regressor (limits rejected "
            "every candidate); degraded to an intercept-only model"
        )
        return _intercept_only(y, notes)

    if len(selected) >= 2:
        design = np.column_stack([arrays[s] for s in selected])
        mean_vif = float(np.mean(variance_inflation_factors(design)))
    else:
        mean_vif = float("nan")

    return StepwiseResult(
        selected=tuple(selected),
        model=best_model,
        steps=tuple(steps),
        mean_vif=mean_vif,
        degraded=tuple(notes),
    )


def _screen(
    unit: np.ndarray,
    selected: list[int],
    y: np.ndarray,
    use_adjusted_r2: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on what ``fit_ols`` would report for every candidate column.

    ``unit`` holds the unit-norm candidate columns and ``selected`` the
    indices already in the model.  Column ``i`` of the result bounds the
    fit of ``y ~ 1 + selected + unit[:, i]``: its score is at most the
    first array's entry and its largest slope p-value at least the
    second's.  Where the closed form cannot vouch for a value the bounds
    are +inf and -inf, so the caller never skips on them.
    """
    n, m = unit.shape
    score_hi = np.full(m, np.inf)
    p_lo = np.full(m, -np.inf)
    dof = n - len(selected) - 2
    ss_tot = float(((y - y.mean()) ** 2).sum())
    y2 = float(y @ y)
    if dof <= 0 or not (0.0 < ss_tot and np.isfinite(y2)):
        return score_hi, p_lo
    base = np.column_stack([np.full(n, 1.0 / np.sqrt(n)), unit[:, selected]])
    q, r = np.linalg.qr(base)
    if not np.min(np.abs(np.diag(r))) ** 2 > _COLLINEAR:
        return score_hi, p_lo

    # Residualise y and every candidate against the selection: the
    # candidate's coefficient and rss follow in closed form, and the
    # selection's coefficients and variances by the block-inverse update.
    r_inv = np.linalg.inv(r)
    proj = q.T @ unit
    g = r_inv @ proj
    r_c = unit - q @ proj
    q_y = q.T @ y
    r_y = y - q @ q_y
    rc2 = (r_c**2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c_y = r_c.T @ r_y
        beta_c = c_y / rc2
        rss = float(r_y @ r_y) - beta_c * c_y
        r2 = 1.0 - rss / ss_tot
        score = 1.0 - (1.0 - r2) * (n - 1) / dof if use_adjusted_r2 else r2
        beta = np.vstack([(r_inv @ q_y)[:, None] - g * beta_c, beta_c])
        var = np.vstack([(r_inv**2).sum(axis=1)[:, None] + g**2 / rc2, 1.0 / rc2])
        # The tail falls as |t| grows, so a candidate's largest slope
        # p-value is the tail at its smallest |t| (NaN if any |t| is NaN).
        t_min = (np.abs(beta[1:]) / np.sqrt(var[1:] * (rss / dof))).min(axis=0)
        max_p = two_sided_t_tail(t_min, dof)
        # kappa^2 <= (columns) * trace of the inverse unit-scaled Gram matrix.
        kappa2 = var.shape[0] * var.sum(axis=0)
        slack = _ROUNDING_SAFETY * np.finfo(float).eps * kappa2 * y2 / rss
        trusted = (
            (rc2 > _COLLINEAR)
            & (rss > _PERFECT * y2)
            & np.isfinite(score + max_p + slack)
        )
    score_hi[trusted] = (score + _SCORE_MARGIN + slack)[trusted]
    p_lo[trusted] = (max_p - _P_MARGIN - slack)[trusted]
    return score_hi, p_lo


def _intercept_only(y: np.ndarray, notes: list[str]) -> StepwiseResult:
    """Degraded fallback: fit only the intercept and carry the notes."""
    model = fit_ols(np.empty((y.size, 0)), y)
    return StepwiseResult(
        selected=(),
        model=model,
        steps=(),
        mean_vif=float("nan"),
        degraded=tuple(notes) + model.degraded,
    )
