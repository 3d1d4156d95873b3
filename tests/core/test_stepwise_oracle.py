"""Screened forward stepwise against the plain refit-everything loop.

``forward_stepwise`` skips the full ``fit_ols`` of every candidate its
closed-form screen proves the scan would reject.  The oracle below is the
loop as it was before the screen, kept verbatim: on every design both must
return exactly the same result, bit for bit.
"""

import math

import numpy as np
import pytest

from repro.core.stats.ols import fit_ols, variance_inflation_factors
from repro.core.stats.stepwise import (
    StepwiseResult,
    StepwiseStep,
    _intercept_only,
    _screen,
    forward_stepwise,
)


def oracle_forward_stepwise(
    candidates, y, max_terms=10, p_value_limit=0.05,
    use_adjusted_r2=False, vif_limit=None, min_improvement=1e-4,
):
    """The unscreened loop: every remaining candidate is refitted each step."""
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

    selected: list[str] = []
    steps: list[StepwiseStep] = []
    best_model = None
    best_score = -np.inf

    while len(selected) < max_terms:
        best_candidate = None
        candidate_model = None
        candidate_score = best_score

        for name, arr in arrays.items():
            if name in selected:
                continue
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


def random_design(seed: int):
    """A small adversarial stepwise problem and the call's keyword args.

    Candidates mix independent noise with exact linear combinations, 1e-9
    near-duplicates, exact duplicates, constant, NaN and integer columns,
    scaled from 1e-3 to 1e9 and offset; ``y`` is sometimes constant, an
    exact model or pure noise, and ``n`` is sometimes just above ``p + 1``.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 9))
    max_terms = int(rng.integers(1, 5))
    n = int(rng.choice([max_terms + 2, max_terms + 3, rng.integers(8, 40)]))
    cols: dict[str, np.ndarray] = {}
    for j in range(m):
        kind = rng.choice(
            ["noise", "noise", "noise", "combo", "near", "dup", "const", "nan", "int"]
        )
        earlier = list(cols.values())
        if kind == "combo" and len(earlier) >= 2:
            a, b = rng.choice(len(earlier), 2, replace=False)
            vec = earlier[a] * rng.normal() + earlier[b] * rng.normal()
        elif kind == "near" and earlier:
            base = earlier[rng.integers(len(earlier))]
            vec = base + 1e-9 * np.abs(base).max() * rng.normal(size=n)
        elif kind == "dup" and earlier:
            vec = earlier[rng.integers(len(earlier))].copy()
        elif kind == "const":
            vec = np.full(n, rng.normal())
        elif kind == "nan":
            vec = rng.normal(size=n)
            vec[rng.integers(n)] = np.nan
        elif kind == "int":
            vec = np.round(rng.uniform(0, 5, n))
        else:
            vec = rng.normal(size=n)
        scale = 10.0 ** rng.uniform(-3, 9)
        offset = rng.choice([0.0, rng.normal() * scale * 10.0 ** rng.uniform(0, 3)])
        cols[f"c{j}"] = vec * scale + offset

    usable = [v for v in cols.values() if np.isfinite(v).all() and np.std(v) > 0]
    shape = rng.choice(["model", "model", "model", "const", "exact", "pure"])
    if shape == "const":
        y = np.full(n, rng.normal())
    elif shape == "pure":
        y = rng.normal(size=n)
    else:
        y = np.full(n, rng.normal() * 10)
        for vec in usable[: int(rng.integers(1, 4))]:
            y = y + rng.normal() * (vec - vec.mean()) / np.std(vec)
        if shape == "model":
            y = y + 10.0 ** rng.uniform(-4, 0.5) * rng.normal(size=n)
    kwargs = dict(
        max_terms=max_terms,
        use_adjusted_r2=bool(rng.integers(2)),
        p_value_limit=[0.05, 0.5, 1.0, None][rng.integers(4)],
        vif_limit=[None, 5.0, 12.0][rng.integers(3)],
    )
    if rng.integers(4) == 0:
        kwargs["min_improvement"] = float(rng.choice([0.0, 1e-6, 1e-2]))
    return cols, y, kwargs


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_identical(got: StepwiseResult, want: StepwiseResult) -> None:
    assert got.selected == want.selected
    assert got.degraded == want.degraded
    assert len(got.steps) == len(want.steps)
    for mine, theirs in zip(got.steps, want.steps):
        assert mine.added == theirs.added
        for field in ("r2", "adjusted_r2", "max_p_value"):
            assert _same_float(getattr(mine, field), getattr(theirs, field))
    assert _same_float(got.mean_vif, want.mean_vif)
    assert np.array_equal(got.model.coefficients, want.model.coefficients, equal_nan=True)
    assert np.array_equal(got.model.p_values, want.model.p_values, equal_nan=True)
    assert _same_float(got.model.r2, want.model.r2)


@pytest.mark.parametrize("block", range(5))
def test_screened_scan_matches_the_oracle_exactly(block):
    for seed in range(block * 100, (block + 1) * 100):
        cols, y, kwargs = random_design(seed)
        assert_identical(
            forward_stepwise(cols, y, **kwargs),
            oracle_forward_stepwise(cols, y, **kwargs),
        )


def test_screen_bounds_hold_against_fit_ols():
    """The exactness argument itself: for every candidate the screen
    vouches for, ``fit_ols``'s score never exceeds the screen's upper
    bound and its largest slope p-value never falls below the lower one."""
    checked = 0
    for seed in range(150):
        cols, y, _ = random_design(seed)
        arrays = {k: v for k, v in cols.items() if np.isfinite(v).all() and np.std(v) > 0}
        if not arrays:
            continue
        names = list(arrays)
        unit = np.column_stack(list(arrays.values()))
        unit = unit / np.sqrt((unit**2).sum(axis=0))
        rng = np.random.default_rng(seed)
        chosen = sorted(rng.choice(len(names), int(rng.integers(0, min(4, len(names)))),
                                   replace=False).tolist())
        for adjusted in (False, True):
            score_hi, p_lo = _screen(unit, chosen, y, adjusted)
            for i, name in enumerate(names):
                if i in chosen or not np.isfinite(score_hi[i]):
                    continue
                terms = tuple(names[j] for j in chosen) + (name,)
                model = fit_ols(np.column_stack([arrays[t] for t in terms]), y, names=terms)
                if model.names != terms:
                    continue
                assert (model.adjusted_r2 if adjusted else model.r2) <= score_hi[i]
                assert model.max_p_value() >= p_lo[i]
                checked += 1
    assert checked > 200
