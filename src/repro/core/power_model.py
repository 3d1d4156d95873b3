"""Empirical PMC-based power modelling, optimised for gem5 events (Section V).

Reimplements the Powmon methodology of [8] as the paper uses it:

1. **Data collection** (Experiments 3 and 4): power and PMC rates for every
   workload at every OPP, via the hardware platform's sensors.
2. **Event selection**: greedy forward selection over candidate event
   *rates*, maximising adjusted R^2 under a VIF restraint, with optional
   *restraint pools* that exclude events unavailable or unreliable in gem5
   (unaligned accesses, 0x15 L1D write-backs, the misclassified 0x75).
   Difference terms such as ``0x1B-0x73`` are offered to reduce
   multicollinearity, as the paper does.
3. **Model formulation**: one linear model per OPP (applied with a
   voltage/frequency lookup), plus pooled quality statistics: MAPE, SER,
   adjusted R^2 and mean VIF — the numbers Table-style quoted in Section V
   (A15: 3.28 %, 0.049 W, 0.996, VIF ~6).
4. **Application** (Fig. 2): the same model evaluated from HW PMC rates or
   from gem5 statistics via the event-matching equations, enabling the
   Section VI power/energy comparison; plus export of runtime power
   equations in gem5 statistic names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.stats.metrics import mape, mpe
from repro.core.stats.ols import OlsResult, fit_ols, variance_inflation_factors
from repro.core.stats.stepwise import forward_stepwise
from repro.events.armv7_pmu import event_name, events_for_core
from repro.events.matching import (
    UNAVAILABLE_IN_GEM5,
    UNRELIABLE_IN_GEM5,
    EventMatch,
    default_event_matches,
)
from repro.sim.dvfs import OppTable, opp_table_for
from repro.sim.executor import prime_engines
from repro.sim.gem5 import Gem5Stats
from repro.sim.platform import HardwarePlatform, HwMeasurement
from repro.workloads.profile import WorkloadProfile


@dataclass(frozen=True)
class EventTerm:
    """One model regressor: a PMC event rate, optionally minus another.

    The paper subtracts 0x73 from 0x1B "to reduce multicollinearity"; that
    difference is representable as ``EventTerm(0x1B, 0x73)``.
    """

    positive: int
    negative: int | None = None

    @property
    def name(self) -> str:
        if self.negative is None:
            return f"0x{self.positive:02X}"
        return f"0x{self.positive:02X}-0x{self.negative:02X}"

    @property
    def pretty_name(self) -> str:
        if self.negative is None:
            return event_name(self.positive)
        return f"{event_name(self.positive)} - {event_name(self.negative)}"

    def events(self) -> tuple[int, ...]:
        return (self.positive,) if self.negative is None else (self.positive, self.negative)

    def rate(self, rates: Mapping[int, float]) -> float:
        """Evaluate the term from a per-event rate mapping.

        Raises:
            KeyError: If a referenced event is missing.
        """
        value = rates[self.positive]
        if self.negative is not None:
            value -= rates[self.negative]
        return value


@dataclass(frozen=True)
class PowerObservation:
    """One (workload, OPP) power-characterisation point (Experiments 3/4)."""

    workload: str
    freq_hz: float
    voltage: float
    rates: dict[int, float]
    power_w: float
    threads: int


def collect_power_dataset(
    platform: HardwarePlatform,
    workloads: Iterable[WorkloadProfile],
    frequencies: Sequence[float] | None = None,
    health=None,
) -> list[PowerObservation]:
    """Run the power-characterisation experiments over workloads x OPPs.

    Every missing workload simulation is fanned out in one up-front batch
    through ``platform.executor``; the per-OPP characterisation loop then
    runs entirely against memoised results.

    Collection degrades gracefully: a (workload, OPP) point that fails with
    a recoverable error (permanently failed simulation job, I/O error) is
    recorded in ``health`` — an optional
    :class:`~repro.core.validation.CollectionHealth` — and skipped, as are
    points whose power sensor lost every sample (NaN power); the model is
    fitted on the surviving observations with explicit gap accounting.
    """
    if frequencies is None:
        from repro.sim.dvfs import experiment_frequencies

        frequencies = experiment_frequencies(platform.core)
    workloads = list(workloads)
    if not workloads:
        raise ValueError("no workloads given")
    from repro.core.validation import RECOVERABLE_ERRORS, CollectionHealth

    if health is None:
        health = CollectionHealth()
    executor = platform.executor
    guard_seen = len(executor.guard.events)
    prime_engines(executor, (platform,), workloads)
    observations = []
    for profile in workloads:
        for freq in frequencies:
            health.attempted += 1
            try:
                m = platform.characterize(profile, freq, with_power=True)
            except RECOVERABLE_ERRORS as exc:
                health.record_failure(profile.name, freq, "hardware", exc)
                continue
            health.power_samples_lost += m.power_samples_lost
            if not np.isfinite(m.power_w):
                health.record_failure(
                    profile.name,
                    freq,
                    "hardware",
                    ValueError("power sensor lost every sample in the window"),
                )
                continue
            health.succeeded += 1
            rates = {e: total / m.time_seconds for e, total in m.pmc.items()}
            observations.append(
                PowerObservation(
                    workload=profile.name,
                    freq_hz=float(freq),
                    voltage=platform.opps.voltage(freq),
                    rates=rates,
                    power_w=m.power_w,
                    threads=profile.threads,
                )
            )
    health.absorb_guard_events(executor.guard.events[guard_seen:])
    if not observations:
        raise RuntimeError(
            f"power collection failed completely ({health.summary()})"
        )
    return observations


@dataclass(frozen=True)
class PowerModelQuality:
    """Pooled validation statistics of a fitted power model."""

    mape: float
    mpe: float
    ser: float
    adjusted_r2: float
    mean_vif: float
    max_ape: float
    worst_observation: str
    n_observations: int


@dataclass(frozen=True)
class PowerEstimate:
    """A power prediction with its per-component breakdown (Fig. 7 bars)."""

    power_w: float
    components: dict[str, float]


@dataclass
class PowerModel:
    """A per-OPP linear power model over PMC event-rate terms.

    Attributes:
        core: Target cluster (``"A7"`` or ``"A15"``).
        terms: The selected event terms, in selection order.
        per_opp: Fitted OLS model per frequency (Hz, rounded key).  A
            degraded per-OPP fit may carry *fewer* regressors than
            ``terms`` (dropped as constant/collinear on that OPP's
            surviving observations); predictions look coefficients up by
            name and treat a dropped term's contribution as zero.
        quality: Pooled validation statistics.
        degraded: Notes recorded when selection or fitting degraded
            (skipped candidates, intercept-only fallbacks, per-OPP term
            drops); empty for a clean model.
    """

    core: str
    terms: tuple[EventTerm, ...]
    per_opp: dict[int, OlsResult]
    quality: PowerModelQuality | None = None
    degraded: tuple[str, ...] = ()

    def _model_for(self, freq_hz: float) -> OlsResult:
        key = round(freq_hz)
        if key not in self.per_opp:
            supported = sorted(self.per_opp)
            raise KeyError(
                f"no model fitted at {freq_hz / 1e6:.0f} MHz; "
                f"fitted OPPs: {[k / 1e6 for k in supported]} MHz"
            )
        return self.per_opp[key]

    def predict(self, rates: Mapping[int, float], freq_hz: float) -> float:
        """Predicted cluster power from event rates at one OPP."""
        model = self._model_for(freq_hz)
        if len(model.names) == len(self.terms):
            x = np.array([term.rate(rates) for term in self.terms])
            return float(model.predict(x)[0])
        # Degraded per-OPP fit: some terms were dropped; evaluate the
        # surviving coefficients by name.
        total = model.intercept
        for term in self.terms:
            if term.name in model.names:
                total += model.coefficient(term.name) * term.rate(rates)
        return float(total)

    def predict_components(
        self, rates: Mapping[int, float], freq_hz: float
    ) -> PowerEstimate:
        """Prediction split into intercept + per-term contributions.

        Terms dropped by a degraded per-OPP fit are reported with a zero
        contribution so the component breakdown keeps a stable shape.
        """
        model = self._model_for(freq_hz)
        components = {"intercept": model.intercept}
        total = model.intercept
        for term in self.terms:
            name = term.name
            if name in model.names:
                watts = model.coefficient(name) * term.rate(rates)
            else:
                watts = 0.0
            components[name] = watts
            total += watts
        return PowerEstimate(power_w=total, components=components)

    def required_events(self) -> list[int]:
        """All PMC events the model needs as inputs."""
        events: list[int] = []
        for term in self.terms:
            for event in term.events():
                if event not in events:
                    events.append(event)
        return events

    def gem5_stat_weights(
        self, matches: dict[int, EventMatch] | None = None
    ) -> dict[int, dict[str, float]]:
        """Per-OPP flat weights over gem5 stat rates.

        Every model term is a linear combination of PMC events, and every
        PMC event matches a linear combination of gem5 stats; expanding both
        yields one weight per gem5 stat — the canonical form of the runtime
        equations.

        Raises:
            KeyError: If a model event has no gem5 equivalent.
        """
        if matches is None:
            matches = default_event_matches()
        weights_per_opp: dict[int, dict[str, float]] = {}
        for key, fit in self.per_opp.items():
            weights: dict[str, float] = {}
            for term in self.terms:
                if term.name not in fit.names:
                    continue  # dropped by a degraded per-OPP fit
                coef = fit.coefficient(term.name)
                for sign, event in zip((1.0, -1.0), term.events()):
                    match = matches.get(event)
                    if match is None:
                        raise KeyError(
                            f"model event {event_name(event)} has no gem5 match"
                        )
                    for stat_coef, stat in match.terms:
                        weights[stat] = weights.get(stat, 0.0) + (
                            float(coef) * sign * stat_coef
                        )
            weights_per_opp[key] = weights
        return weights_per_opp

    def gem5_equations(
        self, matches: dict[int, EventMatch] | None = None
    ) -> str:
        """Runtime power equations in gem5 statistic names (Fig. 2 output).

        One line per OPP, in the flat canonical form::

            power[600MHz] = 0.29 + 2.9e-10*rate(cpu.numCycles) - ...

        This is the text GemStone splices into a gem5 ``MathExprPowerModel``
        so power is computed *during* simulation;
        :func:`repro.core.runtime_power.compile_equations` parses it back.

        Raises:
            KeyError: If a model event has no gem5 equivalent.
        """
        weights_per_opp = self.gem5_stat_weights(matches)
        lines = [f"# {self.core} cluster run-time power model (per OPP)"]
        for key in sorted(weights_per_opp):
            parts = [f"{self.per_opp[key].intercept:.8g}"]
            for stat, weight in sorted(weights_per_opp[key].items()):
                if weight == 0.0:
                    continue
                sign = "-" if weight < 0 else "+"
                parts.append(f"{sign} {abs(weight):.8g}*rate({stat})")
            lines.append(f"power[{key / 1e6:.0f}MHz] = " + " ".join(parts))
        return "\n".join(lines)


def restraint_pool_gem5(core: str) -> set[int]:
    """Events excluded when the model must be gem5-compatible (Section V).

    The pool combines the events the paper names as unavailable in gem5
    (unaligned accesses, exclusives), the ones it measured as badly modelled
    (0x15, 0x43, the misclassified 0x74/0x75), and every catalog event with
    no matching equation at all — an event the application tool could never
    feed from a gem5 stats file.
    """
    matched = set(default_event_matches())
    unmatched = {
        e.number for e in events_for_core(core) if e.number not in matched
    }
    return set(UNAVAILABLE_IN_GEM5) | set(UNRELIABLE_IN_GEM5) | unmatched


class PowerModelBuilder:
    """Builds per-OPP empirical power models from power observations."""

    def __init__(
        self,
        core: str,
        excluded_events: set[int] | frozenset[int] = frozenset(),
        max_terms: int = 7,
        vif_limit: float = 12.0,
        extra_terms: Sequence[EventTerm] | None = None,
    ):
        self.core = core
        self.excluded_events = set(excluded_events)
        self.max_terms = max_terms
        self.vif_limit = vif_limit
        if extra_terms is None:
            extra_terms = (EventTerm(0x1B, 0x73),) if core == "A15" else ()
        self.extra_terms = tuple(extra_terms)

    # ----------------------------------------------------------- event terms
    def candidate_terms(self, observations: Sequence[PowerObservation]) -> list[EventTerm]:
        """All admissible regressor terms given the restraint pool."""
        available = set(observations[0].rates)
        for obs in observations[1:]:
            available &= set(obs.rates)
        allowed = {
            e.number
            for e in events_for_core(self.core)
            if e.number in available and e.number not in self.excluded_events
        }
        terms = [EventTerm(e) for e in sorted(allowed)]
        for extra in self.extra_terms:
            if all(e in allowed or e in available for e in extra.events()):
                terms.append(extra)
        return terms

    # -------------------------------------------------------------- pipeline
    def select_events(
        self, observations: Sequence[PowerObservation]
    ) -> tuple[EventTerm, ...]:
        """Stepwise selection on V^2-normalised power, pooled across OPPs.

        Normalising by V^2 keeps one linear relation across the whole sweep
        (CMOS dynamic power scales with V^2 at fixed activity), letting the
        selection see frequency-driven variance — which is why the cycle
        counter 0x11 emerges as the dominant term, as in the paper.
        """
        selected, _ = self._select_events(observations)
        return selected

    def _select_events(
        self, observations: Sequence[PowerObservation]
    ) -> tuple[tuple[EventTerm, ...], list[str]]:
        """Selection plus the degradation notes the stepwise pass recorded."""
        if not observations:
            raise ValueError("no observations")
        terms = self.candidate_terms(observations)
        y = np.array([obs.power_w / obs.voltage**2 for obs in observations])
        candidates = {
            term.name: np.array([term.rate(obs.rates) for obs in observations])
            for term in terms
        }
        result = forward_stepwise(
            candidates,
            y,
            max_terms=self.max_terms,
            p_value_limit=None,
            use_adjusted_r2=True,
            vif_limit=self.vif_limit,
        )
        by_name = {term.name: term for term in terms}
        notes = [f"event selection: {note}" for note in result.degraded]
        return tuple(by_name[name] for name in result.selected), notes

    def fit(
        self,
        observations: Sequence[PowerObservation],
        terms: Sequence[EventTerm] | None = None,
    ) -> PowerModel:
        """Fit per-OPP models for given (or freshly selected) terms.

        Raises:
            ValueError: If explicitly given ``terms`` is empty.  A *fresh
                selection* that accepts no term instead degrades to an
                intercept-only model per OPP, with a note in the model's
                ``degraded`` record.
        """
        observations = list(observations)
        notes: list[str] = []
        if terms is None:
            terms, notes = self._select_events(observations)
            if not terms:
                notes.append(
                    "event selection accepted no terms; fitted an "
                    "intercept-only power model per OPP"
                )
        else:
            terms = tuple(terms)
            if not terms:
                raise ValueError("no model terms")
        terms = tuple(terms)

        per_opp: dict[int, OlsResult] = {}
        frequencies = sorted({round(obs.freq_hz) for obs in observations})
        for key in frequencies:
            subset = [obs for obs in observations if round(obs.freq_hz) == key]
            x = np.array([[t.rate(obs.rates) for t in terms] for obs in subset])
            x = x.reshape(len(subset), len(terms))
            y = np.array([obs.power_w for obs in subset])
            # Weight by 1/power: the board's workloads span a wide power
            # range (single-threaded micro-kernels to 4-thread PARSEC), and
            # the quality target is *percentage* error.
            fit = fit_ols(
                x, y, names=tuple(t.name for t in terms), weights=1.0 / y
            )
            per_opp[key] = fit
            for note in fit.degraded:
                notes.append(f"OPP {key / 1e6:.0f} MHz: {note}")

        model = PowerModel(
            core=self.core,
            terms=terms,
            per_opp=per_opp,
            degraded=tuple(notes),
        )
        model.quality = validate_power_model(model, observations)
        return model


def validate_power_model(
    model: PowerModel, observations: Sequence[PowerObservation]
) -> PowerModelQuality:
    """Pooled quality statistics of a model over a set of observations."""
    observed = []
    predicted = []
    labels = []
    design_rows = []
    for obs in observations:
        observed.append(obs.power_w)
        predicted.append(model.predict(obs.rates, obs.freq_hz))
        labels.append(f"{obs.workload} @ {obs.freq_hz / 1e6:.0f} MHz")
        design_rows.append([t.rate(obs.rates) for t in model.terms])

    observed_arr = np.array(observed)
    predicted_arr = np.array(predicted)
    apes = np.abs((observed_arr - predicted_arr) / observed_arr) * 100.0
    worst = int(apes.argmax())
    n = len(observed)
    p = len(model.terms)
    residual = observed_arr - predicted_arr
    dof = max(n - p - 1, 1)
    ser = float(np.sqrt((residual**2).sum() / dof))
    ss_tot = float(((observed_arr - observed_arr.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - float((residual**2).sum()) / ss_tot
    adj = 1.0 - (1.0 - r2) * (n - 1) / dof

    design = np.array(design_rows)
    if design.shape[1] >= 2:
        mean_vif = float(np.mean(variance_inflation_factors(design)))
    else:
        mean_vif = float("nan")

    return PowerModelQuality(
        mape=mape(observed_arr, predicted_arr),
        mpe=mpe(observed_arr, predicted_arr),
        ser=ser,
        adjusted_r2=adj,
        mean_vif=mean_vif,
        max_ape=float(apes[worst]),
        worst_observation=labels[worst],
        n_observations=n,
    )


class PowerModelApplication:
    """The Fig. 2 tool: apply one power model to HW data or gem5 stats.

    Power models are applied *after* simulation, so the model or the
    voltage table can change without re-running anything.
    """

    def __init__(
        self,
        model: PowerModel,
        opps: OppTable | None = None,
        matches: dict[int, EventMatch] | None = None,
    ):
        self.model = model
        self.opps = opps if opps is not None else opp_table_for(model.core)
        self.matches = matches if matches is not None else default_event_matches()
        missing = [
            event_name(e)
            for e in model.required_events()
            if e not in self.matches
        ]
        if missing:
            raise ValueError(
                f"power model uses events without gem5 matches: {missing}"
            )

    def apply_to_hw(self, measurement: HwMeasurement) -> PowerEstimate:
        """Estimate power from hardware PMC rates."""
        rates = {
            e: total / measurement.time_seconds for e, total in measurement.pmc.items()
        }
        return self.model.predict_components(rates, measurement.effective_freq_hz)

    def gem5_rates(self, stats: Gem5Stats) -> dict[int, float]:
        """PMC-equivalent rates derived from gem5 statistics."""
        rates: dict[int, float] = {}
        for event in self.model.required_events():
            match = self.matches[event]
            rates[event] = match.evaluate(stats.stats) / stats.sim_seconds
        return rates

    def apply_to_gem5(self, stats: Gem5Stats) -> PowerEstimate:
        """Estimate power from gem5 statistics via the event matching."""
        return self.model.predict_components(self.gem5_rates(stats), stats.freq_hz)
