"""Experiment collation and execution-time error analysis.

Implements boxes (a)-(f) of the paper's Fig. 1: run the workloads on the
hardware platform (Experiment 1) and on the gem5 model (Experiment 2) across
the DVFS sweep, pair the observations, and compute the execution-time error
statistics that headline Section IV:

* per-workload signed percentage error (Fig. 3),
* MPE/MAPE per frequency and aggregated,
* matrices of HW PMC rates and gem5 statistic rates for the downstream
  cluster/correlation/regression analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.stats.metrics import mape, mpe, percentage_errors
from repro.sim.dvfs import experiment_frequencies
from repro.sim.executor import SimJobError, prime_engines
from repro.sim.gem5 import Gem5Simulation, Gem5Stats
from repro.sim.platform import HardwarePlatform, HwMeasurement
from repro.workloads.profile import WorkloadProfile

#: Failure classes dataset collection survives by recording a gap: a job
#: that exhausted the executor's retries, an I/O error from a flaky board
#: or filesystem, and timeouts.  Programming errors still propagate.
RECOVERABLE_ERRORS = (SimJobError, OSError, TimeoutError)


@dataclass(frozen=True)
class DegradedFit:
    """One analysis stage that degraded instead of crashing.

    Raised data quality problems (all-NaN event rates, collinear designs,
    single-workload campaigns) no longer abort the analysis layer; each
    stage records what it dropped or simplified, and the report renders
    the collected notes alongside :class:`CollectionHealth`.

    Attributes:
        stage: The analysis product that degraded (e.g. ``"regression[hw]"``
            or ``"power-model"``).
        detail: Human-readable description of the degradation.
    """

    stage: str
    detail: str


@dataclass(frozen=True)
class CollectionFailure:
    """One (workload, frequency) point that could not be collected."""

    workload: str
    freq_hz: float
    stage: str  # "hardware" | "gem5"
    error: str


@dataclass
class CollectionHealth:
    """Gap accounting for one (possibly degraded) collection campaign.

    Threaded through :func:`collect_validation_dataset` /
    :func:`collect_power_dataset` into :class:`ValidationDataset` and the
    full report: analyses proceed on the surviving rows, and this record
    says exactly what is missing and why.

    Attributes:
        attempted: (workload, frequency) points attempted.
        succeeded: Points collected successfully.
        failures: One entry per failed point.
        power_samples_lost: Power-sensor readings dropped or NaN across the
            campaign (the rows survive with a degraded power mean).
        guard_events: Guardrail interventions
            (:class:`~repro.sim.guard.GuardEvent`) absorbed from the
            executor: engine fallbacks and quarantined decodes.
            Every surviving row is still bit-identical — these record
            *how* it survived.
    """

    attempted: int = 0
    succeeded: int = 0
    failures: list[CollectionFailure] = field(default_factory=list)
    power_samples_lost: int = 0
    guard_events: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def degraded(self) -> bool:
        """True when anything at all was lost or guarded during collection."""
        return (
            bool(self.failures)
            or self.power_samples_lost > 0
            or bool(self.guard_events)
        )

    def record_failure(
        self, workload: str, freq_hz: float, stage: str, error: Exception
    ) -> None:
        self.failures.append(
            CollectionFailure(
                workload=workload,
                freq_hz=float(freq_hz),
                stage=stage,
                error=f"{type(error).__name__}: {error}",
            )
        )

    def record_guard_event(self, event) -> None:
        """Append one :class:`~repro.sim.guard.GuardEvent`."""
        self.guard_events.append(event)

    def absorb_guard_events(self, events: Iterable) -> None:
        """Append guard events recorded by a collection phase.

        Each collection phase snapshots the executor's
        :attr:`~repro.sim.guard.GuardRail.events` length when it starts
        and passes only the suffix its own campaign added, so a shared
        health record spanning several phases (validation + power) never
        double-counts — including after a resume, where the restored
        record already holds earlier phases' events but the fresh
        executor's list starts empty.
        """
        self.guard_events.extend(events)

    def clone(self) -> CollectionHealth:
        """An independent snapshot (checkpoint payloads must not alias)."""
        dup = CollectionHealth()
        dup.adopt(self)
        return dup

    def adopt(self, other: CollectionHealth) -> None:
        """Overwrite this record in place with another's contents.

        Restoring a checkpointed dataset must also restore the gap
        accounting of the original campaign; mutating in place keeps every
        existing reference to the facade's shared health object valid.
        """
        self.attempted = other.attempted
        self.succeeded = other.succeeded
        self.failures = list(other.failures)
        self.power_samples_lost = other.power_samples_lost
        self.guard_events = list(other.guard_events)

    def summary(self) -> str:
        """One-line human summary for logs and error messages."""
        line = f"{self.succeeded}/{self.attempted} points collected"
        if self.failures:
            line += f", {self.failed} failed"
        if self.power_samples_lost:
            line += f", {self.power_samples_lost} power samples lost"
        if self.guard_events:
            line += f", {len(self.guard_events)} guard intervention(s)"
        return line


@dataclass(frozen=True)
class WorkloadRun:
    """One paired (hardware, gem5) observation of a workload at one OPP."""

    workload: str
    suite: str
    threads: int
    freq_hz: float
    hw: HwMeasurement
    gem5: Gem5Stats

    @property
    def hw_time(self) -> float:
        return self.hw.time_seconds

    @property
    def gem5_time(self) -> float:
        return self.gem5.sim_seconds

    @property
    def time_percentage_error(self) -> float:
        """Signed error, paper convention: negative = gem5 overestimates
        execution time (underestimates performance)."""
        return float(
            percentage_errors([self.hw_time], [self.gem5_time])[0]
        )


@dataclass
class ValidationDataset:
    """All paired runs for one (core cluster, gem5 model) combination.

    Attributes:
        core: ``"A7"`` or ``"A15"``.
        gem5_model: Name of the gem5 machine configuration validated.
        runs: All paired observations, workload-major then frequency.
        workloads: Workload names in catalog order (every *requested*
            workload; a degraded collection may have gaps in ``runs``).
        frequencies: The DVFS sweep, in Hz.
        health: Gap accounting from collection (``None`` for datasets
            assembled by hand).
    """

    core: str
    gem5_model: str
    runs: list[WorkloadRun]
    workloads: tuple[str, ...]
    frequencies: tuple[float, ...]
    health: CollectionHealth | None = None
    _index: dict[tuple[str, float], WorkloadRun] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._index:
            self._index = {(r.workload, r.freq_hz): r for r in self.runs}

    def run(self, workload: str, freq_hz: float) -> WorkloadRun:
        """Look up one paired run.

        Raises:
            KeyError: If the (workload, frequency) pair was not collected.
        """
        return self._index[(workload, freq_hz)]

    def runs_at(self, freq_hz: float) -> list[WorkloadRun]:
        """All *collected* runs at one frequency, in workload order.

        Workloads that failed to collect (see :attr:`health`) are simply
        absent, so downstream analyses operate on the surviving rows.
        """
        return [
            self._index[(w, freq_hz)]
            for w in self.workloads
            if (w, freq_hz) in self._index
        ]

    # ----------------------------------------------------------- error stats
    def errors_at(self, freq_hz: float) -> np.ndarray:
        """Per-workload signed time percentage errors at one frequency."""
        return np.array([r.time_percentage_error for r in self.runs_at(freq_hz)])

    def time_mpe(self, freq_hz: float | None = None) -> float:
        """MPE of execution time at one frequency (or over the whole sweep)."""
        runs = self.runs if freq_hz is None else self.runs_at(freq_hz)
        return mpe([r.hw_time for r in runs], [r.gem5_time for r in runs])

    def time_mape(self, freq_hz: float | None = None) -> float:
        """MAPE of execution time at one frequency (or the whole sweep)."""
        runs = self.runs if freq_hz is None else self.runs_at(freq_hz)
        return mape([r.hw_time for r in runs], [r.gem5_time for r in runs])

    def suite_time_stats(self, suite_prefixes: Sequence[str]) -> tuple[float, float]:
        """(MAPE, MPE) restricted to workloads whose suite matches."""
        runs = [r for r in self.runs if r.suite in suite_prefixes]
        if not runs:
            raise ValueError(f"no runs for suites {suite_prefixes}")
        hw_times = [r.hw_time for r in runs]
        gem5_times = [r.gem5_time for r in runs]
        return mape(hw_times, gem5_times), mpe(hw_times, gem5_times)

    # --------------------------------------------------------- data matrices
    def pmc_rate_matrix(
        self, freq_hz: float, events: Sequence[int] | None = None
    ) -> tuple[np.ndarray, list[int]]:
        """(workloads x events) matrix of HW PMC rates at one frequency.

        Events default to every PMC present in all measurements, sorted by
        event number.  Returns the matrix and the event-number column order.
        """
        runs = self.runs_at(freq_hz)
        if events is None:
            common: set[int] = set(runs[0].hw.pmc)
            for run in runs[1:]:
                common &= set(run.hw.pmc)
            events = sorted(common)
        events = list(events)
        matrix = np.array(
            [[run.hw.pmc[e] / run.hw_time for e in events] for run in runs]
        )
        return matrix, events

    def pmc_total_matrix(
        self, freq_hz: float, events: Sequence[int] | None = None
    ) -> tuple[np.ndarray, list[int]]:
        """(workloads x events) matrix of HW PMC totals at one frequency."""
        runs = self.runs_at(freq_hz)
        if events is None:
            common: set[int] = set(runs[0].hw.pmc)
            for run in runs[1:]:
                common &= set(run.hw.pmc)
            events = sorted(common)
        events = list(events)
        matrix = np.array([[run.hw.pmc[e] for e in events] for run in runs])
        return matrix, events

    def gem5_rate_matrix(
        self, freq_hz: float, stats: Sequence[str] | None = None
    ) -> tuple[np.ndarray, list[str]]:
        """(workloads x stats) matrix of gem5 statistic rates.

        Element for element equal to ``run.gem5.rate(stat)``: the raw stats
        are gathered once, and the columns that are not rate-like (by the
        catalog of the dataset's gem5 model) are divided by each run's
        ``sim_seconds`` in one array division.
        """
        runs = self.runs_at(freq_hz)
        if stats is None:
            stats = sorted(runs[0].gem5.stats)
        stats = list(stats)
        matrix = np.array(
            [[run.gem5.stats[s] for s in stats] for run in runs], dtype=float
        )
        if runs:
            catalog = runs[0].gem5.catalog
            counts = [not catalog.is_rate_like(s) for s in stats]
            seconds = np.array([run.gem5.sim_seconds for run in runs])
            matrix[:, counts] /= seconds[:, None]
        return matrix, stats


def collect_validation_dataset(
    platform: HardwarePlatform,
    gem5: Gem5Simulation,
    workloads: Iterable[WorkloadProfile],
    frequencies: Sequence[float] | None = None,
    with_power: bool = True,
    health: CollectionHealth | None = None,
) -> ValidationDataset:
    """Run Experiments 1 and 2 and collate them (Fig. 1 boxes a, b, f).

    Every missing (workload x machine) simulation of both arms goes to
    ``platform.executor`` up front, in one batch (see
    :func:`~repro.sim.executor.prime_engines`).  Share that executor with
    ``gem5``, so a model job that fails in the batch is retried through
    the same cache, retry policy and guards.  Frequencies only rescale a
    simulation's counts, so that one batch covers the whole sweep.

    Collection degrades gracefully: a (workload, frequency) point whose
    hardware or gem5 run fails with a :data:`RECOVERABLE_ERRORS` class
    (a permanently failed simulation job, board/filesystem I/O errors,
    timeouts) is recorded in the dataset's :class:`CollectionHealth` and
    skipped, so every surviving row — bit-identical to a fault-free run —
    is still analysed instead of the whole campaign aborting.

    Args:
        platform: The hardware reference platform.
        gem5: The gem5 model simulation to validate.
        workloads: Workload profiles to run on both.
        frequencies: DVFS sweep; defaults to the paper's per-cluster sweep.
        with_power: Also capture power on the hardware (needed later by the
            energy analysis; disable to speed up pure timing studies).
        health: Optional pre-existing :class:`CollectionHealth` to append
            to (so one record can span validation + power collection).

    Raises:
        ValueError: If the platform and model are different core types.
        RuntimeError: If *every* point failed — there is nothing to analyse.
    """
    if platform.core != gem5.machine.core:
        raise ValueError(
            f"platform core {platform.core} != gem5 model core {gem5.machine.core}"
        )
    workload_list = list(workloads)
    if not workload_list:
        raise ValueError("no workloads given")
    if frequencies is None:
        frequencies = experiment_frequencies(platform.core)
    frequencies = tuple(float(f) for f in frequencies)

    executor = platform.executor
    guard_seen = len(executor.guard.events)
    prime_engines(executor, (platform, gem5), workload_list)

    if health is None:
        health = CollectionHealth()
    runs: list[WorkloadRun] = []
    for profile in workload_list:
        for freq in frequencies:
            health.attempted += 1
            stage = "hardware"
            try:
                hw = platform.characterize(profile, freq, with_power=with_power)
                stage = "gem5"
                model = gem5.run(profile, freq)
            except RECOVERABLE_ERRORS as exc:
                health.record_failure(profile.name, freq, stage, exc)
            else:
                health.succeeded += 1
                health.power_samples_lost += hw.power_samples_lost
                runs.append(
                    WorkloadRun(
                        workload=profile.name,
                        suite=profile.suite,
                        threads=profile.threads,
                        freq_hz=freq,
                        hw=hw,
                        gem5=model,
                    )
                )

    health.absorb_guard_events(executor.guard.events[guard_seen:])
    if not runs:
        raise RuntimeError(
            f"validation collection failed completely ({health.summary()}); "
            f"first failure: {health.failures[0].workload} @ "
            f"{health.failures[0].freq_hz / 1e6:.0f} MHz "
            f"[{health.failures[0].stage}] {health.failures[0].error}"
        )
    return ValidationDataset(
        core=platform.core,
        gem5_model=gem5.machine.name,
        runs=runs,
        workloads=tuple(p.name for p in workload_list),
        frequencies=frequencies,
        health=health,
    )
