"""Identifying sources of error in the gem5 model (Section IV).

The methodology has four cooperating stages, none of which needs detailed
CPU specifications:

1. **Workload HCA + per-cluster MPE** (Fig. 3, Section IV): cluster the
   workloads on their HW PMC rate vectors; workloads in one cluster exhibit
   similar errors, and extreme workloads isolate into singleton clusters.
2. **HW PMC correlation analysis** (Fig. 5, Section IV-B): correlate every
   PMC's rate with the execution-time error, grouped by event HCA.
3. **gem5 event correlation analysis** (Section IV-C): the same against the
   model's own statistics; contrasting 2 and 3 separates *sources* of error
   from merely *correlated* symptoms.
4. **Stepwise regression** (Section IV-D): a compact regression model of the
   error from a handful of events, surfacing predictors (e.g. snoops,
   ``dtb.prefetch_faults``) that correlation alone under-ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stats.cluster import (
    ClusterResult,
    hierarchical_clustering,
    trivial_clustering,
)
from repro.core.stats.correlate import CorrelationResult, correlate_with_error
from repro.core.stats.stepwise import StepwiseResult, forward_stepwise
from repro.core.validation import ValidationDataset
from repro.events.armv7_pmu import event_name


@dataclass(frozen=True)
class WorkloadClusterAnalysis:
    """Fig. 3: workload clusters and their execution-time errors.

    Attributes:
        freq_hz: Frequency the errors are taken at.
        clusters: Workload HCA result (1-based cluster ids).
        errors: Per-workload signed time percentage error, workload order
            matching ``clusters.item_names``.
        degraded: Notes recorded when the clustering had to degrade —
            uncollected workloads missing from the matrix, or a trivial
            single-cluster fallback when fewer than two workloads survive.
    """

    freq_hz: float
    clusters: ClusterResult
    errors: np.ndarray
    degraded: tuple[str, ...] = ()

    def cluster_mpe(self) -> dict[int, float]:
        """Mean signed error per cluster (the numbers Fig. 3 annotates)."""
        result: dict[int, float] = {}
        labels = np.asarray(self.clusters.labels)
        for cluster in range(1, self.clusters.n_clusters + 1):
            mask = labels == cluster
            if mask.any():
                result[cluster] = float(self.errors[mask].mean())
        return result

    def cluster_mape(self) -> dict[int, float]:
        """Mean absolute error per cluster."""
        result: dict[int, float] = {}
        labels = np.asarray(self.clusters.labels)
        for cluster in range(1, self.clusters.n_clusters + 1):
            mask = labels == cluster
            if mask.any():
                result[cluster] = float(np.abs(self.errors[mask]).mean())
        return result

    def ordered_rows(self) -> list[tuple[str, int, float]]:
        """(workload, cluster, error) ordered by cluster then error —
        the ordering of the Fig. 3 bar chart."""
        rows = [
            (name, label, float(err))
            for name, label, err in zip(
                self.clusters.item_names, self.clusters.labels, self.errors
            )
        ]
        return sorted(rows, key=lambda r: (r[1], r[2]))

    def extreme_workload(self) -> tuple[str, int, float]:
        """The workload with the largest |error| and its cluster."""
        index = int(np.abs(self.errors).argmax())
        return (
            self.clusters.item_names[index],
            self.clusters.labels[index],
            float(self.errors[index]),
        )


def cluster_workloads(
    dataset: ValidationDataset,
    freq_hz: float,
    n_clusters: int = 16,
    events: list[int] | None = None,
) -> WorkloadClusterAnalysis:
    """Workload HCA on standardised HW PMC rates, annotated with errors.

    The paper cuts the dendrogram into 16 clusters for its 45 workloads;
    ``n_clusters`` is clamped to the workload count.  Degraded campaigns
    are tolerated: uncollected workloads are dropped (and noted), and with
    fewer than two survivors the result degrades to a trivial
    single-cluster :class:`~repro.core.stats.cluster.ClusterResult`
    instead of crashing the HCA.
    """
    names = [run.workload for run in dataset.runs_at(freq_hz)]
    notes: list[str] = []
    missing = [w for w in dataset.workloads if w not in set(names)]
    if missing:
        shown = ", ".join(missing[:5])
        if len(missing) > 5:
            shown += f" (+{len(missing) - 5} more)"
        notes.append(
            f"workload clustering at {freq_hz / 1e6:.0f} MHz is missing "
            f"{len(missing)} uncollected workload(s): {shown}"
        )
    if len(names) < 2:
        notes.append(
            f"only {len(names)} workload(s) survive at "
            f"{freq_hz / 1e6:.0f} MHz; clustering degraded to a trivial "
            "single-cluster result"
        )
        return WorkloadClusterAnalysis(
            freq_hz=freq_hz,
            clusters=trivial_clustering(names),
            errors=dataset.errors_at(freq_hz),
            degraded=tuple(notes),
        )
    rates, _ = dataset.pmc_rate_matrix(freq_hz, events)
    # Log-scale the rates: PMC rates span many decades and HCA on raw values
    # would be dominated by the largest counters.
    rates = np.log10(rates + 1.0)
    clusters = hierarchical_clustering(
        rates,
        names,
        n_clusters=min(n_clusters, len(names)),
        metric="euclidean",
    )
    return WorkloadClusterAnalysis(
        freq_hz=freq_hz,
        clusters=clusters,
        errors=dataset.errors_at(freq_hz),
        degraded=tuple(notes),
    )


def pmc_error_correlation(
    dataset: ValidationDataset,
    freq_hz: float,
    n_event_clusters: int = 28,
) -> CorrelationResult:
    """Fig. 5: correlation of each HW PMC rate with the time error.

    A positive correlation means workloads with a high rate of the event
    tend to have their execution time *underestimated* by the model.
    """
    rates, events = dataset.pmc_rate_matrix(freq_hz)
    errors = dataset.errors_at(freq_hz)
    names = [event_name(e) for e in events]
    return correlate_with_error(
        rates, errors, names, n_event_clusters=n_event_clusters
    )


def gem5_error_correlation(
    dataset: ValidationDataset,
    freq_hz: float,
    min_abs_correlation: float = 0.3,
    n_event_clusters: int = 14,
) -> CorrelationResult:
    """Section IV-C: gem5 statistic rates vs the time error.

    Only statistics with |r| above ``min_abs_correlation`` are kept (the
    paper extracts 94 events above 0.3 from the thousands emitted), then
    clustered with correlation distance; the largest strongly-negative
    cluster in the paper is the ITLB walker-cache group (Cluster A).
    """
    rates, stats = dataset.gem5_rate_matrix(freq_hz)
    errors = dataset.errors_at(freq_hz)
    # Drop degenerate columns before filtering on correlation.
    keep = rates.std(axis=0) > 0
    rates = rates[:, keep]
    stats = [s for s, k in zip(stats, keep) if k]
    return correlate_with_error(
        rates,
        errors,
        stats,
        n_event_clusters=n_event_clusters,
        min_abs_correlation=min_abs_correlation,
    )


@dataclass(frozen=True)
class ErrorRegression:
    """Section IV-D: stepwise regression of the time error on event data.

    Attributes:
        source: ``"hw"`` (PMC events) or ``"gem5"`` (model statistics).
        freq_hz: Frequency analysed.
        stepwise: The selection trace and final model.
    """

    source: str
    freq_hz: float
    stepwise: StepwiseResult

    @property
    def selected(self) -> tuple[str, ...]:
        return self.stepwise.selected

    @property
    def r2(self) -> float:
        return self.stepwise.model.r2

    @property
    def adjusted_r2(self) -> float:
        return self.stepwise.model.adjusted_r2

    @property
    def best_predictor(self) -> str:
        """The first event the selection picked (PC_WRITE_SPEC in the paper)."""
        return self.stepwise.selected[0]


def error_regression(
    dataset: ValidationDataset,
    freq_hz: float,
    source: str = "hw",
    max_terms: int = 10,
) -> ErrorRegression:
    """Regress the (hw - gem5) execution-time difference on event data.

    Both totals and rates are offered as candidates, as in the paper; the
    dependent variable is the raw time difference in seconds at one
    frequency (the paper uses 1 GHz).

    Raises:
        ValueError: For an unknown ``source``.
    """
    runs = dataset.runs_at(freq_hz)
    y = np.array([r.hw_time - r.gem5_time for r in runs])

    candidates: dict[str, np.ndarray] = {}
    if source == "hw":
        totals, events = dataset.pmc_total_matrix(freq_hz)
        rates, _ = dataset.pmc_rate_matrix(freq_hz, events)
        for j, event in enumerate(events):
            name = event_name(event)
            candidates[f"{name} (total)"] = totals[:, j]
            candidates[f"{name} (rate)"] = rates[:, j]
    elif source == "gem5":
        rates, stats = dataset.gem5_rate_matrix(freq_hz)
        totals = np.array(
            [[run.gem5.stats[s] for s in stats] for run in runs]
        )
        for j, stat in enumerate(stats):
            candidates[f"{stat} (total)"] = totals[:, j]
            candidates[f"{stat} (rate)"] = rates[:, j]
    else:
        raise ValueError(f"unknown source {source!r}; use 'hw' or 'gem5'")

    stepwise = forward_stepwise(
        candidates,
        y,
        max_terms=max_terms,
        p_value_limit=0.05,
        use_adjusted_r2=False,
    )
    return ErrorRegression(source=source, freq_hz=freq_hz, stepwise=stepwise)
