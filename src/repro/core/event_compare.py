"""Matched-event comparison between gem5 and the hardware (Fig. 6).

Section IV-E matches key gem5 events to their HW PMC equivalents via the
equations in :mod:`repro.events.matching` and normalises the gem5 totals by
the hardware totals: a value above 1 means gem5 over-counts the event.  The
comparison is reported for the mean of all workloads and per selected
workload cluster, since divergences are strongly workload dependent (ITLB
misses: 0.7x in one cluster, 0.01x in another).

The branch-predictor accuracy table (hardware ~96 % vs buggy model ~65 %,
with the most-predictable hardware workload becoming the least-predictable
model workload) is produced here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.error_id import WorkloadClusterAnalysis
from repro.core.validation import ValidationDataset
from repro.events.armv7_pmu import event_name
from repro.events.matching import default_event_matches


@dataclass(frozen=True)
class EventRatio:
    """gem5/HW ratio of one matched event.

    Attributes:
        pmu_event: Hardware event number.
        mean_ratio: Mean of per-workload ratios (bars of Fig. 6).
        cluster_ratios: Mean ratio per workload cluster.
        per_workload: Ratio for every workload.
        note: The matching caveat, if any.
    """

    pmu_event: int
    mean_ratio: float
    cluster_ratios: dict[int, float]
    per_workload: dict[str, float]
    note: str = ""

    @property
    def name(self) -> str:
        return event_name(self.pmu_event)


@dataclass(frozen=True)
class BpAccuracyRow:
    """Branch predictor accuracy of one workload on both machines."""

    workload: str
    cluster: int
    hw_accuracy: float
    gem5_accuracy: float


@dataclass(frozen=True)
class EventComparison:
    """The full Fig. 6 comparison plus the BP accuracy table."""

    freq_hz: float
    ratios: dict[int, EventRatio]
    bp_accuracy: list[BpAccuracyRow]
    excluded_cluster: int

    def ratio(self, pmu_event: int) -> float:
        """Mean gem5/HW ratio of one event.

        Raises:
            KeyError: If the event was not compared.
        """
        return self.ratios[pmu_event].mean_ratio

    def mean_bp_accuracy(self) -> tuple[float, float]:
        """(hardware, gem5) mean BP accuracy across workloads."""
        hw = float(np.mean([r.hw_accuracy for r in self.bp_accuracy]))
        gem5 = float(np.mean([r.gem5_accuracy for r in self.bp_accuracy]))
        return hw, gem5

    def extreme_bp_workload(self) -> BpAccuracyRow:
        """The workload with the lowest model BP accuracy — in the paper the
        same workload that has the *highest* hardware accuracy."""
        return min(self.bp_accuracy, key=lambda r: r.gem5_accuracy)


def _bp_accuracy(pmc: dict[int, float]) -> float:
    predicted = pmc.get(0x12, 0.0)
    mispredicted = pmc.get(0x10, 0.0)
    if predicted <= 0:
        return 1.0
    return max(0.0, 1.0 - mispredicted / predicted)


def _gem5_bp_accuracy(stats: dict[str, float]) -> float:
    predicted = stats.get("branchPred.condPredicted", 0.0)
    incorrect = stats.get("branchPred.condIncorrect", 0.0)
    if predicted <= 0:
        return 1.0
    return max(0.0, 1.0 - incorrect / predicted)


def compare_events(
    dataset: ValidationDataset,
    freq_hz: float,
    workload_clusters: WorkloadClusterAnalysis,
) -> EventComparison:
    """Normalise gem5 totals by their HW PMC equivalents (Fig. 6).

    Uses the paper's gem5<->PMC equations, breaks out every cluster, and
    excludes the pathological cluster from the mean bars, as Fig. 6 does
    ("the mean bars exclude Cluster 16").

    Args:
        dataset: Paired validation runs.
        freq_hz: Frequency to compare at.
        workload_clusters: Fig. 3 clustering (cluster ids label the bars).

    Raises:
        ValueError: If the clustering and dataset workloads disagree.
    """
    if tuple(workload_clusters.clusters.item_names) != tuple(dataset.workloads):
        raise ValueError("workload clustering does not match the dataset")

    runs = dataset.runs_at(freq_hz)
    labels = np.asarray(workload_clusters.clusters.labels)
    _, extreme_cluster, _ = workload_clusters.extreme_workload()
    report_clusters = sorted(set(labels.tolist()))

    ratios: dict[int, EventRatio] = {}
    for event, match in default_event_matches().items():
        per_workload: dict[str, float] = {}
        for run in runs:
            hw_total = run.hw.pmc.get(event)
            if hw_total is None or hw_total <= 0:
                continue
            try:
                gem5_total = match.evaluate(run.gem5.stats)
            except KeyError:
                continue
            per_workload[run.workload] = gem5_total / hw_total
        if not per_workload:
            continue

        values = np.array(
            [per_workload[w] for w in dataset.workloads if w in per_workload]
        )
        value_labels = np.array(
            [
                labels[list(dataset.workloads).index(w)]
                for w in dataset.workloads
                if w in per_workload
            ]
        )
        mean_mask = value_labels != extreme_cluster
        cluster_ratios = {
            c: float(values[value_labels == c].mean())
            for c in report_clusters
            if (value_labels == c).any()
        }
        ratios[event] = EventRatio(
            pmu_event=event,
            mean_ratio=float(values[mean_mask].mean()) if mean_mask.any() else float(values.mean()),
            cluster_ratios=cluster_ratios,
            per_workload=per_workload,
            note=match.note,
        )

    bp_rows = [
        BpAccuracyRow(
            workload=run.workload,
            cluster=int(labels[i]),
            hw_accuracy=_bp_accuracy(run.hw.pmc),
            gem5_accuracy=_gem5_bp_accuracy(run.gem5.stats),
        )
        for i, run in enumerate(runs)
    ]

    return EventComparison(
        freq_hz=freq_hz,
        ratios=ratios,
        bp_accuracy=bp_rows,
        excluded_cluster=extreme_cluster,
    )
