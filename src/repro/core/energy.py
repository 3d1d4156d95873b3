"""Performance, power and energy evaluation (Section VI, Figs. 7 and 8).

The same empirical power model is applied to the hardware-collected PMC
rates and to the gem5-modelled event rates, and the two estimates compared
(the gem5 estimate is deliberately *not* compared to the sensor reading —
Section VI explains the sensors are unreliable for short runs and
temperature-dependent).  Energy multiplies each estimate by the respective
execution time, which is how a low power error coexists with a large energy
error when the performance model is wrong.

The DVFS analysis normalises performance, power and energy to a base OPP and
contrasts hardware and model scaling (Fig. 8): the paper finds the mean
speedup well modelled but the workload *diversity* of scaling compressed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.error_id import WorkloadClusterAnalysis
from repro.core.power_model import PowerEstimate, PowerModelApplication
from repro.core.stats.metrics import mape, mpe
from repro.core.validation import ValidationDataset


@dataclass(frozen=True)
class PowerEnergyRow:
    """Power/energy estimates for one workload at one OPP, both sources."""

    workload: str
    cluster: int
    freq_hz: float
    hw_power_w: float
    gem5_power_w: float
    hw_energy_j: float
    gem5_energy_j: float
    hw_components: dict[str, float]
    gem5_components: dict[str, float]

    @property
    def power_ape(self) -> float:
        return abs((self.hw_power_w - self.gem5_power_w) / self.hw_power_w) * 100.0

    @property
    def energy_ape(self) -> float:
        return abs((self.hw_energy_j - self.gem5_energy_j) / self.hw_energy_j) * 100.0


@dataclass
class PowerEnergyComparison:
    """Fig. 7: per-cluster power and energy error of the gem5 estimates."""

    core: str
    rows: list[PowerEnergyRow]

    def _pairs(self, attr_hw: str, attr_gem5: str) -> tuple[np.ndarray, np.ndarray]:
        hw = np.array([getattr(r, attr_hw) for r in self.rows])
        gem5 = np.array([getattr(r, attr_gem5) for r in self.rows])
        return hw, gem5

    def power_mpe(self) -> float:
        return mpe(*self._pairs("hw_power_w", "gem5_power_w"))

    def power_mape(self) -> float:
        return mape(*self._pairs("hw_power_w", "gem5_power_w"))

    def energy_mpe(self) -> float:
        return mpe(*self._pairs("hw_energy_j", "gem5_energy_j"))

    def energy_mape(self) -> float:
        return mape(*self._pairs("hw_energy_j", "gem5_energy_j"))

    def cluster_table(self) -> dict[int, dict[str, float]]:
        """Per-cluster power/energy MAPE and sizes (Fig. 7 annotations)."""
        table: dict[int, dict[str, float]] = {}
        clusters = sorted({r.cluster for r in self.rows})
        for cluster in clusters:
            rows = [r for r in self.rows if r.cluster == cluster]
            table[cluster] = {
                "n_workloads": float(len({r.workload for r in rows})),
                "power_mape": float(np.mean([r.power_ape for r in rows])),
                "energy_mape": float(np.mean([r.energy_ape for r in rows])),
            }
        return table

    def mean_components(self, source: str, cluster: int | None = None) -> dict[str, float]:
        """Mean per-component watts (the Fig. 7 stacked bars).

        Args:
            source: ``"hw"`` or ``"gem5"``.
            cluster: Restrict to one workload cluster (None = all).

        Raises:
            ValueError: For an unknown source.
        """
        if source == "hw":
            extract = lambda r: r.hw_components  # noqa: E731
        elif source == "gem5":
            extract = lambda r: r.gem5_components  # noqa: E731
        else:
            raise ValueError(f"unknown source {source!r}")
        rows = [r for r in self.rows if cluster is None or r.cluster == cluster]
        if not rows:
            raise ValueError(f"no rows for cluster {cluster}")
        keys = extract(rows[0]).keys()
        return {
            key: float(np.mean([extract(r)[key] for r in rows])) for key in keys
        }


def compare_power_energy(
    dataset: ValidationDataset,
    application: PowerModelApplication,
    workload_clusters: WorkloadClusterAnalysis,
    frequencies: list[float] | None = None,
) -> PowerEnergyComparison:
    """Apply one power model to both data sources and compare (Fig. 7)."""
    if frequencies is None:
        frequencies = list(dataset.frequencies)
    labels = {
        name: label
        for name, label in zip(
            workload_clusters.clusters.item_names, workload_clusters.clusters.labels
        )
    }
    rows: list[PowerEnergyRow] = []
    for freq in frequencies:
        for run in dataset.runs_at(freq):
            hw_est: PowerEstimate = application.apply_to_hw(run.hw)
            gem5_est: PowerEstimate = application.apply_to_gem5(run.gem5)
            rows.append(
                PowerEnergyRow(
                    workload=run.workload,
                    cluster=labels.get(run.workload, 0),
                    freq_hz=freq,
                    hw_power_w=hw_est.power_w,
                    gem5_power_w=gem5_est.power_w,
                    hw_energy_j=hw_est.power_w * run.hw_time,
                    gem5_energy_j=gem5_est.power_w * run.gem5_time,
                    hw_components=hw_est.components,
                    gem5_components=gem5_est.components,
                )
            )
    return PowerEnergyComparison(core=dataset.core, rows=rows)


@dataclass(frozen=True)
class ScalingRow:
    """Performance/power/energy of one workload at one OPP relative to the
    base OPP, for both the hardware and the model."""

    workload: str
    cluster: int
    freq_hz: float
    hw_speedup: float
    gem5_speedup: float
    hw_power_ratio: float
    gem5_power_ratio: float
    hw_energy_ratio: float
    gem5_energy_ratio: float


@dataclass
class DvfsScaling:
    """Fig. 8: scaling normalised to the lowest frequency."""

    core: str
    base_freq_hz: float
    rows: list[ScalingRow]

    def at(self, freq_hz: float) -> list[ScalingRow]:
        return [r for r in self.rows if r.freq_hz == freq_hz]

    def speedup_stats(self, freq_hz: float, source: str) -> dict[str, float]:
        """Mean/min/max speedup at one OPP plus the extreme clusters.

        Raises:
            ValueError: For an unknown source or missing frequency.
        """
        rows = self.at(freq_hz)
        if not rows:
            raise ValueError(f"no scaling rows at {freq_hz / 1e6:.0f} MHz")
        if source == "hw":
            values = np.array([r.hw_speedup for r in rows])
        elif source == "gem5":
            values = np.array([r.gem5_speedup for r in rows])
        else:
            raise ValueError(f"unknown source {source!r}")
        return {
            "mean": float(values.mean()),
            "min": float(values.min()),
            "max": float(values.max()),
            "min_cluster": float(rows[int(values.argmin())].cluster),
            "max_cluster": float(rows[int(values.argmax())].cluster),
        }

    def energy_stats(self, freq_hz: float, source: str) -> dict[str, float]:
        """Mean/min/max energy ratio at one OPP."""
        rows = self.at(freq_hz)
        if not rows:
            raise ValueError(f"no scaling rows at {freq_hz / 1e6:.0f} MHz")
        if source == "hw":
            values = np.array([r.hw_energy_ratio for r in rows])
        elif source == "gem5":
            values = np.array([r.gem5_energy_ratio for r in rows])
        else:
            raise ValueError(f"unknown source {source!r}")
        return {
            "mean": float(values.mean()),
            "min": float(values.min()),
            "max": float(values.max()),
        }


def dvfs_scaling(
    dataset: ValidationDataset,
    application: PowerModelApplication,
    workload_clusters: WorkloadClusterAnalysis,
    base_freq_hz: float | None = None,
) -> DvfsScaling:
    """Compute Fig. 8 scaling rows for every workload and OPP.

    Performance is 1/time, power is the model estimate on each source, and
    energy is their quotient; all normalised to the base (lowest) OPP.
    """
    if base_freq_hz is None:
        base_freq_hz = min(dataset.frequencies)
    labels = {
        name: label
        for name, label in zip(
            workload_clusters.clusters.item_names, workload_clusters.clusters.labels
        )
    }
    # Model power per (run, source), evaluated once; every OPP's rows look
    # the base OPP's values up.
    power = {
        (run.workload, freq): (
            application.apply_to_hw(run.hw).power_w,
            application.apply_to_gem5(run.gem5).power_w,
        )
        for freq in dataset.frequencies
        for run in dataset.runs_at(freq)
    }
    base_runs = {r.workload: r for r in dataset.runs_at(base_freq_hz)}
    rows: list[ScalingRow] = []
    for freq in dataset.frequencies:
        for run in dataset.runs_at(freq):
            base = base_runs[run.workload]
            hw_power, gem5_power = power[(run.workload, freq)]
            hw_power_base, gem5_power_base = power[(base.workload, base_freq_hz)]
            hw_speedup = base.hw_time / run.hw_time
            gem5_speedup = base.gem5_time / run.gem5_time
            hw_energy_ratio = (hw_power * run.hw_time) / (
                hw_power_base * base.hw_time
            )
            gem5_energy_ratio = (gem5_power * run.gem5_time) / (
                gem5_power_base * base.gem5_time
            )
            rows.append(
                ScalingRow(
                    workload=run.workload,
                    cluster=labels.get(run.workload, 0),
                    freq_hz=freq,
                    hw_speedup=hw_speedup,
                    gem5_speedup=gem5_speedup,
                    hw_power_ratio=hw_power / hw_power_base,
                    gem5_power_ratio=gem5_power / gem5_power_base,
                    hw_energy_ratio=hw_energy_ratio,
                    gem5_energy_ratio=gem5_energy_ratio,
                )
            )
    return DvfsScaling(core=dataset.core, base_freq_hz=base_freq_hz, rows=rows)


@dataclass(frozen=True)
class BigLittleComparison:
    """Cross-cluster (A15 vs A7) relative performance, HW vs model.

    ``relative_performance[source][freq]`` is the mean A15 speedup over the
    A7 base OPP; the paper's key observation is that the modelled A15
    performance is *lower* relative to the A7 than measured on hardware.
    """

    a7_base_freq_hz: float
    relative_performance: dict[str, dict[float, float]]

    def a15_deficit(self) -> float:
        """Mean (hw - model) A15 relative performance across OPPs; positive
        when the model under-rates the A15 relative to hardware."""
        hw = self.relative_performance["hw"]
        model = self.relative_performance["gem5"]
        return float(np.mean([hw[f] - model[f] for f in hw]))


def big_little_scaling(
    dataset_a7: ValidationDataset,
    dataset_a15: ValidationDataset,
) -> BigLittleComparison:
    """Relative A15 performance over the A7 base OPP, HW vs model.

    Raises:
        ValueError: If the two datasets cover different workloads.
    """
    if dataset_a7.workloads != dataset_a15.workloads:
        raise ValueError("A7 and A15 datasets cover different workloads")
    base_freq = min(dataset_a7.frequencies)
    base = {r.workload: r for r in dataset_a7.runs_at(base_freq)}
    relative: dict[str, dict[float, float]] = {"hw": {}, "gem5": {}}
    for freq in dataset_a15.frequencies:
        hw_ratios = []
        gem5_ratios = []
        for run in dataset_a15.runs_at(freq):
            ref = base[run.workload]
            hw_ratios.append(ref.hw_time / run.hw_time)
            gem5_ratios.append(ref.gem5_time / run.gem5_time)
        relative["hw"][freq] = float(np.mean(hw_ratios))
        relative["gem5"][freq] = float(np.mean(gem5_ratios))
    return BigLittleComparison(
        a7_base_freq_hz=base_freq, relative_performance=relative
    )
