#!/usr/bin/env python
"""Validating a simulator change, Section VII style.

The motivating scenario of the paper: gem5 is continuously developed, and a
researcher sees very different results depending on which version they
download.  GemStone re-runs the identical hardware-validated evaluation
against each simulator version and quantifies the difference.

Here the "change" is the branch-predictor bug fix: the pre-fix ``ex5_big``
model vs the post-fix variant.  The paper measures the execution-time MPE
swinging from -51 % to +10 % and the energy MAPE improving from 50 % to
18 % — this script regenerates both rows, plus the per-component cycle
breakdown that explains them.

Run:  python examples/validate_simulator_change.py
"""

from repro import GemStone, GemStoneConfig
from repro.core.energy import compare_power_energy
from repro.core.report import text_table
from repro.workloads.suites import validation_workloads

workloads = tuple(validation_workloads()[::3])
config = GemStoneConfig(
    core="A15",
    workloads=workloads,
    power_workloads=workloads,
    trace_instructions=20_000,
    n_workload_clusters=8,
)

before = GemStone(config)                              # pre-fix ex5_big
after = before.with_machine("gem5-ex5-big-fixed")      # post-fix

freq = config.analysis_freq_hz
rows = []
for label, gemstone in (("pre-fix", before), ("post-fix", after)):
    dataset = gemstone.dataset
    # The same power model (built once on hardware data) is applied to both
    # simulator versions — only the performance model changed.
    energy = compare_power_energy(
        dataset, before.application, before.workload_clusters
    )
    rows.append(
        [
            label,
            dataset.gem5_model,
            f"{dataset.time_mape(freq):.1f}%",
            f"{dataset.time_mpe(freq):+.1f}%",
            f"{energy.energy_mape():.1f}%",
        ]
    )

print(
    text_table(
        ["version", "machine", "time MAPE", "time MPE", "energy MAPE"],
        rows,
        title="Section VII: the branch-predictor fix, as GemStone sees it",
    )
)
print()
print("Paper: MPE swings -51% -> +10%; energy MAPE improves 50% -> 18%.")
print()

# Where did the cycles go?  Compare the mean simulated cycle breakdown of
# one pathological workload on both versions.
from repro.workloads.suites import workload_by_name

profile = workload_by_name("par-basicmath-rad2deg")
breakdown_rows = []
for label, gemstone in (("pre-fix", before), ("post-fix", after)):
    result = gemstone.executor.run(gemstone.gem5.job_for(profile))
    total = sum(result.components.values())
    breakdown_rows.append(
        [label]
        + [f"{result.components[k] / total:.1%}"
           for k in ("base", "branch", "itlb", "icache", "dcache")]
    )
print(
    text_table(
        ["version", "base", "branch", "itlb", "icache", "dcache"],
        breakdown_rows,
        title="Cycle breakdown of par-basicmath-rad2deg on the model",
    )
)
print("\nThe pre-fix model burns most of its cycles on mispredict recovery")
print("and the wrong-path ITLB traffic it causes — the paper's Cluster A.")
