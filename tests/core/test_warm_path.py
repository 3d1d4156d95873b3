"""The warm report computes each product once.

A rerun on a filled result cache replays nothing, so its time is the
program's own work.  These tests pin how often that work is done, on a
small config whose validation workloads are a subset of its power
workloads, as the paper's 45 are of its 65: each (workload, OPP) point
is characterised once, each machine fingerprint and recipe digest is
hashed once, the gem5 rate matrix makes no per-element ``rate()`` call,
the DVFS analysis evaluates the power model twice per run, and the
compiled replay kernel is neither built nor loaded.

The counts come from spies installed by the tests, not from registry
counters, so the pinned counter sets of ``tests/obs`` stay as they are.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.core.pipeline as pipeline_mod
import repro.sim.kernel as kernel_mod
import repro.sim.result_cache as result_cache_mod
import repro.workloads.trace as trace_mod
from repro.core.pipeline import GemStone, GemStoneConfig
from repro.core.power_model import PowerModel
from repro.core.validation import ValidationDataset
from repro.sim.faults import FaultPlan
from repro.sim.gem5 import Gem5Stats
from repro.sim.machine import MachineConfig
from repro.sim.platform import HardwarePlatform
from repro.workloads.profile import WorkloadProfile
from repro.workloads.suites import workload_by_name

from tests.conftest import SMALL_FREQS

VALIDATION = ("mi-sha", "mi-qsort", "dhrystone")
POWER = VALIDATION + ("whetstone", "mi-fft")

#: ``health.power_samples_lost`` of the drop-power run below, the count an
#: unmemoised platform gives: the validation and power campaigns each
#: count the samples lost at the points they share.
DROP_POWER_SAMPLES_LOST = 448


def _config(directory, **overrides) -> GemStoneConfig:
    settings = dict(
        core="A15",
        workloads=tuple(workload_by_name(name) for name in VALIDATION),
        power_workloads=tuple(workload_by_name(name) for name in POWER),
        frequencies=SMALL_FREQS,
        trace_instructions=4_000,
        cache_dir=str(directory / "cache"),
        checkpoint_dir=str(directory / "ckpt"),
    )
    settings.update(overrides)
    return GemStoneConfig(**settings)


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A directory whose result cache holds every job of the config."""
    directory = tmp_path_factory.mktemp("warm")
    GemStone(_config(directory, checkpoint_dir=None)).report()
    return directory


def _warm(filled, tmp_path) -> GemStone:
    """A run on the filled cache, checkpointed into its own directory so
    that it restores no phase another test computed."""
    return GemStone(_config(filled, checkpoint_dir=str(tmp_path / "ckpt")))


def _spy(monkeypatch, owner, name, calls: list, record=lambda *a: a):
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(record(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def test_each_point_is_characterised_once(filled, tmp_path, monkeypatch):
    calls: list = []
    _spy(
        monkeypatch, HardwarePlatform, "_characterize", calls,
        record=lambda self, profile, freq, with_power: (profile, freq, with_power),
    )
    gemstone = _warm(filled, tmp_path)
    gemstone.report()

    assert gemstone.executor.telemetry.jobs_run == 0
    assert len(calls) == len(set(calls)) == len(POWER) * len(SMALL_FREQS)


def test_warm_report_never_touches_the_kernel(filled, tmp_path, monkeypatch):
    # As if no replay had run in this process: a replay would load it.
    monkeypatch.setattr(kernel_mod, "_KERNEL", None)
    loads: list = []
    builds: list = []
    _spy(monkeypatch, kernel_mod, "_load", loads)
    _spy(monkeypatch, kernel_mod, "_build", builds)
    gemstone = _warm(filled, tmp_path)
    gemstone.report()

    assert gemstone.executor.telemetry.jobs_run == 0
    assert loads == [] and builds == []


def test_warm_report_traffic(filled, tmp_path, monkeypatch):
    # Empty the identity memos, so this run hashes every identity itself.
    monkeypatch.setattr(result_cache_mod, "_FINGERPRINTS", {})
    monkeypatch.setattr(trace_mod, "_RECIPE_DIGESTS", {})
    walked: list = []
    _spy(monkeypatch, dataclasses, "asdict", walked, record=type)
    rates: list = []
    _spy(monkeypatch, Gem5Stats, "rate", rates)
    matrices: list = []
    _spy(monkeypatch, ValidationDataset, "gem5_rate_matrix", matrices)

    # Power-model evaluations made inside dvfs_scaling.
    evaluations: list = []
    in_dvfs = []
    real_predict = PowerModel.predict_components
    real_dvfs = pipeline_mod.dvfs_scaling

    def predict_components(self, rates, freq_hz):
        if in_dvfs:
            evaluations.append(freq_hz)
        return real_predict(self, rates, freq_hz)

    def dvfs_scaling(*args, **kwargs):
        in_dvfs.append(True)
        try:
            return real_dvfs(*args, **kwargs)
        finally:
            in_dvfs.pop()

    monkeypatch.setattr(PowerModel, "predict_components", predict_components)
    monkeypatch.setattr(pipeline_mod, "dvfs_scaling", dvfs_scaling)

    gemstone = _warm(filled, tmp_path)
    gemstone.report()

    assert gemstone.executor.telemetry.jobs_run == 0
    # hw-a15 and gem5-ex5-big; one recipe per distinct workload profile.
    assert walked.count(MachineConfig) == 2
    assert walked.count(WorkloadProfile) == len(POWER)
    assert matrices and rates == []
    assert len(evaluations) == 2 * len(gemstone.dataset.runs)


def test_power_sample_loss_keeps_its_count(tmp_path):
    gemstone = GemStone(
        _config(tmp_path, faults=FaultPlan.drop_power(fraction=0.25))
    )
    gemstone.report()
    assert gemstone.health.failed == 0
    assert gemstone.health.power_samples_lost == DROP_POWER_SAMPLES_LOST
