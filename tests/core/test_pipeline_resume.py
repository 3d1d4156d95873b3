"""Chaos suite: kill the pipeline after each phase, rerun, compare bytes.

Each scenario runs a small checkpointed GemStone evaluation, abandons it
after phase *k* (exactly what a ``kill -9`` at that point leaves on disk:
the first ``k+1`` phase checkpoints, atomically written), then reruns the
same config on the same directory in a fresh facade — no flag asks it to
resume — and asserts the final report is byte-identical to the
uninterrupted reference, with every finished phase restored, not redone.

A shared simulation cache keeps the scenarios fast: the simulation layer's
own crash-safety is covered by ``tests/sim/test_faults.py``; what this
suite exercises is the *analysis* checkpoint layer above it.
"""

from __future__ import annotations

import os

import pytest

from repro.core.pipeline import GemStone, GemStoneConfig
from repro.core.runstate import PHASES
from repro.workloads.suites import workload_by_name
from tests.core import quarantined_names

pytestmark = pytest.mark.chaos

N_INSTRS = 8_000
FREQS = (600e6, 1000e6)
WORKLOADS = (
    "mi-bitcount", "mi-qsort", "mi-sha", "dhrystone", "whetstone", "mi-fft",
)

#: (phase name, accessor that forces it) in canonical pipeline order.
ACCESSORS = (
    ("dataset", lambda gs: gs.dataset),
    ("power-dataset", lambda gs: gs.power_dataset),
    ("workload-clusters", lambda gs: gs.workload_clusters),
    ("pmc-correlation", lambda gs: gs.pmc_correlation),
    ("gem5-correlation", lambda gs: gs.gem5_correlation),
    ("regression-hw", lambda gs: gs.regression("hw")),
    ("regression-gem5", lambda gs: gs.regression("gem5")),
    ("event-comparison", lambda gs: gs.event_comparison),
    ("power-model", lambda gs: gs.power_model),
    ("power-energy", lambda gs: gs.power_energy),
    ("dvfs", lambda gs: gs.dvfs),
)


@pytest.fixture(scope="module")
def sim_cache_dir(tmp_path_factory):
    """One on-disk simulation cache shared by every scenario."""
    return str(tmp_path_factory.mktemp("sim-cache"))


def _config(sim_cache_dir, checkpoint_dir, **overrides):
    profiles = tuple(workload_by_name(name) for name in WORKLOADS)
    defaults = dict(
        core="A15",
        workloads=profiles,
        power_workloads=profiles,
        frequencies=FREQS,
        trace_instructions=N_INSTRS,
        n_workload_clusters=4,
        power_model_terms=4,
        cache_dir=sim_cache_dir,
        checkpoint_dir=checkpoint_dir,
    )
    defaults.update(overrides)
    return GemStoneConfig(**defaults)


@pytest.fixture(scope="module")
def reference_report(sim_cache_dir, tmp_path_factory):
    """The uninterrupted checkpointed run every scenario must reproduce."""
    directory = str(tmp_path_factory.mktemp("reference-ckpt"))
    gs = GemStone(_config(sim_cache_dir, directory))
    report = gs.report()
    assert gs.runstate.completed_phases() == list(PHASES)
    return report


@pytest.mark.parametrize(
    "kill_after", range(len(ACCESSORS)),
    ids=[name for name, _ in ACCESSORS],
)
def test_killed_after_each_phase_resumes_byte_identically(
    kill_after, sim_cache_dir, tmp_path, reference_report
):
    directory = str(tmp_path / "ckpt")

    # First run: complete phases 0..kill_after, then die (abandonment is
    # exactly what SIGKILL leaves behind — checkpoints land atomically at
    # phase completion, so there is no cleanup path to miss).
    victim = GemStone(_config(sim_cache_dir, directory))
    for _, accessor in ACCESSORS[: kill_after + 1]:
        accessor(victim)
    on_disk = victim.runstate.completed_phases()
    assert on_disk == [name for name, _ in ACCESSORS[: kill_after + 1]]
    del victim

    # Rerun: finished phases restore, the rest compute, bytes match.
    resumed = GemStone(_config(sim_cache_dir, directory))
    assert resumed.report() == reference_report
    assert resumed.runstate.metrics.counter("core.runstate.restored").value == kill_after + 1
    assert resumed.runstate.metrics.counter("core.runstate.quarantined").value == 0
    assert resumed.runstate.completed_phases() == list(PHASES)


def test_fully_completed_run_resumes_from_the_report_checkpoint(
    sim_cache_dir, tmp_path, reference_report
):
    directory = str(tmp_path / "ckpt")
    GemStone(_config(sim_cache_dir, directory)).report()

    resumed = GemStone(_config(sim_cache_dir, directory))
    assert resumed.report() == reference_report
    # The report itself is a checkpointed phase: nothing is recomputed.
    assert resumed.runstate.metrics.counter("core.runstate.restored").value == 1
    assert resumed.runstate.metrics.counter("core.runstate.checkpointed").value == 0


def test_rerun_on_a_finished_directory_logs_the_report_restore(
    sim_cache_dir, tmp_path, reference_report, caplog
):
    """A whole-report restore is counted and logged like any phase's."""
    directory = str(tmp_path / "ckpt")
    GemStone(_config(sim_cache_dir, directory)).report()

    resumed = GemStone(_config(sim_cache_dir, directory))
    with caplog.at_level("INFO", logger="repro.core.pipeline"):
        assert resumed.report() == reference_report
    assert [
        (record.levelname, record.getMessage())
        for record in caplog.records
        if record.name == "repro.core.pipeline"
    ] == [("INFO", "phase report: restored from checkpoint")]
    assert resumed.metrics.counter("pipeline.phases_restored").value == 1


def test_mismatched_config_splices_the_shared_subgraph(
    sim_cache_dir, tmp_path, reference_report
):
    directory = str(tmp_path / "ckpt")
    GemStone(_config(sim_cache_dir, directory)).report()

    # Same directory, different clustering: the fingerprint changes, but
    # only the phase keys downstream of ``n_workload_clusters`` do.  The
    # rest restore instead of the whole run being recomputed.
    changed = GemStone(
        _config(sim_cache_dir, directory, n_workload_clusters=3)
    )
    report = changed.report()
    assert report != reference_report  # a different experiment, honestly run
    # Exactly the invalidated subgraph recomputed; everything whose
    # phase key survived the config change restored from its checkpoint.
    assert changed.runstate.metrics.counter("core.runstate.restored").value == 7
    assert changed.runstate.metrics.counter("core.runstate.checkpointed").value == 5
    assert changed.runstate.completed_phases() == list(PHASES)
    quarantined = quarantined_names(changed.runstate.quarantine_dir)
    assert quarantined == [
        "dvfs.ckpt", "event-comparison.ckpt", "power-energy.ckpt",
        "report.ckpt", "workload-clusters.ckpt",
    ]
    assert len(quarantined) == changed.runstate.metrics.counter("core.runstate.quarantined").value
    assert sorted(os.listdir(directory)) == sorted(
        [f"{phase}.ckpt" for phase in PHASES] + ["quarantine"]
    )


def test_rerun_trace_tells_the_whole_story(
    sim_cache_dir, tmp_path, reference_report
):
    directory = str(tmp_path / "ckpt")
    victim = GemStone(_config(sim_cache_dir, directory))
    victim.dataset
    victim.workload_clusters
    del victim

    rerun = GemStone(_config(sim_cache_dir, directory, trace=True))
    assert rerun.report() == reference_report
    events = [r for r in rerun.tracer.records if r.get("kind") == "event"]
    restored = [r["attrs"]["phase"] for r in events if r["name"] == "restored"]
    checkpointed = [
        r["attrs"]["phase"] for r in events if r["name"] == "checkpointed"
    ]
    assert restored == ["dataset", "workload-clusters"]
    assert sorted(checkpointed) == sorted(
        p for p in PHASES if p not in restored
    )
    assert checkpointed[-1] == "report"
    assert not [r for r in events if r["name"] == "runstate-quarantined"]
