"""Unit tests for the crash-safe run layer (repro.core.runstate).

Covers manifest fingerprinting (what participates, what is excluded),
phase keys (exactly which description fields invalidate which phase),
checkpoint round trips, corruption and stale-key quarantine, inert
degradation on unusable directories, signal handling, and the shared
atomic-write helper.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import signal

import pytest

from repro.atomicio import atomic_write_bytes, atomic_write_text
from repro.core.pipeline import GemStoneConfig
from repro.core.runstate import PHASE_GRAPH, PHASES, RunManifest, RunState
from repro.obs.tracer import Tracer
from repro.workloads.suites import workload_by_name
from tests.core import quarantined_names


def _manifest(tag: str = "a") -> RunManifest:
    return RunManifest(fingerprint=f"fp-{tag}", description={"tag": tag})


class TestAtomicIo:
    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "artifact.txt"
        atomic_write_text(str(path), "hello")
        assert path.read_text() == "hello"

    def test_overwrite_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "artifact.bin"
        atomic_write_bytes(str(path), b"one")
        atomic_write_bytes(str(path), b"two")
        assert path.read_bytes() == b"two"
        assert os.listdir(tmp_path) == ["artifact.bin"]

    def test_failed_write_cleans_up_and_raises(self, tmp_path):
        missing = tmp_path / "nope" / "artifact.bin"
        with pytest.raises(OSError):
            atomic_write_bytes(str(missing), b"x")
        assert not missing.exists()


class TestRunManifest:
    def test_fingerprint_is_stable(self):
        config = GemStoneConfig(trace_instructions=9000)
        assert (
            RunManifest.from_config(config).fingerprint
            == RunManifest.from_config(config).fingerprint
        )

    def test_result_affecting_fields_change_the_fingerprint(self):
        base = RunManifest.from_config(GemStoneConfig(trace_instructions=9000))
        changed = RunManifest.from_config(
            GemStoneConfig(trace_instructions=9001)
        )
        assert base.fingerprint != changed.fingerprint

    def test_execution_knobs_are_excluded(self):
        base = RunManifest.from_config(GemStoneConfig(trace_instructions=9000))
        tweaked = RunManifest.from_config(
            GemStoneConfig(
                trace_instructions=9000,
                engine="scalar",
                guard_level="paranoid",
                cache_dir="/tmp/some-cache",
                checkpoint_dir="/tmp/some-ckpt",
            )
        )
        assert base.fingerprint == tweaked.fingerprint


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        directory = str(tmp_path / "run")
        writer = RunState(directory, _manifest())
        assert writer.checkpoint("dataset", {"answer": 42})
        reader = RunState(directory, _manifest())
        assert reader.restore("dataset") == {"answer": 42}
        assert reader.metrics.counter("core.runstate.restored").value == 1

    def test_missing_phase_restores_none(self, tmp_path):
        state = RunState(str(tmp_path / "run"), _manifest())
        assert state.restore("dvfs") is None
        assert state.metrics.counter("core.runstate.quarantined").value == 0

    def test_corrupt_checkpoint_is_quarantined(self, tmp_path):
        directory = str(tmp_path / "run")
        writer = RunState(directory, _manifest())
        writer.checkpoint("dataset", {"answer": 42})
        path = writer.checkpoint_path("dataset")
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        atomic_write_bytes(path, bytes(blob))
        reader = RunState(directory, _manifest())
        assert reader.restore("dataset") is None
        assert reader.metrics.counter("core.runstate.quarantined").value == 1
        assert not os.path.exists(path)
        assert quarantined_names(reader.quarantine_dir) == ["dataset.ckpt"]

    def test_checkpoint_of_another_phase_is_quarantined(self, tmp_path):
        directory = str(tmp_path / "run")
        writer = RunState(directory, _manifest())
        writer.checkpoint("dataset", 1)
        shutil.copy(writer.checkpoint_path("dataset"), writer.checkpoint_path("dvfs"))
        reader = RunState(directory, _manifest())
        assert reader.restore("dvfs") is None
        assert reader.restore("dataset") == 1
        assert quarantined_names(reader.quarantine_dir) == ["dvfs.ckpt"]

    def test_repeated_quarantines_of_one_phase_never_collide(self, tmp_path):
        directory = str(tmp_path / "run")
        writer = RunState(directory, _manifest())
        path = writer.checkpoint_path("dataset")
        corrupt = []
        for flip in (0x01, 0x02):
            writer.checkpoint("dataset", {"answer": 42})
            blob = bytearray(open(path, "rb").read())
            blob[-1] ^= flip
            atomic_write_bytes(path, bytes(blob))
            corrupt.append(bytes(blob))
            reader = RunState(directory, _manifest())
            assert reader.restore("dataset") is None
        kept = sorted(
            open(os.path.join(reader.quarantine_dir, name), "rb").read()
            for name in os.listdir(reader.quarantine_dir)
        )
        assert kept == sorted(corrupt)
        assert quarantined_names(reader.quarantine_dir) == [
            "dataset.ckpt", "dataset.ckpt",
        ]

    def test_truncated_checkpoint_is_quarantined(self, tmp_path):
        directory = str(tmp_path / "run")
        writer = RunState(directory, _manifest())
        writer.checkpoint("dataset", list(range(100)))
        path = writer.checkpoint_path("dataset")
        blob = open(path, "rb").read()
        atomic_write_bytes(path, blob[: len(blob) // 2])
        reader = RunState(directory, _manifest())
        assert reader.restore("dataset") is None
        assert reader.metrics.counter("core.runstate.quarantined").value == 1

    def test_completed_phases_are_in_pipeline_order(self, tmp_path):
        state = RunState(str(tmp_path / "run"), _manifest())
        state.checkpoint("dvfs", 1)
        state.checkpoint("dataset", 2)
        assert state.completed_phases() == ["dataset", "dvfs"]
        assert set(state.completed_phases()) <= set(PHASES)


class TestPhaseKeys:
    def test_unknown_phase_falls_back_to_the_fingerprint(self):
        manifest = _manifest()
        assert manifest.phase_key("not-a-phase") == manifest.fingerprint

    def test_bare_manifest_keeps_all_or_nothing_invalidation(self):
        # Hand-built manifests (no config description) keep the original
        # semantics: every phase key follows the fingerprint, so a
        # fingerprint change still invalidates every phase.
        a, b = _manifest("a"), _manifest("b")
        for phase in PHASES:
            assert a.phase_key(phase) != b.phase_key(phase)
        # Phases with description fields fall back to the fingerprint
        # itself; derived phases hash their parents' fallbacks.
        assert a.phase_key("dataset") == a.fingerprint

    def test_phase_keys_are_stable_and_ignore_execution_knobs(self):
        base = RunManifest.from_config(GemStoneConfig(trace_instructions=9000))
        again = RunManifest.from_config(
            GemStoneConfig(trace_instructions=9000, engine="scalar")
        )
        for phase in PHASES:
            assert base.phase_key(phase) == again.phase_key(phase)
            assert base.phase_key(phase) != base.fingerprint

    def test_a_field_invalidates_exactly_the_phases_that_consume_it(self):
        base = RunManifest.from_config(GemStoneConfig(trace_instructions=9000))

        def closure(phase: str) -> set[str]:
            parents, fields = PHASE_GRAPH[phase]
            return set(fields).union(*(closure(p) for p in parents))

        assert closure("report") == set(base.description)
        for field in base.description:
            edited = dict(base.description, **{field: ["edited", field]})
            changed = RunManifest(base.fingerprint, edited)
            for phase in PHASES:
                stale = base.phase_key(phase) != changed.phase_key(phase)
                assert stale == (field in closure(phase)), (field, phase)

    def test_clustering_change_invalidates_only_its_subgraph(self):
        base = RunManifest.from_config(GemStoneConfig(trace_instructions=9000))
        changed = RunManifest.from_config(
            GemStoneConfig(trace_instructions=9000, n_workload_clusters=3)
        )
        stale = {
            p for p in PHASES
            if base.phase_key(p) != changed.phase_key(p)
        }
        assert stale == {
            "workload-clusters", "event-comparison", "power-energy",
            "dvfs", "report",
        }

    def test_trace_length_change_invalidates_everything(self):
        base = RunManifest.from_config(GemStoneConfig(trace_instructions=9000))
        changed = RunManifest.from_config(
            GemStoneConfig(trace_instructions=9001)
        )
        for phase in PHASES:
            assert base.phase_key(phase) != changed.phase_key(phase)

    def test_execution_knobs_restore_the_same_checkpoints(self, tmp_path):
        directory = str(tmp_path / "run")
        writer = RunState(
            directory,
            RunManifest.from_config(GemStoneConfig(trace_instructions=9000)),
        )
        for phase in PHASES:
            writer.checkpoint(phase, phase)
        reader = RunState(
            directory,
            RunManifest.from_config(
                GemStoneConfig(
                    trace_instructions=9000,
                    engine="scalar",
                    cache_dir=str(tmp_path / "cache"),
                    checkpoint_dir=directory,
                )
            ),
        )
        assert [reader.restore(phase) for phase in PHASES] == list(PHASES)
        assert reader.metrics.counter("core.runstate.quarantined").value == 0

    def test_profile_edited_under_its_name_invalidates_the_dataset(
        self, tmp_path
    ):
        catalog = workload_by_name("mi-sha")
        edited = dataclasses.replace(catalog, ilp=1.0)
        base, changed = (
            RunManifest.from_config(
                GemStoneConfig(trace_instructions=9000, workloads=(profile,))
            )
            for profile in (catalog, edited)
        )
        assert base.fingerprint != changed.fingerprint
        assert base.phase_key("dataset") != changed.phase_key("dataset")
        assert base.phase_key("power-dataset") == changed.phase_key(
            "power-dataset"
        )
        directory = str(tmp_path / "run")
        RunState(directory, base).checkpoint("dataset", {"rows": 1})
        rerun = RunState(directory, changed)
        assert rerun.restore("dataset") is None

    def test_runstate_splices_shared_phases(self, tmp_path):
        directory = str(tmp_path / "run")
        old = RunState(
            directory,
            RunManifest.from_config(GemStoneConfig(trace_instructions=9000)),
        )
        old.checkpoint("dataset", {"rows": 1})
        old.checkpoint("workload-clusters", {"clusters": 2})
        fresh = RunState(
            directory,
            RunManifest.from_config(
                GemStoneConfig(trace_instructions=9000, n_workload_clusters=3)
            ),
        )
        assert fresh.restore("dataset") == {"rows": 1}
        assert fresh.restore("workload-clusters") is None
        quarantined = quarantined_names(fresh.quarantine_dir)
        assert quarantined == ["workload-clusters.ckpt"]
        assert len(quarantined) == fresh.metrics.counter("core.runstate.quarantined").value
        assert sorted(os.listdir(directory)) == ["dataset.ckpt", "quarantine"]


    def test_reverting_a_config_edit_recomputes_the_edited_subgraph(
        self, tmp_path
    ):
        # One directory holds one checkpoint per phase: the edited run
        # replaced the stale subgraph, so reverting the edit recomputes
        # that subgraph again while the shared phases keep restoring.
        directory = str(tmp_path / "run")
        base = RunManifest.from_config(GemStoneConfig(trace_instructions=9000))
        edited = RunManifest.from_config(
            GemStoneConfig(trace_instructions=9000, n_workload_clusters=3)
        )
        subgraph = [
            "workload-clusters", "event-comparison", "power-energy",
            "dvfs", "report",
        ]
        first = RunState(directory, base)
        for phase in PHASES:
            first.checkpoint(phase, ("base", phase))
        for manifest, tag in ((edited, "edited"), (base, "base")):
            state = RunState(directory, manifest)
            missing = [p for p in PHASES if state.restore(p) is None]
            assert missing == [p for p in PHASES if p in subgraph]
            for phase in missing:
                state.checkpoint(phase, (tag, phase))
            assert state.metrics.counter("core.runstate.restored").value == 7
            assert state.metrics.counter("core.runstate.quarantined").value == 5
        final = RunState(directory, base)
        assert [final.restore(p) for p in PHASES] == [
            ("base", p) for p in PHASES
        ]


class TestStaleDirectory:
    def test_checkpoint_of_another_configuration_is_quarantined(self, tmp_path):
        directory = str(tmp_path / "run")
        old = RunState(directory, _manifest("old"))
        old.checkpoint("dataset", 1)
        fresh = RunState(directory, _manifest("new"))
        assert fresh.restore("dataset") is None
        assert fresh.metrics.counter("core.runstate.restored").value == 0
        quarantined = quarantined_names(fresh.quarantine_dir)
        assert quarantined == ["dataset.ckpt"]
        assert len(quarantined) == fresh.metrics.counter("core.runstate.quarantined").value
        assert fresh.checkpoint("dataset", 2)
        assert RunState(directory, _manifest("new")).restore("dataset") == 2


    def test_mismatched_fingerprint_quarantines_everything(self, tmp_path):
        # Hand-built manifests key every phase by the fingerprint, so a
        # changed fingerprint leaves no checkpoint of the old run valid.
        directory = str(tmp_path / "run")
        old = RunState(directory, _manifest("old"))
        for phase in PHASES:
            old.checkpoint(phase, phase)
        fresh = RunState(directory, _manifest("new"))
        assert [fresh.restore(phase) for phase in PHASES] == [None] * len(PHASES)
        assert fresh.metrics.counter("core.runstate.restored").value == 0
        quarantined = quarantined_names(fresh.quarantine_dir)
        assert quarantined == sorted(f"{phase}.ckpt" for phase in PHASES)
        assert len(quarantined) == fresh.metrics.counter("core.runstate.quarantined").value
        assert os.listdir(directory) == ["quarantine"]


class TestDegradation:
    def test_unusable_directory_degrades_to_inert(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the directory should go")
        with pytest.warns(RuntimeWarning, match="continuing without"):
            state = RunState(str(blocker / "run"), _manifest())
        assert state.inert
        assert not state.checkpoint("dataset", 1)
        assert state.restore("dataset") is None


class TestInterruptible:
    def test_sigterm_exits_resumable(self, tmp_path):
        tracer = Tracer(enabled=True)
        state = RunState(str(tmp_path / "run"), _manifest(), tracer=tracer)
        with pytest.raises(SystemExit) as excinfo:
            with state.interruptible():
                os.kill(os.getpid(), signal.SIGTERM)
        assert excinfo.value.code == 128 + signal.SIGTERM
        record = tracer.records[-1]
        assert record["name"] == "interrupted"
        assert record["attrs"] == {"signal": int(signal.SIGTERM)}
        assert os.listdir(state.directory) == []

    def test_handlers_are_restored_on_exit(self, tmp_path):
        state = RunState(str(tmp_path / "run"), _manifest())
        before = signal.getsignal(signal.SIGTERM)
        with state.interruptible():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_inert_state_is_a_no_op(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        with pytest.warns(RuntimeWarning):
            state = RunState(str(blocker / "run"), _manifest())
        before = signal.getsignal(signal.SIGTERM)
        with state.interruptible():
            assert signal.getsignal(signal.SIGTERM) is before


def test_fault_plan_participates_in_the_fingerprint():
    from repro.sim.faults import FaultPlan

    base = RunManifest.from_config(GemStoneConfig(trace_instructions=9000))
    faulty = RunManifest.from_config(
        GemStoneConfig(
            trace_instructions=9000, faults=FaultPlan.crash_job(0)
        )
    )
    assert base.fingerprint != faulty.fingerprint
