"""Chaos suite: columnar faults against guarded campaigns.

Every scenario asserts the guard layer's core promise: whatever columnar
fault is injected — corrupt decoded columns, poisoned warm-row memos, NaNs
leaking out of a vectorized pass — the campaign's numbers stay *bit-identical*
to an all-scalar fault-free run, and every intervention is recorded as a
:class:`~repro.sim.guard.GuardEvent` in :class:`CollectionHealth` and the
report, never silently absorbed.

Runs in the default ``make test`` path; ``make test-chaos`` selects it.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import GemStone, GemStoneConfig
from repro.core.report import render_collection_health
from repro.sim.executor import RetryPolicy
from repro.sim.faults import FaultPlan
from repro.workloads.suites import workload_by_name

from tests.conftest import SMALL_FREQS, TRACE_INSTRUCTIONS

pytestmark = pytest.mark.chaos

WORKLOADS = ("mi-sha", "mi-qsort", "dhrystone")
TARGET = "mi-sha"

NO_BACKOFF = RetryPolicy(max_attempts=2, base_seconds=0.0)

#: (fault plan constructor, guard event kind the campaign must record).
COLUMNAR_SCENARIOS = (
    ("corrupt-column", FaultPlan.corrupt_column, "decode-corrupt"),
    ("poison-memo", FaultPlan.poison_memo, "divergence"),
    ("nan-pass", FaultPlan.nan_pass, "nan-result"),
)


def _profiles():
    return tuple(workload_by_name(name) for name in WORKLOADS)


def _gemstone(faults=None, guard_level="paranoid", engine="columnar", **overrides):
    defaults = dict(
        core="A15",
        workloads=_profiles(),
        power_workloads=_profiles(),
        frequencies=SMALL_FREQS,
        trace_instructions=TRACE_INSTRUCTIONS,
        retry=NO_BACKOFF,
        faults=faults,
        engine=engine,
        guard_level=guard_level,
    )
    defaults.update(overrides)
    return GemStone(GemStoneConfig(**defaults))


@pytest.fixture(scope="module")
def reference():
    """The all-scalar, guard-off dataset every scenario must reproduce."""
    return _gemstone(engine="scalar", guard_level="off").dataset


def _assert_rows_bit_identical(dataset, reference):
    assert [
        (r.workload, r.freq_hz) for r in dataset.runs
    ] == [(r.workload, r.freq_hz) for r in reference.runs]
    for run in dataset.runs:
        ref = reference.run(run.workload, run.freq_hz)
        assert run.hw_time == ref.hw_time
        assert run.hw.pmc == ref.hw.pmc
        assert run.gem5_time == ref.gem5_time
        assert run.gem5.stats == ref.gem5.stats


class TestColumnarFaultHealing:
    @pytest.mark.parametrize(
        "constructor, kind",
        [(c, k) for _, c, k in COLUMNAR_SCENARIOS],
        ids=[name for name, _, _ in COLUMNAR_SCENARIOS],
    )
    def test_campaign_bit_identical_with_fault_recorded(
        self, constructor, kind, reference
    ):
        gs = _gemstone(faults=constructor(TARGET))
        dataset = gs.dataset
        _assert_rows_bit_identical(dataset, reference)
        # Nothing failed — the guard healed in place...
        assert dataset.health.failed == 0
        # ...and left a structured record of every intervention.
        kinds = {e.kind for e in dataset.health.guard_events}
        assert kinds == {kind}
        assert all(e.workload == TARGET for e in dataset.health.guard_events)
        assert dataset.health.degraded
        assert "guard intervention(s)" in dataset.health.summary()

    def test_clean_guarded_campaign_matches_and_stays_clean(self, reference):
        dataset = _gemstone().dataset
        _assert_rows_bit_identical(dataset, reference)
        assert dataset.health.guard_events == []
        assert not dataset.health.degraded

    def test_report_renders_guard_interventions(self, reference):
        gs = _gemstone(faults=FaultPlan.corrupt_column(TARGET))
        text = render_collection_health(gs.dataset.health)
        assert "guard interventions" in text
        assert "[decode-corrupt]" in text
        assert TARGET in text

    def test_health_spans_validation_and_power(self):
        # "whetstone" is only simulated by the power campaign, so its
        # fault fires in that phase; the validation fault fires earlier.
        gs = _gemstone(
            faults=FaultPlan.corrupt_column(TARGET)
            | FaultPlan.corrupt_column("whetstone"),
            power_workloads=_profiles() + (workload_by_name("whetstone"),),
        )
        validation_events = len(gs.dataset.health.guard_events)
        assert validation_events > 0
        assert all(
            e.workload == TARGET for e in gs.health.guard_events
        )
        gs.power_dataset
        # The shared record accumulates both campaigns without
        # double-counting either: the validation events appear once, the
        # power-only workload's events join them.
        new = gs.health.guard_events[validation_events:]
        assert new
        assert {e.workload for e in new} == {"whetstone"}
        assert [
            e.workload for e in gs.health.guard_events[:validation_events]
        ].count(TARGET) == validation_events


class TestKillAndResume:
    def test_resume_through_guard_fallback_is_byte_identical(self, tmp_path):
        # Each lineage keeps an on-disk sim cache so the resumed process
        # memo-hits the phases the original already simulated, exactly as
        # the uninterrupted process memo-hits them in memory.
        faults = FaultPlan.poison_memo(TARGET)
        reference = _gemstone(
            faults=faults,
            checkpoint_dir=str(tmp_path / "ref-ckpt"),
            cache_dir=str(tmp_path / "ref-cache"),
        ).report()
        assert "[divergence]" in reference

        directory = str(tmp_path / "ckpt")
        cache_dir = str(tmp_path / "cache")
        victim = _gemstone(
            faults=faults, checkpoint_dir=directory, cache_dir=cache_dir
        )
        victim.dataset  # guard fallback fires in this phase
        assert victim.health.guard_events
        del victim  # SIGKILL equivalent: checkpoints are all that survive

        resumed = _gemstone(
            faults=faults,
            checkpoint_dir=directory,
            cache_dir=cache_dir,
        )
        assert resumed.report() == reference
        # The dataset phase restored (events came back from the
        # checkpoint), the later phases recomputed their own.
        assert resumed.runstate.metrics.counter("core.runstate.restored").value >= 1
        assert resumed.health.guard_events
