"""Pinned counter values of whole runs.

Every counter a run leaves in its metrics registry, by dotted name, for
four small deterministic scenarios: a checkpointed, cached pipeline run
under injected cache corruption, NaN passes and poisoned memos at the
sentinel guard level; its rerun on the same checkpoint directory; the
rerun of a run killed after its dataset phase; and the merged snapshot
of a 2-shard campaign.  A counter listed here must keep its exact value; a counter
not listed may appear only with value 0.  Wall-clock counters (names
ending in ``seconds``) are excluded: their values are timings.
"""

from __future__ import annotations

import os

import pytest

from repro.core.pipeline import GemStone, GemStoneConfig
from repro.obs.merge import merge_board_metrics
from repro.sim.campaign import run_campaign
from repro.sim.executor import RetryPolicy
from repro.sim.faults import FaultPlan
from repro.workloads.suites import workload_by_name

from tests.conftest import SMALL_FREQS

WORKLOADS = ("mi-sha", "mi-qsort", "dhrystone")

FAULTS = (
    FaultPlan.corrupt_cache("mi-qsort")
    | FaultPlan.nan_pass("dhrystone")
    | FaultPlan.poison_memo("mi-sha")
)

#: Counters of a full checkpointed run.
RUN = {
    "core.runstate.checkpointed": 12,
    "pipeline.phases_computed": 11,
    "sim.cache.misses": 6,
    "sim.executor.batches": 1,
    "sim.executor.jobs_deduplicated": 0,
    "sim.executor.jobs_run": 6,
    "sim.executor.jobs_submitted": 6,
    "sim.guard.divergences": 1,
    "sim.guard.events": 3,
    "sim.guard.fallbacks": 3,
    "sim.guard.nan_fallbacks": 2,
    "sim.guard.sentinel_replays": 1,
}

#: The dataset phase alone simulates every job of the full run.
DATASET_PHASE = {
    **RUN,
    "core.runstate.checkpointed": 1,
    "pipeline.phases_computed": 1,
}

#: A resumed complete run restores the report and computes nothing.
RESUME = {
    "core.runstate.restored": 1,
    "pipeline.phases_restored": 1,
}

#: Resuming a run killed after its dataset phase: the dataset restores,
#: the power campaign reads the cache (one corrupt entry quarantined and
#: recomputed) and every later phase is computed and checkpointed.
RESUME_AFTER_KILL = {
    "core.runstate.checkpointed": 11,
    "core.runstate.restored": 1,
    "pipeline.phases_computed": 10,
    "pipeline.phases_restored": 1,
    "sim.cache.hits": 2,
    "sim.cache.quarantined": 1,
    "sim.executor.batches": 1,
    "sim.executor.cache_hits": 2,
    "sim.executor.jobs_deduplicated": 0,
    "sim.executor.jobs_run": 1,
    "sim.executor.jobs_submitted": 3,
    "sim.guard.sentinel_replays": 1,
}

#: The merged campaign snapshot (coordinator plus both shards).  Every
#: job misses the store twice: once in the coordinator's board sync and
#: once in the cache probe of the shard that claims it.
CAMPAIGN = {
    "sim.campaign.jobs_claimed": 6,
    "sim.campaign.jobs_done": 6,
    "sim.campaign.jobs_queued": 6,
    "sim.campaign.jobs_requeued": 0,
    "sim.campaign.jobs_retired": 0,
    "sim.campaign.jobs_reused": 0,
    "sim.campaign.workers_lost": 0,
    "sim.campaign.workers_started": 2,
    "sim.cache.misses": 12,
    "sim.executor.batches": 6,
    "sim.executor.cache_hits": 0,
    "sim.executor.jobs_deduplicated": 0,
    "sim.executor.jobs_run": 6,
    "sim.executor.jobs_submitted": 6,
    "sim.guard.sentinel_replays": 1,
}

def _config(tmp_path, faults=FAULTS, **overrides) -> GemStoneConfig:
    profiles = tuple(workload_by_name(name) for name in WORKLOADS)
    settings = dict(
        core="A15",
        workloads=profiles,
        power_workloads=profiles,
        frequencies=SMALL_FREQS,
        trace_instructions=4_000,
        retry=RetryPolicy(max_attempts=2, base_seconds=0.0),
        faults=faults,
        guard_level="sentinel",
        cache_dir=str(tmp_path / "cache"),
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    settings.update(overrides)
    return GemStoneConfig(**settings)


def _counters(registry) -> dict[str, float]:
    return {
        name: data["value"]
        for name, data in registry.snapshot().items()
        if data["type"] == "counter"
        and not name.endswith("seconds")
    }


def _assert_pinned(counters: dict[str, float], pinned: dict[str, float]):
    assert {name: counters.get(name) for name in pinned} == pinned
    unpinned = {
        name: value for name, value in counters.items() if name not in pinned
    }
    assert all(value == 0 for value in unpinned.values()), unpinned


def test_checkpointed_run_and_its_resume(tmp_path):
    first = GemStone(_config(tmp_path))
    report = first.report()
    _assert_pinned(_counters(first.metrics), RUN)

    resumed = GemStone(_config(tmp_path))
    assert resumed.report() == report
    _assert_pinned(_counters(resumed.metrics), RESUME)


def test_resume_after_a_kill(tmp_path):
    victim = GemStone(_config(tmp_path))
    victim.dataset
    _assert_pinned(_counters(victim.metrics), DATASET_PHASE)
    del victim  # only the checkpoints and the cache survive

    resumed = GemStone(_config(tmp_path))
    resumed.report()
    _assert_pinned(_counters(resumed.metrics), RESUME_AFTER_KILL)


@pytest.mark.dist
def test_two_shard_campaign_merged_snapshot(tmp_path):
    config = _config(tmp_path, faults=None, cache_dir=None, checkpoint_dir=None)
    board_dir = str(tmp_path / "board")
    result = run_campaign(config, board_dir, shards=2, collate=False)
    assert result.status["done"] == result.status["total"] == 6
    merged = merge_board_metrics(board_dir)
    _assert_pinned(_counters(merged), CAMPAIGN)
    assert os.path.exists(os.path.join(board_dir, "obs", "metrics.prom"))
