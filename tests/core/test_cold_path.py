"""The cold report does each piece of work once.

A first run on an empty result cache and an empty checkpoint directory
compiles every trace, replays every job and writes every cache entry and
checkpoint.  Host noise hides a regression of this path of up to about
30 % in wall time; a count hides none.  These tests pin, on a small
config whose validation workloads are a subset of its power workloads:

* one trace compile per recipe;
* one columnar replay, and one result-cache ``put``, per (recipe,
  machine) job;
* one L2 walk per replay;
* per phase checkpoint, one atomic write and one journal append, and no
  other durable write beyond the manifest, the run journal's start and
  end records and the cache entries.

The counts come from spies installed by the tests, not from registry
counters, so the pinned counter sets of ``tests/obs`` stay as they are.
It is the twin of ``test_warm_path.py``.
"""

from __future__ import annotations

import collections
import os

import pytest

import repro.atomicio as atomicio
import repro.sim.columnar as columnar_mod
from repro.core.pipeline import GemStone, GemStoneConfig
from repro.core.runstate import PHASES
from repro.sim.result_cache import SimResultCache
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import _TraceBuilder

from tests.conftest import SMALL_FREQS

VALIDATION = ("mi-sha", "mi-qsort", "dhrystone")
POWER = VALIDATION + ("whetstone", "mi-fft")
INSTRUCTIONS = 4_000
HW, GEM5 = "hw-a15", "gem5-ex5-big"

#: The hardware platform replays every power workload, gem5 the
#: validation ones; DVFS points scale a replay, they do not repeat it.
JOBS = sorted(
    [(name, HW) for name in POWER] + [(name, GEM5) for name in VALIDATION]
)


def _spy(patch, owner, name, calls: list, record):
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return real(*args, **kwargs)

    patch.setattr(owner, name, spy)


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold checkpointed report, with every spied call recorded."""
    directory = tmp_path_factory.mktemp("cold")
    calls: dict[str, list] = collections.defaultdict(list)
    with pytest.MonkeyPatch.context() as patch:
        _spy(
            patch, _TraceBuilder, "build", calls["compile"],
            lambda self: (self.profile.name, self.target_instrs, self.seed),
        )
        _spy(
            patch, columnar_mod, "simulate_columnar", calls["replay"],
            lambda trace, machine, *rest, **kw: (trace.name, machine.name),
        )
        _spy(
            patch, columnar_mod, "_l2_walk", calls["l2_walk"],
            lambda merged, machine, *rest, **kw: machine.name,
        )
        _spy(
            patch, SimResultCache, "put", calls["put"],
            lambda self, job, result: (job.profile.name, job.machine.name),
        )
        _spy(
            patch, atomicio, "atomic_write_bytes", calls["write"],
            lambda path, data, fsync=True: (os.path.basename(path), fsync),
        )
        _spy(
            patch, atomicio.Journal, "append", calls["append"],
            lambda self, event, **fields: (
                os.path.basename(self.path), event, fields.get("phase")
            ),
        )
        gemstone = GemStone(
            GemStoneConfig(
                core="A15",
                workloads=tuple(workload_by_name(n) for n in VALIDATION),
                power_workloads=tuple(workload_by_name(n) for n in POWER),
                frequencies=SMALL_FREQS,
                trace_instructions=INSTRUCTIONS,
                cache_dir=str(directory / "cache"),
                checkpoint_dir=str(directory / "ckpt"),
            )
        )
        gemstone.report()
    return gemstone, calls


def test_each_recipe_is_compiled_once(cold):
    _, calls = cold
    compiled = calls["compile"]
    assert len(compiled) == len(set(compiled)) == len(POWER)
    assert sorted(name for name, _, _ in compiled) == sorted(POWER)
    assert {n_instrs for _, n_instrs, _ in compiled} == {INSTRUCTIONS}


def test_each_job_is_replayed_and_stored_once(cold):
    gemstone, calls = cold
    assert gemstone.executor.telemetry.jobs_run == len(JOBS)
    assert sorted(calls["replay"]) == JOBS
    assert sorted(calls["put"]) == JOBS


def test_each_replay_walks_the_l2_once(cold):
    _, calls = cold
    assert collections.Counter(calls["l2_walk"]) == collections.Counter(
        machine for _, machine in calls["replay"]
    )


def test_durable_writes_per_phase_checkpoint(cold):
    _, calls = cold
    writes = collections.Counter(name for name, _ in calls["write"])
    assert all(fsync for _, fsync in calls["write"])
    checkpoints = {n: c for n, c in writes.items() if n.endswith(".ckpt")}
    assert checkpoints == {f"{phase}.ckpt": 1 for phase in PHASES}
    # Besides the checkpoints: the manifest and one entry per job.
    others = {n: c for n, c in writes.items() if not n.endswith(".ckpt")}
    assert others.pop("manifest.json") == 1
    assert sorted(others.values()) == [1] * len(JOBS)

    assert {name for name, _, _ in calls["append"]} == {"journal.jsonl"}
    events = [(event, phase) for _, event, phase in calls["append"]]
    assert events == [
        ("run-start", None),
        *(("checkpointed", phase) for phase in PHASES),
        ("run-complete", None),
    ]
