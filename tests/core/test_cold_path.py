"""The cold report does each piece of work once.

A first run on an empty result cache and an empty checkpoint directory
compiles every trace, replays every job and writes every cache entry and
checkpoint.  Host noise hides a regression of this path of up to about
30 % in wall time; a count hides none.  These tests pin, on a small
config whose validation workloads are a subset of its power workloads:

* one trace compile per recipe;
* one columnar replay, and one result-cache ``put``, per (recipe,
  machine) job;
* per replay, one kernel call for each of the four L1 passes (ITLB,
  L1I, DTLB, L1D: a cold run has no memo hit) and one L2 walk;
* one kernel load in the process, and no scalar state (``_make_state``)
  built inside a columnar replay;
* one atomic write per phase checkpoint and one per cache entry, and no
  other durable write: no run manifest and no journal append.

The counts come from spies installed by the tests, not from registry
counters, so the pinned counter sets of ``tests/obs`` stay as they are.
It is the twin of ``test_warm_path.py``.
"""

from __future__ import annotations

import collections
import os
import re

import pytest

import repro.atomicio as atomicio
import repro.sim.columnar as columnar_mod
import repro.sim.cpu as cpu_mod
import repro.sim.kernel as kernel_mod
from repro.core.pipeline import GemStone, GemStoneConfig
from repro.core.runstate import PHASES
from repro.sim.machine import machine_by_name
from repro.sim.result_cache import SimResultCache
from repro.uarch.cache import lru_geometry
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


def _l1_passes(machine) -> list[tuple]:
    """The ``(n_sets, assoc, streaming)`` of the ITLB, L1I, DTLB and L1D
    passes of one replay on ``machine``."""
    tlb = machine.tlb
    return [
        (*lru_geometry(tlb.itlb_entries, tlb.itlb_assoc), False),
        (*lru_geometry(machine.l1i.lines, machine.l1i.assoc), False),
        (*lru_geometry(tlb.dtlb_entries, tlb.dtlb_assoc), False),
        (*lru_geometry(machine.l1d.lines, machine.l1d.assoc),
         machine.l1d.write_streaming),
    ]


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold checkpointed report, with every spied call recorded."""
    directory = tmp_path_factory.mktemp("cold")
    calls: dict[str, list] = collections.defaultdict(list)
    in_columnar: list[bool] = []
    with pytest.MonkeyPatch.context() as patch:
        # As if no replay had run in this process yet.
        patch.setattr(kernel_mod, "_KERNEL", None)
        _spy(patch, kernel_mod, "_load", calls["load"], lambda: None)
        _spy(
            patch, columnar_mod, "_lru_replay", calls["lru_replay"],
            lambda keys, n_sets, assoc, flags=None, streaming=False: (
                n_sets, assoc, bool(streaming)
            ),
        )
        _spy(
            patch, cpu_mod, "_make_state", calls["make_state"],
            lambda machine: bool(in_columnar),
        )
        _spy(
            patch, _TraceBuilder, "build", calls["compile"],
            lambda self: (self.profile.name, self.target_instrs, self.seed),
        )
        replay = columnar_mod.simulate_columnar

        def marked_replay(trace, machine, *rest, **kwargs):
            calls["replay"].append((trace.name, machine.name))
            in_columnar.append(True)
            try:
                return replay(trace, machine, *rest, **kwargs)
            finally:
                in_columnar.pop()

        patch.setattr(columnar_mod, "simulate_columnar", marked_replay)
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


def test_each_replay_makes_one_kernel_call_per_l1_pass(cold):
    _, calls = cold
    expected = collections.Counter()
    for _, machine in calls["replay"]:
        expected.update(_l1_passes(machine_by_name(machine)))
    assert collections.Counter(calls["lru_replay"]) == expected
    assert len(calls["lru_replay"]) == 4 * len(calls["replay"])


def test_the_kernel_is_loaded_once(cold):
    _, calls = cold
    assert len(calls["load"]) == 1


def test_the_columnar_engine_builds_no_scalar_state(cold):
    _, calls = cold
    # Scalar replays (the guard's sentinel samples) may build one.
    assert True not in calls["make_state"]


def test_durable_writes_per_phase_checkpoint(cold):
    _, calls = cold
    writes = collections.Counter(name for name, _ in calls["write"])
    assert all(fsync for _, fsync in calls["write"])
    checkpoints = {n: c for n, c in writes.items() if n.endswith(".ckpt")}
    assert checkpoints == {f"{phase}.ckpt": 1 for phase in PHASES}
    # Besides the checkpoints: one cache entry per job, and nothing else.
    others = {n: c for n, c in writes.items() if not n.endswith(".ckpt")}
    assert sorted(others.values()) == [1] * len(JOBS)
    assert all(re.fullmatch(r"[0-9a-f]{40}\.json", n) for n in others)
    assert calls["append"] == []
