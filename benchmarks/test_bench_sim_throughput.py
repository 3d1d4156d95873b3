"""Cold-collection throughput: serial vs parallel simulation executor.

GemStone's workflow (Section VII) reruns the whole evaluation after every
model tweak, so cold dataset collection is the dominant wall-clock cost of
the tool.  This benchmark measures a cold ``collect_validation_dataset``
pass — every (workload x machine) simulation recomputed — serially and
through the process-pool executor, prints traces/sec and instrs/sec for
each, and asserts the two datasets are bit-identical.

The >=2x target for ``jobs=4`` assumes >=4 usable cores; on smaller hosts
(including single-CPU CI containers, where process spawn overhead makes the
pool a net loss) the speedup is printed but not asserted.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import paper_row, print_header
from repro.core.validation import collect_validation_dataset
from repro.sim.executor import SimExecutor
from repro.sim.gem5 import Gem5Simulation
from repro.sim.machine import gem5_ex5_big
from repro.sim.platform import HardwarePlatform
from repro.workloads.suites import validation_workloads

TRACE_INSTRUCTIONS = 20_000
N_WORKLOADS = 12
FREQS = (1000e6,)


def _cold_collect(jobs: int):
    """One cold collection pass; returns (dataset, wall_seconds, n_sims)."""
    profiles = tuple(validation_workloads())[:N_WORKLOADS]
    # One executor serves both arms, so one pool runs every job.
    executor = SimExecutor(jobs=jobs)
    platform = HardwarePlatform(
        "A15", trace_instructions=TRACE_INSTRUCTIONS, executor=executor
    )
    gem5 = Gem5Simulation(
        gem5_ex5_big(), trace_instructions=TRACE_INSTRUCTIONS, executor=executor
    )
    started = time.perf_counter()
    dataset = collect_validation_dataset(
        platform, gem5, profiles, FREQS, with_power=False
    )
    wall = time.perf_counter() - started
    return dataset, wall, 2 * len(profiles)


def test_bench_sim_throughput():
    serial_ds, serial_wall, n_sims = _cold_collect(jobs=1)
    parallel_ds, parallel_wall, _ = _cold_collect(jobs=4)

    speedup = serial_wall / parallel_wall if parallel_wall > 0 else float("inf")
    instrs = n_sims * TRACE_INSTRUCTIONS

    print_header("Cold-collection throughput: serial vs parallel executor")
    print(
        paper_row(
            f"serial (jobs=1), {n_sims} sims",
            "n/a",
            f"{serial_wall:.2f}s = {n_sims / serial_wall:.1f} traces/s, "
            f"{instrs / serial_wall / 1e6:.2f} M instrs/s",
        )
    )
    print(
        paper_row(
            "parallel (jobs=4)",
            "n/a",
            f"{parallel_wall:.2f}s = {n_sims / parallel_wall:.1f} traces/s, "
            f"{instrs / parallel_wall / 1e6:.2f} M instrs/s",
        )
    )
    print(
        paper_row(
            f"speedup on {os.cpu_count()} cpus",
            ">=2x on >=4 cores",
            f"{speedup:.2f}x",
        )
    )

    # Determinism is the hard guarantee; speedup depends on the host.
    assert len(serial_ds.runs) == len(parallel_ds.runs)
    for s, p in zip(serial_ds.runs, parallel_ds.runs):
        assert s.workload == p.workload and s.freq_hz == p.freq_hz
        assert s.hw.time_seconds == p.hw.time_seconds
        assert s.hw.pmc == p.hw.pmc
        assert s.gem5.stats == p.gem5.stats
