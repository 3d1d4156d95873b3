"""Campaign scaling: one board drained by 1, 2 and 4 shard processes.

The campaign layer exists to scale the validation sweep past one process
pool, so its benchmark is a scaling curve: the same job set (8 workloads
x hw/gem5) drained from a fresh board by 1, 2 and 4 shards, coordinator
collation disabled so the timing is pure board-protocol plus simulation.

Each shard count is timed :data:`REPEATS` times, every timing on a fresh
board.  Repeats run in rounds that visit every shard count, so slow drift
on a shared host lands on all counts alike, and a count's speedup is the
median over rounds of ``1-shard seconds / N-shard seconds``.  The JSON
records each count's median seconds and their interquartile range, and
for every timing the jobs each shard finished and the leases stolen, as
the board journal recorded them: a slow round with an uneven split is
shard skew, one with an even split is host contention.

Asserted floor: the median 2-shard speedup is >=1.5x on any machine with
>=2 cores.  The 4-shard point is reported but not gated — 6+ cores are
not a given in CI.

Results are emitted machine-readably to ``BENCH_campaign.json`` at the
repo root so the trajectory can be tracked across PRs.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import median_and_iqr, paper_row, print_header
from repro.atomicio import Journal
from repro.core.pipeline import GemStoneConfig
from repro.sim.campaign import run_campaign
from repro.sim.executor import RetryPolicy
from repro.workloads.suites import workload_by_name

TRACE_INSTRUCTIONS = 30_000
WORKLOADS = (
    "mi-sha", "mi-qsort", "mi-fft", "mi-dijkstra", "mi-bitcount",
    "dhrystone", "whetstone", "mi-crc32",
)
SHARD_COUNTS = (1, 2, 4)
TWO_SHARD_FLOOR = 1.5
REPEATS = 3

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_campaign.json"
)


def _config() -> GemStoneConfig:
    profiles = tuple(workload_by_name(name) for name in WORKLOADS)
    return GemStoneConfig(
        core="A15",
        workloads=profiles,
        power_workloads=profiles,
        trace_instructions=TRACE_INSTRUCTIONS,
        retry=RetryPolicy(max_attempts=2, base_seconds=0.0),
        engine="scalar",
        guard_level="off",
    )


def _journal_counts(board_dir: str) -> dict:
    """Jobs each shard finished and leases stolen, from the board journal."""
    done: dict[str, int] = {}
    steals = 0
    for record in Journal(os.path.join(board_dir, "journal.jsonl")).read():
        if record["event"] == "job-done":
            done[record["owner"]] = done.get(record["owner"], 0) + 1
        elif record["event"] == "lease-stolen":
            steals += 1
    return {"done_per_shard": dict(sorted(done.items())), "steals": steals}


def _drain_seconds(board_dir: str, shards: int) -> tuple[float, dict]:
    started = time.perf_counter()
    result = run_campaign(
        _config(), board_dir, shards=shards, ttl_seconds=30.0,
        poll_seconds=0.01, collate=False,
    )
    elapsed = time.perf_counter() - started
    assert not result.degraded
    assert result.status["done"] == result.status["total"]
    return elapsed, result.status


@pytest.mark.dist
def test_bench_campaign_scaling(tmp_path):
    timings: dict[int, list[float]] = {shards: [] for shards in SHARD_COUNTS}
    journals: dict[int, list[dict]] = {shards: [] for shards in SHARD_COUNTS}
    jobs = 0
    for round_index in range(REPEATS):
        for shards in SHARD_COUNTS:
            # A fresh board per timing: every run pays the same sync,
            # claim and simulation costs from zero.
            board_dir = str(tmp_path / f"board-{shards}-{round_index}")
            elapsed, status = _drain_seconds(board_dir, shards)
            timings[shards].append(elapsed)
            journal = _journal_counts(board_dir)
            assert sum(journal["done_per_shard"].values()) == status["total"]
            journals[shards].append(journal)
            jobs = status["total"]

    rows = []
    for shards in SHARD_COUNTS:
        seconds, seconds_iqr = median_and_iqr(timings[shards])
        ratios = [
            one / many for one, many in zip(timings[1], timings[shards])
        ]
        speedup, speedup_iqr = median_and_iqr(ratios)
        rows.append(
            {
                "shards": shards,
                "jobs": jobs,
                "seconds": seconds,
                "seconds_iqr": seconds_iqr,
                "timings": timings[shards],
                "journal": journals[shards],
                "speedup": speedup,
                "speedup_iqr": speedup_iqr,
            }
        )

    print_header(
        f"Campaign scaling: {jobs} jobs, "
        f"{TRACE_INSTRUCTIONS // 1000}k-instr traces, "
        f"median of {REPEATS} rounds"
    )
    for row in rows:
        print(
            paper_row(
                f"{row['shards']} shard(s)",
                f">={TWO_SHARD_FLOOR}x at 2" if row["shards"] == 2 else "-",
                f"{row['seconds']:.2f}s (IQR {row['seconds_iqr']:.2f}s) "
                f"= {row['speedup']:.2f}x",
            )
        )
        for seconds, journal in zip(row["timings"], row["journal"]):
            print(
                f"    {seconds:.2f}s: done per shard "
                f"{list(journal['done_per_shard'].values())}, "
                f"{journal['steals']} steal(s)"
            )

    cores = os.cpu_count() or 1
    two_shard = next(r for r in rows if r["shards"] == 2)

    payload = {
        "bench": "campaign_scaling",
        "trace_instructions": TRACE_INSTRUCTIONS,
        "jobs": jobs,
        "repeats": REPEATS,
        "cpu_count": cores,
        "cpu_gated": True,
        "gate_enforced": cores >= 2,
        "two_shard_floor": TWO_SHARD_FLOOR,
        "two_shard_speedup": two_shard["speedup"],
        "two_shard_speedup_iqr": two_shard["speedup_iqr"],
        "points": rows,
    }
    with open(RESULTS_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Gate after the snapshot is on disk so a miss still leaves evidence.
    if cores >= 2:
        assert two_shard["speedup"] >= TWO_SHARD_FLOOR, (
            f"2-shard campaign only {two_shard['speedup']:.2f}x faster "
            f"than serial (median of {REPEATS} rounds) on {cores} cores "
            f"(floor {TWO_SHARD_FLOOR}x)"
        )
