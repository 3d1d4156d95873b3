"""Chaos suite: distributed campaigns under seeded worker-loss faults.

Every scenario asserts the campaign layer's core promise: whatever
happens to the shards — crashes between the store write and the
``job-done`` append, a crash after any journal commit, literal ``SIGKILL`` while a lease is held, stalls that let a
lease expire under a live worker, repeat offenders exhausting the retry
budget, a coordinator dying mid-campaign, corrupted store entries —
the collated datasets stay *bit-identical* to a serial run, no job ever
yields duplicate results or power samples, and every intervention is
journalled and surfaced as structured health records, never silently
absorbed.

Runs in the default ``make test`` path; ``make test-dist`` selects it.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import threading
import time
from collections import Counter

import pytest

from repro.core.pipeline import GemStone, GemStoneConfig
from repro.core.runstate import RunManifest
from repro.sim.campaign import (
    CampaignBoard,
    _worker_entry,
    campaign_jobs,
    run_campaign,
    run_worker,
)
from repro.sim.executor import SimExecutor
from repro.sim.faults import FaultPlan
from repro.workloads.suites import workload_by_name

from tests.conftest import SMALL_FREQS

pytestmark = [pytest.mark.chaos, pytest.mark.dist]

WORKLOADS = ("mi-sha", "mi-qsort", "dhrystone")
TARGET = "mi-sha"
N_INSTRS = 4_000


def _profiles(names=WORKLOADS):
    return tuple(workload_by_name(name) for name in names)


def _config(faults=None, **overrides):
    defaults = dict(
        core="A15",
        workloads=_profiles(),
        power_workloads=_profiles(),
        frequencies=SMALL_FREQS,
        trace_instructions=N_INSTRS,
        max_attempts=2,
        faults=faults,
        engine="scalar",
        guard_level="off",
    )
    defaults.update(overrides)
    return GemStoneConfig(**defaults)


@pytest.fixture(scope="module")
def reference():
    """The serial gemstone every campaign must reproduce byte for byte."""
    gs = GemStone(_config())
    return gs.dataset, gs.power_dataset


def _assert_bit_identical(gemstone, reference):
    dataset, power = reference
    campaign_dataset = gemstone.dataset
    assert [
        (r.workload, r.freq_hz) for r in campaign_dataset.runs
    ] == [(r.workload, r.freq_hz) for r in dataset.runs]
    for run in campaign_dataset.runs:
        ref = dataset.run(run.workload, run.freq_hz)
        assert run.hw_time == ref.hw_time
        assert run.hw.pmc == ref.hw.pmc
        assert run.gem5_time == ref.gem5_time
        assert run.gem5.stats == ref.gem5.stats
    campaign_power = gemstone.power_dataset
    # Bit-identical and free of duplicate samples: same (workload, OPP)
    # multiset, every observation equal.
    assert [
        (o.workload, o.freq_hz) for o in campaign_power
    ] == [(o.workload, o.freq_hz) for o in power]
    assert campaign_power == power


def _assert_no_duplicate_completions(board_dir):
    """Every job key reaches ``job-done`` exactly once in the journal."""
    board = CampaignBoard.open(board_dir)
    done = [
        r["key"] for r in board.read_journal() if r["event"] == "job-done"
    ]
    assert len(done) == len(set(done))
    assert board.all_settled()


def _journal_events(board_dir):
    return [r["event"] for r in CampaignBoard.open(board_dir).read_journal()]


class TestCleanCampaign:
    def test_two_shards_bit_identical_to_serial(self, tmp_path, reference):
        board_dir = str(tmp_path / "board")
        result = run_campaign(_config(), board_dir, shards=2)
        assert not result.degraded
        assert result.lost_shards == 0
        assert result.poisoned == ()
        assert result.sync["queued"] == 6
        assert result.status == {
            "total": 6, "done": 6, "poisoned": 0, "leased": 0, "queued": 0,
        }
        _assert_no_duplicate_completions(board_dir)
        _assert_bit_identical(result.gemstone, reference)
        assert result.gemstone.health.guard_events == []

    def test_rerun_reuses_every_result(self, tmp_path, reference):
        board_dir = str(tmp_path / "board")
        run_campaign(_config(), board_dir, shards=2, collate=False)
        claims_before = _journal_events(board_dir).count("lease-claimed")
        again = run_campaign(_config(), board_dir, shards=2)
        assert again.sync["reused"] == 6
        assert again.sync["queued"] == 0
        # Incremental recompute: the journal proves nothing re-ran.
        assert _journal_events(board_dir).count(
            "lease-claimed"
        ) == claims_before
        _assert_bit_identical(again.gemstone, reference)

    def test_edited_profile_is_simulated_as_given(self, tmp_path):
        """A custom profile under a catalog name reaches the shard as the
        job's own recipe; it is never swapped for the catalog profile."""
        edited = dataclasses.replace(workload_by_name(TARGET), ilp=1.0)
        profiles = (edited,) + _profiles(WORKLOADS[1:])
        config = _config(workloads=profiles, power_workloads=profiles)
        serial = GemStone(config)
        result = run_campaign(config, str(tmp_path / "board"), shards=1)
        _assert_bit_identical(
            result.gemstone, (serial.dataset, serial.power_dataset)
        )


class TestShardLoss:
    def test_shard_crash_after_store_is_adopted(self, tmp_path, reference):
        # The shard dies between the store write and the done marker; the
        # orphaned-but-intact result must be adopted, never recomputed.
        board_dir = str(tmp_path / "board")
        result = run_campaign(
            _config(faults=FaultPlan.shard_crash(TARGET, attempts=2)),
            board_dir, shards=2, ttl_seconds=0.5,
        )
        assert result.lost_shards >= 1
        assert result.degraded
        assert result.poisoned == ()
        kinds = {e.kind for e in result.health.guard_events}
        assert "shard-lost" in kinds
        board = CampaignBoard.open(board_dir)
        adopted = [
            r for r in board.read_journal()
            if r["event"] == "job-done" and r.get("adopted")
        ]
        assert adopted
        _assert_no_duplicate_completions(board_dir)
        _assert_bit_identical(result.gemstone, reference)

    def test_sigkilled_shard_lease_is_stolen(self, tmp_path, reference):
        # A literal SIGKILL mid-lease: the worker stalls (injected) with a
        # lease held, dies without cleanup, and a thief converges the
        # board to the same bytes.
        board_dir = str(tmp_path / "board")
        config = _config()
        board = CampaignBoard(board_dir, ttl_seconds=0.3)
        board.create_or_sync(
            RunManifest.from_config(config).fingerprint,
            campaign_jobs(config),
        )
        target_keys = {
            j.key for j in campaign_jobs(config) if j.profile.name == TARGET
        }
        victim = multiprocessing.get_context().Process(
            target=_worker_entry,
            args=(board_dir, "victim", "scalar", "off",
                  FaultPlan.lease_stall(TARGET, seconds=60.0, attempts=2),
                  None, 0.02),
        )
        victim.start()
        deadline = time.monotonic() + 30.0
        try:
            while time.monotonic() < deadline:
                held = [
                    k for k in sorted(target_keys)
                    if board.owns(k, "victim")
                ]
                if held:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("victim never leased a target job")
        finally:
            victim.kill()
            victim.join()
        thief = run_worker(
            board_dir, owner="thief", engine="scalar"
        )
        assert thief.stolen >= 1
        assert _journal_events(board_dir).count("lease-stolen") >= 1
        _assert_no_duplicate_completions(board_dir)
        collation = GemStone(
            dataclasses.replace(config, board_dir=board_dir)
        )
        _assert_bit_identical(collation, reference)

    def test_lease_expires_under_live_worker(self, tmp_path, reference):
        # The stalled worker survives, wakes after losing its lease, and
        # must abandon the job instead of double-completing it.
        board_dir = str(tmp_path / "board")
        config = _config()
        board = CampaignBoard(board_dir, ttl_seconds=0.2)
        board.create_or_sync(
            RunManifest.from_config(config).fingerprint,
            campaign_jobs(config),
        )
        reports = {}

        def stall_worker():
            reports["sleepy"] = run_worker(
                board_dir, owner="sleepy", engine="scalar",
                faults=FaultPlan.lease_stall(
                    TARGET, seconds=1.0, attempts=2
                ),
                poll_seconds=0.02,
            )

        thread = threading.Thread(target=stall_worker)
        thread.start()
        time.sleep(0.35)  # let a stalled lease expire
        reports["peer"] = run_worker(
            board_dir, owner="peer", engine="scalar",
            poll_seconds=0.02,
        )
        thread.join()
        assert reports["sleepy"].abandoned >= 1
        assert reports["peer"].stolen >= 1
        _assert_no_duplicate_completions(board_dir)
        collation = GemStone(
            dataclasses.replace(config, board_dir=board_dir)
        )
        _assert_bit_identical(collation, reference)


class TestPoisoning:
    def test_repeat_offender_poisons_across_shards(self, tmp_path):
        # Every attempt fails, on whichever shard claims the job: the
        # board's attempt budget must circuit-break it instead of letting
        # the campaign spin forever.
        board_dir = str(tmp_path / "board")
        result = run_campaign(
            _config(faults=FaultPlan.worker_oom(TARGET, attempts=99)),
            board_dir, shards=2, collate=False,
        )
        assert result.degraded
        assert result.status["poisoned"] == 2  # hw + gem5 job
        assert {w for _k, w, _r in result.poisoned} == {TARGET}
        assert all(
            "retry budget exhausted" in reason
            for _k, _w, reason in result.poisoned
        )
        assert len(result.health.failures) == 2
        assert result.status["done"] == 4
        board = CampaignBoard.open(board_dir)
        assert board.all_settled()
        requeues = [
            r for r in board.read_journal()
            if r["event"] == "job-requeued" and "MemoryError" in
            r.get("reason", "")
        ]
        assert requeues

    def test_single_failure_retries_clean(self, tmp_path, reference):
        # One failed attempt is a requeue, not a poison: attempt 2 on the
        # next claimant completes the job.
        board_dir = str(tmp_path / "board")
        result = run_campaign(
            _config(faults=FaultPlan.worker_oom(TARGET, attempts=1)),
            board_dir, shards=2,
            max_attempts=3,
        )
        assert result.poisoned == ()
        events = _journal_events(board_dir)
        assert events.count("job-requeued") >= 1
        _assert_no_duplicate_completions(board_dir)
        _assert_bit_identical(result.gemstone, reference)


class TestJobFaultInShard:
    def test_crash_fault_requeues_without_losing_a_shard(
        self, tmp_path, reference
    ):
        # A job fault inside a shard goes through the shard's executor: the
        # injected crash raises, the claim is requeued, and attempt 2 on the
        # next claimant completes it.  No shard process dies.
        board_dir = str(tmp_path / "board")
        result = run_campaign(
            _config(faults=FaultPlan.crash_workload(TARGET, attempts=1)),
            board_dir, shards=2,
        )
        assert result.lost_shards == 0
        assert result.poisoned == ()
        requeues = [
            r for r in CampaignBoard.open(board_dir).read_journal()
            if r["event"] == "job-requeued"
            and "InjectedFault" in r.get("reason", "")
        ]
        assert requeues
        _assert_no_duplicate_completions(board_dir)
        _assert_bit_identical(result.gemstone, reference)


def _store_bytes(directory):
    return {
        os.path.relpath(os.path.join(root, name), directory):
            open(os.path.join(root, name), "rb").read()
        for root, _dirs, names in os.walk(directory)
        for name in names
    }


class TestCrashAtEveryCommit:
    """A board cut after any journal record resumes to the same store.

    The journal is the board's only record of job state and every
    transition is one append, so a crash is a journal prefix: for every
    prefix length N the drained board's files with only N records kept
    must resume to a settled board in which each key is done once.
    """

    def test_every_journal_prefix_resumes_to_the_serial_store(
        self, tmp_path
    ):
        config = _config(
            workloads=_profiles(("mi-sha",)),
            power_workloads=_profiles(("mi-sha", "dhrystone")),
            trace_instructions=2_000,
        )
        jobs = campaign_jobs(config)
        assert len(jobs) == 3
        serial = SimExecutor(cache_dir=str(tmp_path / "serial"))
        serial.run_many(jobs)
        expected = _store_bytes(str(tmp_path / "serial"))

        board_dir = str(tmp_path / "board")
        board = CampaignBoard(board_dir, ttl_seconds=5.0, max_attempts=3)
        board.create_or_sync(RunManifest.from_config(config).fingerprint, jobs)
        # Alice's lease is aged past the TTL (stolen by bob); a job of
        # another workload errors once and is released.
        alice = board.claim("alice")
        past = board.now() - 10.0
        os.utime(board._lease_path(alice.job.key), (past, past))
        crash = "dhrystone" if alice.job.profile.name == "mi-sha" else "mi-sha"
        report = run_worker(
            board_dir, owner="bob", engine="scalar",
            faults=FaultPlan.crash_workload(crash, attempts=1),
        )
        assert (report.stolen, report.done) == (1, 3)
        assert report.errors >= 1
        assert not board.mark_done(alice.job.key, "alice")
        journal = board.read_journal()
        events = {r["event"] for r in journal}
        assert {"lease-stolen", "job-requeued", "job-abandoned"} <= events
        assert _store_bytes(board.results_dir) == expected
        with open(board.journal_path, "rb") as handle:
            lines = handle.readlines()
        assert len(lines) == len(journal)

        keys = sorted(job.key for job in jobs)
        for n in range(len(lines) + 1):
            cut = str(tmp_path / f"cut-{n}")
            shutil.copytree(board_dir, cut)
            with open(os.path.join(cut, "journal.jsonl"), "wb") as handle:
                handle.writelines(lines[:n])
            run_worker(cut, owner="resume", engine="scalar")
            resumed = CampaignBoard.open(cut)
            assert resumed.all_settled(), n
            records = resumed.read_journal()
            assert records[:n] == journal[:n]
            finished = ("job-done", "job-reused")
            before = Counter(
                r["key"] for r in records[:n] if r["event"] in finished
            )
            after = Counter(
                r["key"] for r in records[n:] if r["event"] in finished
            )
            assert {k: before[k] + after[k] for k in keys} == dict.fromkeys(
                keys, 1
            ), n
            assert _store_bytes(resumed.results_dir) == expected, n
            status = resumed.status()
            assert status["done"] == status["total"] == len(keys)
            assert sum(
                v for k, v in status.items() if k != "total"
            ) == status["total"]


class TestIncrementalRecompute:
    def test_coordinator_killed_midway_resumes_without_rework(
        self, tmp_path, reference
    ):
        # A coordinator that dies mid-campaign leaves a partially-drained
        # board; the next coordinator must reuse every finished job and
        # re-run exactly the remainder.
        board_dir = str(tmp_path / "board")
        config = _config()
        board = CampaignBoard(board_dir)
        board.create_or_sync(
            RunManifest.from_config(config).fingerprint,
            campaign_jobs(config),
        )
        partial = run_worker(
            board_dir, owner="doomed", engine="scalar", max_jobs=2,
        )
        assert partial.done == 2
        claims_before = _journal_events(board_dir).count("lease-claimed")
        result = run_campaign(_config(), board_dir, shards=2)
        assert result.sync["reused"] == 2
        assert result.sync["pending"] == 4
        new_claims = _journal_events(board_dir).count(
            "lease-claimed"
        ) - claims_before
        assert new_claims == 4
        _assert_no_duplicate_completions(board_dir)
        _assert_bit_identical(result.gemstone, reference)

    def test_corrupt_store_entry_requeues_exactly_one_job(
        self, tmp_path, reference
    ):
        board_dir = str(tmp_path / "board")
        run_campaign(_config(), board_dir, shards=2, collate=False)
        board = CampaignBoard.open(board_dir)
        key = board.job_keys()[0]
        store = board.store()
        path = store._path(key)
        with open(path, "r+") as handle:
            handle.write("corrupt")
        claims_before = _journal_events(board_dir).count("lease-claimed")
        result = run_campaign(_config(), board_dir, shards=2)
        assert result.sync["requeued"] == 1
        assert result.sync["reused"] == 5
        new_claims = _journal_events(board_dir).count(
            "lease-claimed"
        ) - claims_before
        assert new_claims == 1
        # The invalidated key is legitimately completed twice (once per
        # campaign); every other key exactly once.
        done = [
            r["key"] for r in board.read_journal()
            if r["event"] == "job-done"
        ]
        assert done.count(key) == 2
        assert all(done.count(k) == 1 for k in set(done) - {key})
        assert board.all_settled()
        _assert_bit_identical(result.gemstone, reference)

    def test_added_workload_runs_only_the_new_subgraph(
        self, tmp_path, reference
    ):
        board_dir = str(tmp_path / "board")
        two = _profiles(WORKLOADS[:2])
        run_campaign(
            _config(workloads=two, power_workloads=two),
            board_dir, shards=2, collate=False,
        )
        claims_before = _journal_events(board_dir).count("lease-claimed")
        result = run_campaign(_config(), board_dir, shards=2)
        assert result.sync["queued"] == 2  # hw + gem5 for the new workload
        assert result.sync["reused"] == 4
        new_claims = _journal_events(board_dir).count(
            "lease-claimed"
        ) - claims_before
        assert new_claims == 2
        _assert_no_duplicate_completions(board_dir)
        _assert_bit_identical(result.gemstone, reference)


class TestTraceStitching:
    """Campaign control tower: cross-shard traces under chaos."""

    def _traced_campaign(self, tmp_path, **kwargs):
        import os

        from repro.obs.exporters import EVENTS_FILE
        from repro.obs.tracer import Tracer

        board_dir = str(tmp_path / "board")
        trace_dir = str(tmp_path / "trace")
        os.makedirs(trace_dir, exist_ok=True)
        tracer = Tracer(
            enabled=True,
            stream_path=os.path.join(trace_dir, EVENTS_FILE),
        )
        result = run_campaign(
            _config(), board_dir, shards=2, tracer=tracer, **kwargs
        )
        tracer.close()
        return board_dir, trace_dir, result

    def test_clean_report_byte_identical_traced_or_not(
        self, tmp_path, reference
    ):
        # Tracing must never feed back into results: same report bytes.
        from repro.core.report import render_full_report

        plain = run_campaign(_config(), str(tmp_path / "plain"), shards=2)
        _board, _trace, traced = self._traced_campaign(tmp_path)
        assert not plain.degraded and not traced.degraded
        assert plain.summary == traced.summary
        assert render_full_report(
            plain.gemstone, include_telemetry=False
        ) == render_full_report(traced.gemstone, include_telemetry=False)
        _assert_bit_identical(traced.gemstone, reference)

    def test_merged_trace_and_prom_snapshot(self, tmp_path):
        import json

        from repro.obs.exporters import validate_chrome_trace
        from repro.obs.merge import export_campaign_trace

        board_dir, trace_dir, result = self._traced_campaign(tmp_path)
        paths = export_campaign_trace(board_dir, trace_dir)
        with open(paths["chrome"]) as handle:
            document = json.load(handle)
        validate_chrome_trace(document)
        tracks = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        # The coordinator timeline plus one distinct track per shard.
        assert "campaign shard-0" in tracks
        assert "campaign shard-1" in tracks
        assert len(tracks) >= 3
        # The merged Prometheus counters equal the journal's job counts.
        done = _journal_events(board_dir).count("job-done")
        with open(paths["metrics"]) as handle:
            prom = handle.read()
        assert f"repro_sim_campaign_jobs_done {done}" in prom
        assert result.status["done"] == done

    def test_sigkilled_shard_keeps_surviving_spans(self, tmp_path):
        # SIGKILL mid-segment: the unsealed tail merges best-effort, the
        # torn final line is dropped, and the board still converges.
        from repro.obs.merge import merge_campaign_records, read_shard_stream

        board_dir = str(tmp_path / "board")
        config = _config()
        board = CampaignBoard(board_dir, ttl_seconds=0.3)
        board.create_or_sync(
            RunManifest.from_config(config).fingerprint,
            campaign_jobs(config),
        )
        victim = multiprocessing.get_context().Process(
            target=_worker_entry,
            args=(board_dir, "victim", "scalar", "off", None,
                  None, 0.02, True),
        )
        victim.start()
        deadline = time.monotonic() + 30.0
        try:
            while time.monotonic() < deadline:
                done = sum(
                    1
                    for r in CampaignBoard.open(board_dir).read_journal()
                    if r["event"] == "job-done"
                )
                if done >= 2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("victim never completed a job")
        finally:
            victim.kill()
            victim.join()
        import os

        stream = os.path.join(board_dir, "obs", "victim", "events.jsonl")
        records, problems = read_shard_stream(stream)
        # The segment never sealed, yet the finished spans survive.
        assert any("no seal" in p for p in problems)
        assert any(r.get("name") == "campaign-job" for r in records)
        thief = run_worker(
            board_dir, owner="thief", engine="scalar"
        )
        assert thief.done >= 1
        merged, names = merge_campaign_records(board_dir)
        assert "campaign victim" in names.values()
        victim_pids = {
            pid for pid, name in names.items() if "victim" in name
        }
        assert any(
            r.get("segment") in victim_pids
            and r.get("name") == "campaign-job"
            for r in merged
        )
        _assert_no_duplicate_completions(board_dir)

    def test_lease_steal_visible_on_both_tracks(self, tmp_path):
        # The victim's track closes the job span with abandoned=True; the
        # thief's track carries the matching stolen=True span.
        import os

        from repro.obs.merge import merge_campaign_records
        from repro.obs.tracer import Tracer

        board_dir = str(tmp_path / "board")
        config = _config()
        board = CampaignBoard(board_dir, ttl_seconds=0.2)
        board.create_or_sync(
            RunManifest.from_config(config).fingerprint,
            campaign_jobs(config),
        )

        def _tracer(owner):
            return Tracer(
                enabled=True,
                stream_path=os.path.join(
                    board_dir, "obs", owner, "events.jsonl"
                ),
            )

        tracers = {"sleepy": _tracer("sleepy"), "peer": _tracer("peer")}

        def stall_worker():
            run_worker(
                board_dir, owner="sleepy", engine="scalar",
                faults=FaultPlan.lease_stall(
                    TARGET, seconds=1.0, attempts=2
                ),
                poll_seconds=0.02,
                tracer=tracers["sleepy"],
            )

        thread = threading.Thread(target=stall_worker)
        thread.start()
        time.sleep(0.35)
        peer = run_worker(
            board_dir, owner="peer", engine="scalar",
            poll_seconds=0.02, tracer=tracers["peer"],
        )
        thread.join()
        for tracer in tracers.values():
            tracer.close()
        assert peer.stolen >= 1
        merged, names = merge_campaign_records(board_dir)
        track_of = {name: pid for pid, name in names.items()}
        jobs = [
            r for r in merged
            if r.get("kind") == "span" and r.get("name") == "campaign-job"
        ]
        abandoned = [
            r for r in jobs
            if r["segment"] == track_of["campaign sleepy"]
            and r["attrs"].get("abandoned")
        ]
        stolen = [
            r for r in jobs
            if r["segment"] == track_of["campaign peer"]
            and r["attrs"].get("stolen")
        ]
        assert abandoned and stolen
        _assert_no_duplicate_completions(board_dir)

    def test_coordinator_kill_resume_merge_is_byte_identical(
        self, tmp_path, reference
    ):
        # A coordinator killed mid-campaign leaves a partial board; after
        # the resumed campaign drains it, exporting the merged trace is a
        # pure function — repeated exports produce identical bytes.
        self._traced_campaign(tmp_path, max_jobs_per_shard=1, collate=False)
        board_dir, trace_dir, result = self._traced_campaign(tmp_path)
        assert result.status["done"] == 6
        from repro.obs.merge import export_campaign_trace

        paths = export_campaign_trace(board_dir, trace_dir)
        with open(paths["chrome"], "rb") as handle:
            first = handle.read()
        export_campaign_trace(board_dir, trace_dir)
        with open(paths["chrome"], "rb") as handle:
            assert handle.read() == first
        _assert_no_duplicate_completions(board_dir)
        _assert_bit_identical(result.gemstone, reference)
