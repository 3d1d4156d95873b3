"""Unit tests for the campaign job board: sync, leases, journal, CLI.

Board mechanics (claim/steal/poison/journal) are exercised with
hand-built jobs so no simulation runs; one tiny real campaign covers the
worker loop and the ``gemstone campaign`` CLI end to end.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from collections import Counter

import pytest

from repro.cli import main
from repro.core.pipeline import GemStoneConfig
from repro.core.runstate import RunManifest
from repro.sim.campaign import (
    BOARD_SCHEMA_VERSION,
    QUEUED,
    CampaignBoard,
    JobState,
    fold_job_states,
    _write_cumulative_snapshot,
    campaign_jobs,
    run_worker,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.executor import RetryPolicy, SimExecutor, SimTelemetry
from repro.sim.faults import FaultPlan
from repro.sim.guard import GuardPlan
from repro.sim.machine import gem5_ex5_big, hardware_a15, hardware_a7
from repro.sim.platform import HardwarePlatform
from repro.sim.result_cache import SimJob, machine_from_spec
from repro.workloads.suites import workload_by_name


def _fake_job(ordinal: int) -> SimJob:
    """A distinct board job; board mechanics never compile or run it."""
    return SimJob(
        workload_by_name("mi-sha"), 1_000 + ordinal, hardware_a15()
    )


@pytest.fixture()
def board(tmp_path):
    return CampaignBoard(str(tmp_path / "board"), ttl_seconds=5.0)


class TestMachineSpecRoundTrip:
    @pytest.mark.parametrize(
        "factory", [hardware_a15, hardware_a7, gem5_ex5_big],
        ids=["hw-a15", "hw-a7", "gem5-ex5-big"],
    )
    def test_asdict_round_trips(self, factory):
        machine = factory()
        assert machine_from_spec(dataclasses.asdict(machine)) == machine


class TestCampaignJobs:
    def test_jobs_cover_both_machines_and_are_deterministic(self):
        profiles = tuple(
            workload_by_name(n) for n in ("mi-sha", "dhrystone")
        )
        config = GemStoneConfig(
            core="A15",
            workloads=profiles,
            power_workloads=profiles,
            trace_instructions=2_000,
        )
        jobs = campaign_jobs(config)
        # Validation workloads each need hw + gem5; the power pass shares
        # the hw results, so no extra jobs appear.
        assert len(jobs) == 4
        machines = {(j.profile.name, j.machine.name) for j in jobs}
        assert len(machines) == 4
        assert campaign_jobs(config) == jobs
        # Board jobs are the executor's jobs: the front-ends key the same.
        platform = HardwarePlatform("A15", trace_instructions=2_000)
        assert {platform.job_for(p).key for p in profiles} <= {
            j.key for j in jobs
        }

    def test_board_job_file_round_trips_the_recipe(self, board):
        edited = dataclasses.replace(workload_by_name("mi-sha"), ilp=1.0)
        job = SimJob(edited, 2_000, gem5_ex5_big())
        board.create_or_sync("fp", [_fake_job(0), job])
        assert board.load_job(job.key) == (job, 1)
        assert board.load_job(job.key)[0].key == job.key


class TestBoardSync:
    def test_sync_queues_then_reports_pending(self, board):
        jobs = [_fake_job(i) for i in range(3)]
        first = board.create_or_sync("fp", jobs)
        assert first == {
            "queued": 3, "reused": 0, "requeued": 0, "retired": 0,
            "pending": 0,
        }
        second = board.create_or_sync("fp", jobs)
        assert second["queued"] == 0
        assert second["pending"] == 3
        events = [r["event"] for r in board.read_journal()]
        assert events.count("board-synced") == 1
        assert events.count("job-queued") == 3

    def test_sync_retires_unwanted_keys(self, board):
        jobs = [_fake_job(i) for i in range(3)]
        board.create_or_sync("fp", jobs)
        counts = board.create_or_sync("fp", jobs[:1])
        assert counts["retired"] == 2
        assert board.job_keys() == [jobs[0].key]

    def test_fingerprint_change_is_journalled(self, board):
        board.create_or_sync("fp-a", [_fake_job(0)])
        board.create_or_sync("fp-b", [_fake_job(0)])
        synced = [
            r for r in board.read_journal() if r["event"] == "board-synced"
        ]
        assert [r["fingerprint"] for r in synced] == ["fp-a", "fp-b"]
        assert synced[1]["previous"] == "fp-a"


class TestLeasing:
    def test_claims_scan_sorted_and_exclude_leased(self, board):
        jobs = sorted((_fake_job(i) for i in range(2)), key=lambda j: j.key)
        board.create_or_sync("fp", jobs)
        first = board.claim("alice")
        second = board.claim("bob")
        assert first.job.key == jobs[0].key
        assert not first.stolen and first.attempt == 1
        assert second.job.key == jobs[1].key
        # Everything is leased and live: no third claim.
        assert board.claim("carol") is None

    def test_done_jobs_are_never_reclaimed(self, board):
        board.create_or_sync("fp", [_fake_job(0)])
        claim = board.claim("alice")
        board.mark_done(claim.job.key, "alice")
        assert board.claim("bob") is None
        assert board.all_settled()

    def test_expired_lease_is_stolen_with_attempt_bump(self, tmp_path):
        board = CampaignBoard(str(tmp_path), ttl_seconds=0.05)
        board.create_or_sync("fp", [_fake_job(0)])
        claim = board.claim("alice")
        # Age the lease past the TTL without sleeping: the heartbeat and
        # the board clock are both filesystem mtimes.
        past = board.now() - 1.0
        os.utime(board._lease_path(claim.job.key), (past, past))
        stolen = board.claim("bob")
        assert stolen.stolen
        assert stolen.attempt == 2
        assert not board.owns(claim.job.key, "alice")
        assert board.owns(claim.job.key, "bob")
        record = [
            r for r in board.read_journal() if r["event"] == "lease-stolen"
        ][0]
        assert record["previous"] == "alice"
        assert record["owner"] == "bob"
        assert board.metrics.counter("sim.campaign.leases_stolen").value == 1

    def test_exhausted_attempts_poison_the_job(self, tmp_path):
        board = CampaignBoard(str(tmp_path), ttl_seconds=0.05, max_attempts=1)
        board.create_or_sync("fp", [_fake_job(0)])
        claim = board.claim("alice")
        past = board.now() - 1.0
        os.utime(board._lease_path(claim.job.key), (past, past))
        assert board.claim("bob") is None
        poisoned = board.poisoned_jobs()
        assert len(poisoned) == 1
        assert "retry budget exhausted" in poisoned[0][2]
        assert board.all_settled()
        assert board.status()["poisoned"] == 1

    def test_job_file_hashing_to_another_key_is_poisoned(self, board):
        job = _fake_job(0)
        board.create_or_sync("fp", [job])
        path = board._job_path(job.key)
        with open(path) as handle:
            spec = json.load(handle)
        spec["n_instrs"] += 1  # same file name, different recipe
        with open(path, "w") as handle:
            json.dump(spec, handle)
        assert board.load_job(job.key) is None
        assert board.claim("alice") is None
        assert board.poisoned_jobs() == (
            (job.key, "?", "job definition unreadable"),
        )
        assert not os.path.exists(board._lease_path(job.key))
        assert board.all_settled()

    def test_release_requeues_for_the_next_claimant(self, board):
        board.create_or_sync("fp", [_fake_job(0)])
        claim = board.claim("alice")
        assert board.release(claim.job.key, "alice", reason="boom")
        again = board.claim("bob")
        assert again.attempt == 2
        assert not again.stolen  # released, not expired
        record = [
            r for r in board.read_journal() if r["event"] == "job-requeued"
        ][0]
        assert record["reason"] == "boom"

    def test_stale_owner_cannot_mark_a_stolen_job_done(self, tmp_path):
        board = CampaignBoard(str(tmp_path), ttl_seconds=0.05)
        board.create_or_sync("fp", [_fake_job(0)])
        key = board.claim("alice").job.key
        past = board.now() - 1.0
        os.utime(board._lease_path(key), (past, past))
        assert board.claim("bob").stolen
        assert board.mark_done(key, "bob") is True
        # Alice wakes after the steal: her mark_done must change nothing.
        assert board.mark_done(key, "alice") is False
        outcomes = [
            (r["event"], r["owner"]) for r in board.read_journal()
            if r["event"] in ("job-done", "job-abandoned")
        ]
        assert outcomes == [("job-done", "bob"), ("job-abandoned", "alice")]
        assert board.job_states()[key] == JobState("done", attempts=2)
        assert board.status()["done"] == 1
        assert board.metrics.counter("sim.campaign.jobs_done").value == 1
        assert board.metrics.counter("sim.campaign.jobs_abandoned").value == 1

    def test_released_attempts_count_toward_the_budget(self, tmp_path):
        board = CampaignBoard(str(tmp_path), max_attempts=2)
        board.create_or_sync("fp", [_fake_job(0)])
        for owner in ("alice", "bob"):
            key = board.claim(owner).job.key
            assert board.release(key, owner, reason="boom")
        assert board.claim("carol") is None
        assert board.job_states()[key] == JobState(
            "poisoned", 2, "retry budget exhausted after 2 attempt(s)"
        )

    def test_heartbeat_fails_after_losing_the_lease(self, board):
        board.create_or_sync("fp", [_fake_job(0)])
        claim = board.claim("alice")
        assert board.heartbeat(claim.job.key, "alice")
        board.release(claim.job.key, "alice")
        assert not board.heartbeat(claim.job.key, "alice")


class TestFoldJobStates:
    @staticmethod
    def _fold(*events):
        return fold_job_states(
            [{"event": event, "key": "k", **fields} for event, fields in events]
        )

    CLAIM = ("lease-claimed", {"owner": "a", "attempt": 1})
    STEAL = ("lease-stolen", {"owner": "b", "previous": "a", "attempt": 2})

    @pytest.mark.parametrize("events, expected", [
        ([], None),
        ([("job-queued", {})], QUEUED),
        ([CLAIM], JobState("leased", 1)),
        ([CLAIM, STEAL], JobState("leased", 2)),
        ([CLAIM, ("job-requeued", {"owner": "a"})], JobState("queued", 1)),
        ([CLAIM, STEAL, ("job-done", {"owner": "b"})], JobState("done", 2)),
        ([CLAIM, STEAL, ("job-done", {"owner": "b"}),
          ("job-requeued", {"owner": "sync"})], QUEUED),
        ([("job-reused", {})], JobState("done")),
        ([CLAIM, ("job-poisoned", {"reason": "boom"})],
         JobState("poisoned", 1, "boom")),
        ([CLAIM, ("job-abandoned", {"owner": "z"})], JobState("leased", 1)),
        ([CLAIM, ("job-done", {}), ("job-retired", {})], None),
        ([CLAIM, ("job-retired", {}), ("job-queued", {})], QUEUED),
    ], ids=[
        "unmentioned", "queued", "claimed", "stolen", "released-keeps-budget",
        "done", "sync-requeue-fresh-budget", "reused", "poisoned",
        "abandoned-changes-nothing", "retired-forgotten", "requeued-fresh",
    ])
    def test_fold(self, events, expected):
        assert self._fold(*events).get("k") == expected

    def test_board_state_comes_from_the_journal_alone(self, tmp_path):
        board = CampaignBoard(str(tmp_path), ttl_seconds=0.05)
        board.create_or_sync("fp", [_fake_job(i) for i in range(3)])
        done, leased = board.claim("a"), board.claim("b")
        board.mark_done(done.job.key, "a")
        assert board.status() == {
            "total": 3, "done": 1, "poisoned": 0, "leased": 1, "queued": 1,
        }
        assert sorted(os.listdir(tmp_path)) == [
            ".clock", "board.json", "board.lock", "jobs", "journal.jsonl",
            "leases", "obs", "results",
        ]
        assert os.listdir(tmp_path / "leases") == [f"{leased.job.key}.lease"]


class TestJournal:
    def test_torn_tail_is_dropped_and_seq_recovers(self, board):
        board.create_or_sync("fp", [_fake_job(0)])
        intact = board.read_journal()
        with open(board.journal_path, "a") as handle:
            handle.write('{"seq": 99, "event": "torn"\n')
        assert board.read_journal() == intact
        with board._lock():
            board._append_journal("after-tear")
        records = board.read_journal()
        assert records[-1]["event"] == "after-tear"
        assert records[-1]["seq"] == intact[-1]["seq"] + 1

    def test_checksum_mismatch_truncates(self, board):
        board.create_or_sync("fp", [_fake_job(0), _fake_job(1)])
        records = board.read_journal()
        tampered = dict(records[1])
        tampered["event"] = "forged"
        lines = [json.dumps(r, sort_keys=True) for r in records]
        lines[1] = json.dumps(tampered, sort_keys=True)
        with open(board.journal_path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        assert board.read_journal() == records[:1]


class TestBoardOpen:
    def test_open_adopts_recorded_settings(self, tmp_path):
        board = CampaignBoard(str(tmp_path), ttl_seconds=1.5, max_attempts=7)
        board.create_or_sync("fp", [])
        reopened = CampaignBoard.open(str(tmp_path))
        assert reopened.ttl_seconds == 1.5
        assert reopened.max_attempts == 7

    def test_open_rejects_missing_and_newer_boards(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CampaignBoard.open(str(tmp_path / "nowhere"))
        board = CampaignBoard(str(tmp_path))
        board.create_or_sync("fp", [])
        meta = json.load(open(board.meta_path))
        meta["schema"] = 99
        with open(board.meta_path, "w") as handle:
            json.dump(meta, handle)
        with pytest.raises(ValueError, match="schema"):
            CampaignBoard.open(str(tmp_path))

    def test_sync_rejects_another_schema_and_touches_nothing(self, tmp_path):
        board = CampaignBoard(str(tmp_path))
        jobs = [_fake_job(0)]
        board.create_or_sync("fp", jobs)
        meta = json.load(open(board.meta_path))
        meta["schema"] = BOARD_SCHEMA_VERSION - 1
        with open(board.meta_path, "w") as handle:
            json.dump(meta, handle)

        def tree():
            return {
                os.path.join(root, name): (
                    open(os.path.join(root, name), "rb").read(),
                    os.stat(os.path.join(root, name)).st_mtime_ns,
                )
                for root, _dirs, names in os.walk(tmp_path)
                for name in names
            }

        before = tree()
        with pytest.raises(ValueError, match="schema"):
            board.create_or_sync("fp", jobs)
        assert tree() == before

    def test_invalid_settings_are_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ttl_seconds"):
            CampaignBoard(str(tmp_path), ttl_seconds=0)
        with pytest.raises(ValueError, match="max_attempts"):
            CampaignBoard(str(tmp_path), max_attempts=0)


@pytest.fixture(scope="module")
def tiny_board(tmp_path_factory):
    """A real one-workload board, fully drained by one worker."""
    directory = str(tmp_path_factory.mktemp("campaign") / "board")
    profiles = (workload_by_name("mi-sha"),)
    config = GemStoneConfig(
        core="A15",
        workloads=profiles,
        power_workloads=profiles,
        trace_instructions=2_000,
        retry=RetryPolicy(max_attempts=2, base_seconds=0.0),
        engine="scalar",
        guard_level="off",
    )
    board = CampaignBoard(directory)
    board.create_or_sync(
        RunManifest.from_config(config).fingerprint, campaign_jobs(config)
    )
    return directory


@pytest.mark.dist
class TestWorkerLoop:
    def test_worker_drains_board_and_reuses_results(self, tiny_board):
        report = run_worker(
            tiny_board, owner="unit", engine="scalar"
        )
        assert report.done == 2
        assert report.errors == 0
        board = CampaignBoard.open(tiny_board)
        assert board.all_settled()
        # A second worker finds nothing to do.
        idle = run_worker(
            tiny_board, owner="late", engine="scalar"
        )
        assert idle.claimed == 0

    def test_orphaned_result_is_adopted_not_recomputed(self, tmp_path):
        board, _fp, jobs = _one_workload_board(tmp_path)
        metrics = MetricsRegistry()
        # Attempt 1 of each job stores its result, then the in-process
        # shard crash raises before the job-done append: an orphaned but
        # intact result, whose requeued job attempt 2 adopts.
        report = run_worker(
            board.directory, owner="healer", engine="scalar",
            faults=FaultPlan.shard_crash("mi-sha", attempts=1),
            metrics=metrics,
        )
        assert (report.errors, report.adopted, report.done) == (2, 2, 2)
        assert SimTelemetry(metrics).jobs_run == len(jobs)
        done = [r for r in board.read_journal() if r["event"] == "job-done"]
        assert sorted(r["key"] for r in done) == sorted(j.key for j in jobs)
        assert all(r["adopted"] for r in done)
        assert {board.job_states()[j.key].attempts for j in jobs} == {2}

    def test_worker_span_closes_when_a_claim_raises(
        self, tiny_board, monkeypatch
    ):
        def locked_out(self, owner):
            raise OSError("board lock unavailable")

        monkeypatch.setattr(CampaignBoard, "claim", locked_out)
        tracer = Tracer(enabled=True)
        with pytest.raises(OSError, match="board lock unavailable"):
            run_worker(tiny_board, owner="locked-out", tracer=tracer)
        spans = [r for r in tracer.records if r["name"] == "campaign-worker"]
        assert [(s["status"], s["attrs"]["error"]) for s in spans] == [
            ("error", "OSError")
        ]


def _one_workload_board(tmp_path):
    """A fresh board for ``mi-sha`` on both machines, and its jobs."""
    profiles = (workload_by_name("mi-sha"),)
    config = GemStoneConfig(
        core="A15",
        workloads=profiles,
        power_workloads=profiles,
        trace_instructions=2_000,
    )
    jobs = campaign_jobs(config)
    board = CampaignBoard(str(tmp_path / "board"))
    fingerprint = RunManifest.from_config(config).fingerprint
    board.create_or_sync(fingerprint, jobs)
    return board, fingerprint, jobs


@pytest.mark.dist
class TestWorkerJobFaults:
    """Job faults reach a shard through its executor, as in a serial run."""

    def test_crash_fault_raises_and_requeues(self, tmp_path):
        board, _fp, jobs = _one_workload_board(tmp_path)
        report = run_worker(
            board.directory, owner="crashy", engine="scalar",
            faults=FaultPlan.crash_workload("mi-sha", attempts=1),
        )
        # Attempt 1 of each job raises InjectedFault; attempt 2 completes.
        assert (report.errors, report.done) == (len(jobs), len(jobs))
        reasons = [
            r["reason"] for r in board.read_journal()
            if r["event"] == "job-requeued"
        ]
        assert len(reasons) == len(jobs)
        assert all(r.startswith("InjectedFault: ") for r in reasons)
        assert board.all_settled()

    def test_corrupt_cache_fault_garbles_shard_writes(self, tmp_path):
        board, fingerprint, jobs = _one_workload_board(tmp_path)
        report = run_worker(
            board.directory, owner="garbler", engine="scalar",
            faults=FaultPlan.corrupt_cache("mi-sha"),
        )
        assert report.done == len(jobs)
        # The next sync finds every garbled entry and re-queues its job.
        assert board.create_or_sync(fingerprint, jobs)["requeued"] == len(jobs)
        assert board.store().metrics.counter("sim.cache.quarantined").value == len(jobs)


@pytest.mark.dist
class TestDurableWrites:
    def test_a_drained_job_costs_four_fsyncs(self, tmp_path, monkeypatch):
        board, _fp, jobs = _one_workload_board(tmp_path)
        journal = os.stat(board.journal_path).st_ino
        synced = []
        real_fsync = os.fsync

        def recording(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording)
        report = run_worker(board.directory, owner="w", engine="scalar")
        monkeypatch.undo()
        assert report.done == len(jobs)
        results = {
            os.stat(os.path.join(board.results_dir, name)).st_ino
            for name in os.listdir(board.results_dir)
        }
        kinds = Counter(
            "journal" if ino == journal
            else "result" if ino in results else "lease"
            for ino in synced
        )
        # Per job: the lease, the claim and done appends, the result.
        assert kinds == {
            "lease": len(jobs), "journal": 2 * len(jobs), "result": len(jobs),
        }


@pytest.mark.dist
class TestWorkerGuard:
    def test_shard_records_guard_events_like_the_executor(self, tmp_path):
        board, _fp, jobs = _one_workload_board(tmp_path)
        faults = FaultPlan.nan_pass("mi-sha")
        metrics = MetricsRegistry()
        report = run_worker(
            board.directory, owner="guarded", guard_level="sentinel",
            faults=faults, metrics=metrics,
        )
        assert report.done == len(jobs) == 2

        executor = SimExecutor(
            guard=GuardPlan(level="sentinel"), faults=faults
        )
        executor.run_many(jobs)
        expected = executor.metrics.values_with_prefix("sim.guard.")
        assert expected["sim.guard.nan_fallbacks"] == 2
        assert metrics.values_with_prefix("sim.guard.") == expected
        shard = SimTelemetry(metrics)
        assert (shard.jobs_run, shard.cache_hits) == (
            executor.telemetry.jobs_run, executor.telemetry.cache_hits
        ) == (2, 0)


class TestCumulativeSnapshot:
    @staticmethod
    def _registry(done: int) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("campaign.jobs_done").inc(done)
        return registry

    def test_resumed_owner_folds_in_its_prior_snapshot(self, tmp_path):
        obs = str(tmp_path / "obs" / "shard-0")
        _write_cumulative_snapshot(obs, "shard-0", self._registry(2))
        _write_cumulative_snapshot(obs, "shard-0", self._registry(3))
        with open(os.path.join(obs, "metrics.json")) as handle:
            snapshot = json.load(handle)
        assert snapshot == self._registry(5).snapshot()

    def test_first_snapshot_is_quiet_and_garbage_warns_once(
        self, tmp_path, caplog
    ):
        obs = tmp_path / "shard-0"
        obs.mkdir()
        with caplog.at_level("DEBUG", logger="repro.sim.campaign"):
            _write_cumulative_snapshot(str(obs), "shard-0", self._registry(1))
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        (obs / "metrics.json").write_text("garbage")
        caplog.clear()
        with caplog.at_level("DEBUG", logger="repro.sim.campaign"):
            _write_cumulative_snapshot(str(obs), "shard-0", self._registry(2))
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1
        assert "prior shard-0 snapshot unusable" in warnings[0].getMessage()
        snapshot = json.loads((obs / "metrics.json").read_text())
        assert snapshot == self._registry(2).snapshot()

    def test_unusable_prior_snapshot_is_logged_and_replaced(
        self, tmp_path, caplog
    ):
        obs = tmp_path / "coordinator"
        obs.mkdir()
        (obs / "metrics.json").write_text("{not json")
        with caplog.at_level("WARNING", logger="repro.sim.campaign"):
            _write_cumulative_snapshot(
                str(obs), "coordinator", self._registry(4)
            )
        assert "prior coordinator snapshot unusable" in caplog.text
        assert "starting fresh" in caplog.text
        snapshot = json.loads((obs / "metrics.json").read_text())
        assert snapshot == self._registry(4).snapshot()


class TestCampaignCli:
    def test_worker_and_status_round_trip(self, tiny_board, capsys):
        assert main(["campaign", "worker", "--board", tiny_board,
                     "--owner", "cli-w"]) == 0
        out = capsys.readouterr().out
        assert "cli-w" in out
        assert main(["campaign", "status", "--board", tiny_board]) == 0
        out = capsys.readouterr().out
        assert "campaign board" in out
        assert "job-done" in out or "journal tail" in out

    def test_status_without_board_fails_cleanly(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["campaign", "status", "--board", missing]) == 1
        assert "no campaign board" in capsys.readouterr().err
