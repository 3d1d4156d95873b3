"""Distributed sharded campaigns: a file-backed job board with leases.

The paper's full validation sweep (65 workloads x two machine configs, every
DVFS point derived analytically) is embarrassingly parallel, but
:class:`~repro.sim.executor.SimExecutor` tops out at one process pool on one
host — and a lost pool used to mean a lost campaign.  This module scales the
same jobs across any number of *shard* processes (potentially on many hosts
sharing a filesystem) and survives worker loss without losing or duplicating
a single result:

* **Job board** — :class:`CampaignBoard` lays a campaign out under one
  shared directory: one immutable job file per
  :attr:`~repro.sim.result_cache.SimJob.key` holding the job's recipe
  (profile, machine, length) and ordinal, a lease file per in-flight
  job (owner + attempt, heartbeat = the lease file's mtime), done/poison
  markers, and a :class:`~repro.atomicio.Journal`.  All board mutations
  run under one :func:`~repro.atomicio.file_lock`, so claims and steals
  are atomic across processes and hosts.
* **Lease-based work stealing** — a worker claims the first unleased,
  unfinished job; a lease whose heartbeat is older than the board TTL is
  *expired* and deterministically stolen by the next claimant (attempt
  count incremented, journalled).  Expiry is judged against the shared
  filesystem's own clock (the mtime of a freshly touched probe file), so
  the protocol needs no wall-clock reads and works across hosts with
  skewed clocks.
* **One simulate path** — a shard runs each claim through a serial
  :class:`~repro.sim.executor.SimExecutor` over the board's result store,
  exactly as ``gemstone report`` computes a job.  It makes one attempt per
  claim: the board's claim budget is the campaign's only retry loop.
* **Worker-loss recovery** — results land in the board's content-addressed
  :class:`~repro.sim.result_cache.SimResultCache` *before* the done
  marker, so a shard killed between the two leaves an orphaned-but-intact
  result that the stealing shard's executor finds on its cache probe and
  adopts instead of recomputing.  A shard that lost its lease marks
  nothing done.  A job whose attempts exhaust the retry budget is poisoned
  (the cross-shard analogue of the executor's poison-job circuit breaker)
  and surfaced as a structured failure instead of wedging the campaign.
* **Incremental recompute** — :meth:`CampaignBoard.create_or_sync` diffs a
  new :class:`~repro.core.runstate.RunManifest` against the board: jobs
  whose content-addressed key still has a verified result are marked done
  (``job-reused``), invalidated or corrupt ones are re-queued, and keys no
  longer wanted are retired — all journalled, so tests can assert exactly
  which subgraph re-ran.

The coordinator (:func:`run_campaign`) spawns shards, supervises them,
drains any remainder inline if every shard dies, and finally *collates*
through a normal :class:`~repro.core.pipeline.GemStone` whose executor
reads the campaign's store — so a clean 2-shard campaign is bit-identical
to a serial run by construction.

The durable formats (journal, result envelope, quarantine, lock) are those
of :mod:`repro.atomicio`.  ``repro.core`` symbols are imported lazily inside
functions: this module lives in ``repro.sim``, which the core pipeline
imports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass

from repro.atomicio import (
    Journal,
    atomic_write_text,
    file_lock,
    remove_quietly,
    touch,
)
from repro.obs.exporters import write_prometheus_snapshot
from repro.obs.log import get_logger
from repro.obs.merge import (
    autotune_hint,
    campaign_health,
    record_health_gauges,
    merge_board_metrics,
    registry_from_snapshot,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.executor import RetryPolicy, SimExecutor, SimJobError
from repro.sim.faults import InjectedFault
from repro.sim.guard import GuardEvent, GuardPlan
from repro.sim.machine import hardware_a15, hardware_a7
from repro.sim.result_cache import SimJob, SimResultCache

logger = get_logger(__name__)

#: Bump when the board layout or journal envelope changes (v3: job files
#: hold the SimJob recipe instead of a workload name).
BOARD_SCHEMA_VERSION = 3


# ------------------------------------------------------------------- jobs
def campaign_jobs(config) -> list[SimJob]:
    """The simulation jobs one resolved GemStone configuration needs.

    Validation workloads run on both the reference hardware and the gem5
    model; power workloads additionally run on hardware only (the power
    ground truth needs no gem5 pass).  Frequencies are applied
    analytically downstream, so the job unit is exactly the executor's
    :class:`~repro.sim.result_cache.SimJob`.  A job's list position is its
    ordinal (fault matching, stable ordering); nothing is compiled here.
    """
    hardware = hardware_a15() if config.core == "A15" else hardware_a7()
    gem5 = config.resolve_machine()
    wanted: dict[tuple[str, str], tuple] = {}
    for profile in config.resolve_workloads():
        wanted[(profile.name, "hw")] = (profile, hardware)
        wanted[(profile.name, "gem5")] = (profile, gem5)
    for profile in config.resolve_power_workloads():
        wanted.setdefault((profile.name, "hw"), (profile, hardware))
    return [
        SimJob(profile, int(config.trace_instructions), machine)
        for _, (profile, machine) in sorted(wanted.items(), key=lambda i: i[0])
    ]


@dataclass(frozen=True)
class Claim:
    """One granted lease: job, ordinal, attempt count and how it was won."""

    job: SimJob
    ordinal: int
    attempt: int
    stolen: bool


# ------------------------------------------------------------------ board
class CampaignBoard:
    """File-backed job board for one campaign under a shared directory.

    Layout::

        board.json           schema, fingerprint, ttl, retry budget
        board.lock           file_lock serialising all mutations
        .clock               probe file; its mtime is the board's clock
        journal.jsonl        the board's repro.atomicio.Journal
        jobs/<key>.json      immutable SimJob recipes plus ordinal
        state/<key>.json     mutable attempt/steal counters
        leases/<key>.lease   owner + attempt; mtime is the heartbeat
        done/<key>.json      completion markers
        poisoned/<key>.json  circuit-broken jobs with their reason
        results/<key>.json   the result store (a SimResultCache)

    Every mutation (claim, steal, release, done, poison, journal append)
    runs under the board's lock, so any number of processes —
    on any number of hosts sharing the directory — see a consistent
    board.  Lease expiry compares mtimes against the mtime of a freshly
    touched probe file (:meth:`now`), never a wall clock.

    Args:
        directory: Board directory (created on demand).
        ttl_seconds: Heartbeat TTL; an older lease is stealable.
        max_attempts: Claims allowed per job before it is poisoned.
        metrics: Shared registry the board bumps its ``sim.campaign.*``
            counters in, one per journalled outcome (``jobs_claimed``,
            ``leases_stolen``, ``jobs_done``, ...); private when not given.
    """

    def __init__(
        self,
        directory: str,
        ttl_seconds: float = 5.0,
        max_attempts: int = 3,
        metrics: MetricsRegistry | None = None,
    ):
        if ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be positive, got {ttl_seconds}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.directory = directory
        self.ttl_seconds = float(ttl_seconds)
        self.max_attempts = int(max_attempts)
        self._journal = Journal(self.journal_path)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        for sub in ("jobs", "state", "leases", "done", "poisoned", "results",
                    "obs"):
            os.makedirs(os.path.join(directory, sub), exist_ok=True)

    @classmethod
    def open(
        cls, directory: str, metrics: MetricsRegistry | None = None
    ) -> "CampaignBoard":
        """Attach to an existing board, adopting its recorded settings.

        Raises:
            FileNotFoundError: When the directory holds no ``board.json``.
            ValueError: When the board was written by a newer schema.
        """
        with open(os.path.join(directory, "board.json")) as handle:
            meta = json.load(handle)
        if meta.get("schema") != BOARD_SCHEMA_VERSION:
            raise ValueError(
                f"board at {directory} has schema {meta.get('schema')!r}; "
                f"this build reads schema {BOARD_SCHEMA_VERSION}"
            )
        return cls(
            directory,
            ttl_seconds=meta["ttl_seconds"],
            max_attempts=meta["max_attempts"],
            metrics=metrics,
        )

    # ---------------------------------------------------------------- paths
    @property
    def meta_path(self) -> str:
        return os.path.join(self.directory, "board.json")

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, "journal.jsonl")

    @property
    def results_dir(self) -> str:
        return os.path.join(self.directory, "results")

    def _job_path(self, key: str) -> str:
        return os.path.join(self.directory, "jobs", f"{key}.json")

    def _state_path(self, key: str) -> str:
        return os.path.join(self.directory, "state", f"{key}.json")

    def _lease_path(self, key: str) -> str:
        return os.path.join(self.directory, "leases", f"{key}.lease")

    def _done_path(self, key: str) -> str:
        return os.path.join(self.directory, "done", f"{key}.json")

    def _poison_path(self, key: str) -> str:
        return os.path.join(self.directory, "poisoned", f"{key}.json")

    def store(self) -> SimResultCache:
        """The campaign's shared result store (one per call, same files)."""
        return SimResultCache(self.results_dir, metrics=self.metrics)

    # ----------------------------------------------------------- primitives
    @contextlib.contextmanager
    def _lock(self):
        """Board-wide mutual exclusion over claims, steals and the journal.

        Raises ``OSError`` when the lock file cannot be opened, so a board
        never silently runs without its lock.
        """
        waited = time.perf_counter()
        with file_lock(os.path.join(self.directory, "board.lock")):
            self.metrics.histogram(
                "sim.campaign.board.flock_wait.seconds"
            ).observe(time.perf_counter() - waited)
            yield

    def now(self) -> float:
        """The shared filesystem's clock: a touched probe file's mtime.

        Lease expiry compares this against lease mtimes, so the decision
        uses the *same* clock that stamped the heartbeat — meaningful
        across hosts with skewed wall clocks, and free of wall-clock reads
        (a determinism lint error in ``repro.sim``).
        """
        probe = os.path.join(self.directory, ".clock")
        touch(probe)
        return os.stat(probe).st_mtime

    def _append_journal(self, event: str, **fields) -> None:
        """Append one journal record; the caller holds the board lock.

        ``clock`` stamps the record with the board's shared-filesystem
        clock (never wall time), so ``campaign status --detail`` can derive
        completion rates and an ETA from journal deltas.
        """
        started = time.perf_counter()
        clock = self.now()
        try:
            self._journal.append(event, clock=clock, **fields)
        except OSError as exc:
            logger.warning("campaign journal append failed: %s", exc)
        if self._journal.dropped:
            logger.warning(
                "campaign journal at %s had a torn tail; truncated %d line(s)",
                self.journal_path, self._journal.dropped,
            )
        self.metrics.histogram(
            "sim.campaign.journal.append.seconds"
        ).observe(time.perf_counter() - started)

    def read_journal(self) -> list[dict]:
        """Verified journal records, oldest first (torn tail dropped)."""
        return self._journal.read()

    def _read_json(self, path: str) -> dict | None:
        try:
            with open(path) as handle:
                return json.load(handle)
        except FileNotFoundError:
            logger.debug("board artifact absent: %s", path)
            return None
        except (OSError, ValueError) as exc:
            logger.debug("unreadable board artifact %s: %s", path, exc)
            return None

    def _read_state(self, key: str) -> dict:
        state = self._read_json(self._state_path(key))
        if state is None:
            return {"attempts": 0, "steals": 0}
        return {
            "attempts": int(state.get("attempts", 0)),
            "steals": int(state.get("steals", 0)),
        }

    def job_keys(self) -> list[str]:
        """Every job key on the board, sorted (the claim scan order)."""
        try:
            names = os.listdir(os.path.join(self.directory, "jobs"))
        except OSError as exc:
            logger.debug("board jobs dir unlistable: %s", exc)
            return []
        return sorted(
            name[: -len(".json")] for name in names if name.endswith(".json")
        )

    def load_job(self, key: str) -> tuple[SimJob, int] | None:
        """The immutable ``(job, ordinal)`` stored under one key, or None.

        A job file whose recipe does not hash to its key (hand-edited, or
        written by a shard with another trace-compiler version or machine
        schema) is unreadable too: running it would file its result under
        a key nobody leased.
        """
        data = self._read_json(self._job_path(key))
        if data is None:
            return None
        try:
            job = SimJob.from_spec(data)
            ordinal = int(data["ordinal"])
        except (KeyError, TypeError, ValueError) as exc:
            logger.debug("undecodable board job %s: %s", key, exc)
            return None
        if job.key != key:
            logger.debug("board job %s hashes to %s", key, job.key)
            return None
        return job, ordinal

    def job_names(self, key: str) -> tuple[str, str]:
        """``(workload, machine)`` names of one board job, ``?`` if unreadable."""
        loaded = self.load_job(key)
        if loaded is None:
            return "?", "*"
        return loaded[0].profile.name, loaded[0].machine.name

    # ----------------------------------------------------------------- sync
    def create_or_sync(
        self, fingerprint: str, jobs: list[SimJob]
    ) -> dict[str, int]:
        """Bring the board in line with one manifest's job set.

        A job's position in ``jobs`` is its ordinal.

        The incremental-recompute entry point: jobs whose content-addressed
        key already has a *verified* result are marked done (``job-reused``
        in the journal, never re-run); done markers whose result is missing
        or corrupt are re-queued with a fresh attempt budget; keys the new
        configuration no longer wants are retired.  Everything else is
        queued.  Returns the counts, which tests assert against the
        journal.
        """
        counts = {"queued": 0, "reused": 0, "requeued": 0, "retired": 0,
                  "pending": 0}
        store = self.store()
        with self._lock():
            meta = self._read_json(self.meta_path)
            if meta is None or meta.get("fingerprint") != fingerprint:
                atomic_write_text(
                    self.meta_path,
                    json.dumps(
                        {
                            "schema": BOARD_SCHEMA_VERSION,
                            "fingerprint": fingerprint,
                            "ttl_seconds": self.ttl_seconds,
                            "max_attempts": self.max_attempts,
                        },
                        indent=2,
                        sort_keys=True,
                    ),
                )
                self._append_journal(
                    "board-synced",
                    fingerprint=fingerprint,
                    previous=meta.get("fingerprint") if meta else None,
                )
            wanted = {job.key: (ordinal, job) for ordinal, job in enumerate(jobs)}
            known = set(self.job_keys())
            for key in sorted(known - set(wanted)):
                for path in (
                    self._job_path(key), self._state_path(key),
                    self._lease_path(key), self._done_path(key),
                    self._poison_path(key),
                ):
                    remove_quietly(path)
                self._append_journal("job-retired", key=key)
                counts["retired"] += 1
            for key, (ordinal, job) in sorted(
                wanted.items(), key=lambda item: item[1][0]
            ):
                if key not in known:
                    atomic_write_text(
                        self._job_path(key),
                        json.dumps(
                            {**dataclasses.asdict(job), "ordinal": ordinal},
                            sort_keys=True,
                        ),
                    )
                    self._append_journal(
                        "job-queued", key=key, workload=job.profile.name,
                        machine=job.machine.name,
                    )
                was_done = os.path.exists(self._done_path(key))
                if store.get(job) is not None:
                    if not was_done:
                        atomic_write_text(
                            self._done_path(key),
                            json.dumps({"owner": "sync", "adopted": True}),
                        )
                        self._append_journal(
                            "job-reused", key=key, workload=job.profile.name
                        )
                    counts["reused"] += 1
                elif was_done:
                    # Done marker without an intact result: the store entry
                    # was invalidated or corrupted; give the job a fresh
                    # budget and re-queue it.
                    for path in (self._done_path(key), self._state_path(key)):
                        remove_quietly(path)
                    self._append_journal(
                        "job-requeued", key=key, owner="sync",
                        reason="result missing or corrupt",
                    )
                    counts["requeued"] += 1
                elif key not in known:
                    counts["queued"] += 1
                else:
                    counts["pending"] += 1
        for outcome in ("queued", "reused", "requeued", "retired"):
            self.metrics.counter(f"sim.campaign.jobs_{outcome}").inc(
                counts[outcome]
            )
        return counts

    # --------------------------------------------------------------- leasing
    def claim(self, owner: str) -> Claim | None:
        """Claim the first available job for ``owner``, or None.

        Scans keys in sorted order (deterministic across claimants): skips
        done/poisoned jobs and live leases, steals expired leases, and
        poisons jobs whose attempt count would exceed the board budget.
        """
        with self._lock():
            now = self.now()
            for key in self.job_keys():
                if os.path.exists(self._done_path(key)) or os.path.exists(
                    self._poison_path(key)
                ):
                    continue
                state = self._read_state(key)
                lease_path = self._lease_path(key)
                lease = self._read_json(lease_path)
                stolen = False
                if lease is not None:
                    try:
                        age = now - os.stat(lease_path).st_mtime
                    except OSError as exc:
                        logger.debug("lease vanished under claim: %s", exc)
                        age = self.ttl_seconds + 1.0
                    self.metrics.histogram(
                        "sim.campaign.lease.age.seconds"
                    ).observe(max(age, 0.0))
                    if age <= self.ttl_seconds:
                        continue
                    stolen = True
                if state["attempts"] >= self.max_attempts:
                    self._poison_locked(
                        key,
                        f"retry budget exhausted after "
                        f"{state['attempts']} attempt(s)",
                    )
                    continue
                attempt = state["attempts"] + 1
                atomic_write_text(
                    self._state_path(key),
                    json.dumps(
                        {
                            "attempts": attempt,
                            "steals": state["steals"] + int(stolen),
                        },
                        sort_keys=True,
                    ),
                )
                atomic_write_text(
                    lease_path,
                    json.dumps(
                        {"owner": owner, "attempt": attempt}, sort_keys=True
                    ),
                )
                if stolen:
                    self._append_journal(
                        "lease-stolen", key=key, owner=owner,
                        previous=(lease or {}).get("owner"), attempt=attempt,
                    )
                    self.metrics.counter("sim.campaign.leases_stolen").inc()
                else:
                    self._append_journal(
                        "lease-claimed", key=key, owner=owner, attempt=attempt
                    )
                self.metrics.counter("sim.campaign.jobs_claimed").inc()
                loaded = self.load_job(key)
                if loaded is None:
                    # The job file itself is gone, corrupt or hashes to
                    # another key: poison rather than loop forever on it.
                    self._poison_locked(key, "job definition unreadable")
                    continue
                job, ordinal = loaded
                return Claim(
                    job=job, ordinal=ordinal, attempt=attempt, stolen=stolen
                )
        return None

    def _poison_locked(self, key: str, reason: str) -> None:
        """Poison one job (caller holds the board lock)."""
        atomic_write_text(
            self._poison_path(key), json.dumps({"reason": reason})
        )
        remove_quietly(self._lease_path(key))
        self._append_journal("job-poisoned", key=key, reason=reason)
        self.metrics.counter("sim.campaign.jobs_poisoned").inc()

    def owns(self, key: str, owner: str) -> bool:
        """True while ``owner`` still holds the lease on ``key``."""
        lease = self._read_json(self._lease_path(key))
        return lease is not None and lease.get("owner") == owner

    def heartbeat(self, key: str, owner: str) -> bool:
        """Refresh the lease heartbeat; False once the lease was lost."""
        with self._lock():
            if not self.owns(key, owner):
                return False
            try:
                touch(self._lease_path(key))
            except OSError as exc:
                logger.debug("heartbeat on %s failed: %s", key, exc)
                return False
        return True

    def release(self, key: str, owner: str, reason: str = "") -> bool:
        """Give an errored job's lease back (requeue); no-op if not owner."""
        with self._lock():
            if not self.owns(key, owner):
                return False
            remove_quietly(self._lease_path(key))
            self._append_journal(
                "job-requeued", key=key, owner=owner, reason=reason
            )
        self.metrics.counter("sim.campaign.jobs_requeued").inc()
        return True

    def mark_done(self, key: str, owner: str, adopted: bool = False) -> bool:
        """Mark one job complete and drop its lease; False if not owner.

        A claimant whose lease was stolen writes no done marker: it
        journals ``job-abandoned`` instead, so every key reaches
        ``job-done`` exactly once.
        """
        with self._lock():
            if not self.owns(key, owner):
                self._append_journal("job-abandoned", key=key, owner=owner)
                self.metrics.counter("sim.campaign.jobs_abandoned").inc()
                return False
            atomic_write_text(
                self._done_path(key),
                json.dumps({"owner": owner, "adopted": bool(adopted)}),
            )
            remove_quietly(self._lease_path(key))
            self._append_journal(
                "job-done", key=key, owner=owner, adopted=bool(adopted)
            )
        self.metrics.counter("sim.campaign.jobs_done").inc()
        if adopted:
            self.metrics.counter("sim.campaign.jobs_adopted").inc()
        return True

    # ---------------------------------------------------------------- status
    def all_settled(self) -> bool:
        """True once every board job is done or poisoned."""
        keys = self.job_keys()
        return all(
            os.path.exists(self._done_path(key))
            or os.path.exists(self._poison_path(key))
            for key in keys
        )

    def poisoned_jobs(self) -> tuple[tuple[str, str, str], ...]:
        """Every poisoned job as ``(key, workload, reason)``, sorted."""
        out = []
        for key in self.job_keys():
            marker = self._read_json(self._poison_path(key))
            if marker is None:
                continue
            out.append(
                (key, self.job_names(key)[0], marker.get("reason", ""))
            )
        return tuple(out)

    def status(self) -> dict[str, int]:
        """Board-level counts: total/done/poisoned/leased/queued."""
        keys = self.job_keys()
        done = sum(1 for k in keys if os.path.exists(self._done_path(k)))
        poisoned = sum(
            1 for k in keys if os.path.exists(self._poison_path(k))
        )
        leased = sum(
            1
            for k in keys
            if os.path.exists(self._lease_path(k))
            and not os.path.exists(self._done_path(k))
        )
        return {
            "total": len(keys),
            "done": done,
            "poisoned": poisoned,
            "leased": leased,
            "queued": len(keys) - done - poisoned - leased,
        }


# ----------------------------------------------------------------- workers
@dataclass
class WorkerReport:
    """What one shard did over its lifetime (returned by run_worker)."""

    owner: str
    claimed: int = 0
    done: int = 0
    adopted: int = 0
    stolen: int = 0
    abandoned: int = 0
    errors: int = 0


def _heartbeat_loop(
    board: CampaignBoard, key: str, owner: str, stop: threading.Event
) -> None:
    interval = max(board.ttl_seconds / 3.0, 0.01)
    while not stop.wait(interval):
        if not board.heartbeat(key, owner):
            return


def _run_one(
    board: CampaignBoard, executor: SimExecutor, claim: Claim, owner: str,
    report: WorkerReport,
) -> bool:
    """One claimed job through the executor; False if the lease was lost.

    A result the executor's cache probe finds was stored by an earlier
    owner that died before its done marker (or sync raced us): it is
    adopted, never recomputed.
    """
    job = claim.job
    hits = executor.telemetry.cache_hits
    executor.run(job, ordinal=claim.ordinal, attempt=claim.attempt)
    adopted = executor.telemetry.cache_hits > hits
    if not adopted and executor.faults is not None:
        name = job.profile.name
        if executor.faults.shard_fault("stored", name, claim.attempt):
            if multiprocessing.parent_process() is not None:
                os._exit(1)  # a spawned shard dies for real
            raise InjectedFault(
                f"injected shard crash after storing {name} "
                f"(attempt {claim.attempt})"
            )
    if not board.mark_done(job.key, owner, adopted=adopted):
        report.abandoned += 1
        return False
    report.done += 1
    report.adopted += adopted
    return True


def run_worker(
    board_dir: str,
    owner: str | None = None,
    engine: str = "columnar",
    guard_level: str = "off",
    faults=None,
    max_jobs: int | None = None,
    poll_seconds: float = 0.05,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> WorkerReport:
    """One shard's claim-execute loop over an existing board.

    Claims jobs until the board settles (every job done or poisoned) or
    ``max_jobs`` completions, heartbeating each lease from a background
    thread.  Each claim runs through one serial
    :class:`~repro.sim.executor.SimExecutor` over the board's result
    store, making one attempt.  A job that raises is journalled and
    released for the next claimant; the board's attempt budget eventually
    poisons repeat offenders.

    Returns:
        A :class:`WorkerReport` of everything this shard did.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    board = CampaignBoard.open(board_dir, metrics=metrics)
    # Guard and executor outcomes land in this shard's registry, so its
    # snapshot (and the merged campaign metrics) carry the sim.guard.* and
    # sim.executor.* counters.
    executor = SimExecutor(
        jobs=1, cache_dir=board.results_dir, retry=RetryPolicy(max_attempts=1),
        faults=faults, engine=engine, guard=GuardPlan(level=guard_level),
        metrics=board.metrics, tracer=tracer,
    )
    if owner is None:
        owner = f"worker-{os.getpid()}"
    report = WorkerReport(owner=owner)
    with tracer.span(
        "campaign-worker", kind="campaign", owner=owner
    ) as worker_span:
        while max_jobs is None or report.done < max_jobs:
            claim = board.claim(owner)
            if claim is None:
                if board.all_settled():
                    break
                time.sleep(poll_seconds)
                continue
            job, attempt = claim.job, claim.attempt
            name = job.profile.name
            report.claimed += 1
            if claim.stolen:
                report.stolen += 1
            # The span opens before the stall-fault window so a lease lost
            # under a live worker is visible on this shard's track (closed
            # with ``abandoned=True``) while the thief's track carries the
            # matching ``stolen=True`` span.
            with tracer.span(
                "campaign-job", kind="campaign", workload=name,
                machine=job.machine.name, attempt=attempt, owner=owner,
                stolen=claim.stolen,
            ) as jspan:
                # A lease-stall fault sleeps *before* the heartbeat thread
                # starts, so the lease genuinely expires under a live
                # worker, which then loses the job at its done marker.
                stall = (
                    faults.shard_fault("claimed", name, attempt)
                    if faults is not None else None
                )
                if stall is not None:
                    time.sleep(stall.hang_seconds)
                stop = threading.Event()
                beat = threading.Thread(
                    target=_heartbeat_loop,
                    args=(board, job.key, owner, stop), daemon=True,
                )
                beat.start()
                started = time.perf_counter()
                try:
                    if not _run_one(board, executor, claim, owner, report):
                        jspan.set(abandoned=True)
                    board.metrics.histogram(
                        "sim.campaign.job.seconds"
                    ).observe(time.perf_counter() - started)
                except Exception as exc:
                    report.errors += 1
                    board.metrics.counter("sim.campaign.job_errors").inc()
                    # Journal the job's own error, not the executor's
                    # SimJobError wrapper around it.
                    reason = (
                        exc.failure.error if isinstance(exc, SimJobError)
                        else f"{type(exc).__name__}: {exc}"
                    )
                    jspan.set(failed=True, error=reason.partition(":")[0])
                    logger.warning(
                        "campaign job %s on %s failed on attempt %d: %s",
                        name, job.machine.name, attempt, reason,
                    )
                    board.release(job.key, owner, reason=reason)
                finally:
                    stop.set()
                    beat.join()
        worker_span.set(
            claimed=report.claimed, done=report.done, stolen=report.stolen,
            abandoned=report.abandoned, errors=report.errors,
        )
    return report


def _worker_entry(
    board_dir, owner, engine, guard_level, faults, max_jobs, poll_seconds,
    trace=False,
):
    """Spawned-shard entry point (module-level for picklability).

    Every shard owns a private metrics registry and (when ``trace`` is
    set) a tracer streaming checksummed segments into
    ``<board_dir>/obs/<owner>/events.jsonl``.  The metrics snapshot is
    written even on an error exit — only a SIGKILL loses it, and the
    coordinator-side merge tolerates the gap.
    """
    obs_dir = os.path.join(board_dir, "obs", owner)
    metrics = MetricsRegistry()
    tracer = Tracer(
        enabled=bool(trace),
        stream_path=(
            os.path.join(obs_dir, "events.jsonl") if trace else None
        ),
        metrics=metrics,
    )
    try:
        run_worker(
            board_dir,
            owner=owner,
            engine=engine,
            guard_level=guard_level,
            faults=faults,
            max_jobs=max_jobs,
            poll_seconds=poll_seconds,
            metrics=metrics,
            tracer=tracer,
        )
    finally:
        tracer.close()
        _write_cumulative_snapshot(obs_dir, owner, metrics)


def _write_cumulative_snapshot(
    obs_dir: str, owner: str, registry: MetricsRegistry
) -> None:
    """Fold ``registry`` into ``obs_dir/metrics.json`` and rewrite it.

    Cumulative across campaign resumes: an owner (a shard or the
    coordinator) re-spawned on the same board folds its previous snapshot
    in, so the merged campaign snapshot keeps matching the (append-only)
    journal.  An unreadable prior snapshot is logged and replaced.
    """
    os.makedirs(obs_dir, exist_ok=True)
    snapshot_path = os.path.join(obs_dir, "metrics.json")
    cumulative = MetricsRegistry()
    try:
        with open(snapshot_path) as handle:
            prior = json.load(handle)
        if isinstance(prior, dict):
            cumulative.absorb(registry_from_snapshot(prior))
    except (OSError, ValueError, TypeError, KeyError) as exc:
        logger.warning(
            "prior %s snapshot unusable (%s: %s); starting fresh",
            owner, type(exc).__name__, exc,
        )
    cumulative.absorb(registry)
    atomic_write_text(
        snapshot_path,
        json.dumps(cumulative.snapshot(), sort_keys=True) + "\n",
    )


# -------------------------------------------------------------- coordinator
@dataclass
class CampaignResult:
    """Outcome of one coordinated campaign.

    Attributes:
        board_dir: The board directory everything lives under.
        shards: Shard processes requested.
        sync: The :meth:`CampaignBoard.create_or_sync` counts.
        status: Final board counts (total/done/poisoned/leased/queued).
        poisoned: ``(key, workload, reason)`` of circuit-broken jobs.
        lost_shards: Shard processes that exited abnormally.
        health: A :class:`~repro.core.validation.CollectionHealth` holding
            the structured shard-loss / lease-steal / poison records.
        counters: The coordinator's ``sim.campaign.*`` counter values.
        gemstone: The collation :class:`~repro.core.pipeline.GemStone`
            (reading the campaign's store) when ``collate=True``.
        summary: Deterministic campaign section data (job counts, steal /
            abandon totals, the shard-count auto-tune hint) rendered into
            the collation report.
    """

    board_dir: str
    shards: int
    sync: dict
    status: dict
    poisoned: tuple
    lost_shards: int
    health: object
    counters: dict
    gemstone: object | None = None
    summary: dict | None = None

    @property
    def degraded(self) -> bool:
        return bool(self.poisoned or self.lost_shards)


def run_campaign(
    config,
    board_dir: str,
    shards: int = 2,
    ttl_seconds: float = 5.0,
    max_attempts: int | None = None,
    max_jobs_per_shard: int | None = None,
    poll_seconds: float = 0.05,
    collate: bool = True,
    tracer: Tracer | None = None,
) -> CampaignResult:
    """Coordinate one sharded campaign end to end.

    Syncs the board against the config's manifest (incremental recompute:
    verified results are reused, invalidated keys re-queued), spawns
    ``shards`` worker processes, supervises them — if every shard dies
    with work outstanding, the remainder is drained inline so the campaign
    always converges — then reaps exit codes into structured
    ``shard-lost`` guard events and collates through a normal
    :class:`~repro.core.pipeline.GemStone` whose executor reads the
    campaign's result store.  A clean campaign's datasets are bit-identical
    to a serial run; one with shards killed mid-flight converges to the
    same bytes via lease stealing and result adoption.

    Args:
        config: A :class:`~repro.core.pipeline.GemStoneConfig`.
        board_dir: Shared directory for the board (created on demand).
        shards: Worker processes to spawn (>= 1).
        ttl_seconds: Lease heartbeat TTL.
        max_attempts: Claims per job before poisoning; defaults to the
            config's retry policy budget.
        max_jobs_per_shard: Optional per-shard completion cap (tests use
            it to simulate a coordinator killed mid-campaign).
        poll_seconds: Supervision/idle-claim poll interval.
        collate: Build the collation GemStone (datasets, report) once the
            board settles.
        tracer: Coordinator-side tracer; shard workers always stream
            their own tracers into ``<board>/obs/<owner>/`` regardless.

    Raises:
        ValueError: For a non-positive ``shards``.
    """
    from repro.core.runstate import RunManifest
    from repro.core.validation import CollectionHealth

    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    tracer = tracer if tracer is not None else NULL_TRACER
    retry = config.retry if config.retry is not None else RetryPolicy()
    if max_attempts is None:
        max_attempts = retry.max_attempts
    manifest = RunManifest.from_config(config)
    board = CampaignBoard(
        board_dir, ttl_seconds=ttl_seconds, max_attempts=max_attempts
    )
    health = CollectionHealth()
    lost = 0
    with tracer.span(
        "campaign", kind="campaign", shards=shards, board=board_dir
    ):
        sync = board.create_or_sync(manifest.fingerprint, campaign_jobs(config))
        logger.info(
            "campaign board %s synced: %d queued, %d reused, %d requeued, "
            "%d retired", board_dir, sync["queued"], sync["reused"],
            sync["requeued"], sync["retired"],
        )
        procs: list = []
        if not board.all_settled():
            ctx = multiprocessing.get_context()
            for i in range(shards):
                proc = ctx.Process(
                    target=_worker_entry,
                    args=(board_dir, f"shard-{i}", config.engine,
                          config.guard_level, config.faults,
                          max_jobs_per_shard, poll_seconds,
                          tracer.enabled),
                )
                proc.start()
                procs.append(proc)
            board.metrics.counter("sim.campaign.workers_started").inc(len(procs))
            while not board.all_settled():
                if not any(proc.is_alive() for proc in procs):
                    # Every shard is gone (finished, crashed or capped)
                    # with work outstanding: drain inline so the campaign
                    # always converges.  Injected shard crashes raise here
                    # instead of killing the coordinator, so the attempt
                    # budget can poison repeat offenders.
                    logger.warning(
                        "all %d shard(s) exited with work outstanding; "
                        "draining inline", len(procs),
                    )
                    run_worker(
                        board_dir, owner="coordinator",
                        engine=config.engine,
                        guard_level=config.guard_level,
                        faults=config.faults, poll_seconds=poll_seconds,
                        metrics=board.metrics, tracer=tracer,
                    )
                    break
                time.sleep(poll_seconds)
            for proc in procs:
                proc.join()
            for i, proc in enumerate(procs):
                if proc.exitcode not in (0, None):
                    lost += 1
                    health.record_guard_event(
                        GuardEvent(
                            kind="shard-lost", workload="*", machine="*",
                            action="observe",
                            detail=(
                                f"shard-{i} exited with code {proc.exitcode}"
                            ),
                        )
                    )
            board.metrics.counter("sim.campaign.workers_lost").inc(lost)
    journal = board.read_journal()
    events = Counter(record.get("event") for record in journal)
    for record in journal:
        if record.get("event") == "lease-stolen":
            workload, machine = board.job_names(str(record.get("key", "")))
            health.record_guard_event(
                GuardEvent(
                    kind="lease-steal",
                    workload=workload,
                    machine=machine,
                    action="observe",
                    detail=(
                        f"{record.get('owner')} stole attempt "
                        f"{record.get('attempt')} from "
                        f"{record.get('previous')}"
                    ),
                )
            )
    poisoned = board.poisoned_jobs()
    for _key, workload, reason in poisoned:
        health.record_failure(
            workload, 0.0, "campaign", RuntimeError(reason)
        )
    status = board.status()
    stolen = events["lease-stolen"]
    journal_claims = events["lease-claimed"] + stolen
    # The campaign summary is built from journal- and board-derived counts
    # only — no wall-clock, no per-owner scheduling detail — so a clean
    # campaign's report stays byte-identical traced or untraced.  The
    # wall-clock health view (contention index, straggler skew) lives in
    # the merged Prometheus snapshot and ``campaign status --detail``.
    summary = {
        "shards": shards,
        "total": status["total"],
        "done": status["done"],
        "poisoned": status["poisoned"],
        "reused": sync["reused"],
        "requeued": sync["requeued"],
        "stolen": stolen,
        "abandoned": events["job-abandoned"],
        "hint": autotune_hint(
            shards,
            status["total"],
            stolen / journal_claims if journal_claims else 0.0,
        ),
    }
    # Publish the campaign observability artifacts: the coordinator's own
    # metric snapshot (cumulative across resumes, like the shards') and
    # the merged campaign Prometheus snapshot over every obs/ snapshot.
    obs_dir = os.path.join(board_dir, "obs")
    _write_cumulative_snapshot(
        os.path.join(obs_dir, "coordinator"), "coordinator", board.metrics
    )
    merged = merge_board_metrics(board_dir)
    record_health_gauges(merged, campaign_health(merged))
    write_prometheus_snapshot(merged, os.path.join(obs_dir, "metrics.prom"))
    result = CampaignResult(
        board_dir=board_dir,
        shards=shards,
        sync=sync,
        status=status,
        poisoned=poisoned,
        lost_shards=lost,
        health=health,
        counters=board.metrics.values_with_prefix("sim.campaign."),
        gemstone=None,
        summary=summary,
    )
    if collate:
        from repro.core.pipeline import GemStone

        gemstone = GemStone(dataclasses.replace(config, board_dir=board_dir))
        # The campaign counters and the structured degradation records
        # travel with the collation run, so its report and metric
        # snapshots tell the whole story.
        gemstone.metrics.absorb(board.metrics)
        gemstone.campaign = summary
        for event in health.guard_events:
            gemstone.health.record_guard_event(event)
            gemstone.executor.guard.record(event)
        for failure in health.failures:
            gemstone.health.failures.append(failure)
        result = dataclasses.replace(result, gemstone=gemstone)
    return result
