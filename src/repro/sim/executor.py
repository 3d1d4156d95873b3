"""Fault-tolerant parallel fan-out of independent simulation jobs.

GemStone is rerun constantly — after every model adjustment and every
simulator update (Section VII's workflow) — and a cold evaluation simulates
45–65 workloads on two machine configurations.  Every one of those jobs is a
pure function of its :class:`~repro.sim.result_cache.SimJob` (trace recipe
plus machine), so they parallelise perfectly:
:class:`SimExecutor` fans a batch of jobs across a
:class:`~concurrent.futures.ProcessPoolExecutor` and guarantees results that
are bit-identical to running the same jobs serially.

The executor owns the whole memoisation *and* recovery story for a batch:

* **deduplication** — identical in-flight jobs (same ``SimJob.key``) are
  simulated once and the result shared across every requesting slot;
* **disk cache** — when built with a ``cache_dir``, jobs are probed against
  the :class:`~repro.sim.result_cache.SimResultCache` before any trace is
  compiled or any process spawned; workers write their entries atomically
  and the parent *reaps* them from disk rather than shipping results back
  through the pipe;
* **compile on miss** — only jobs the cache cannot answer compile their
  trace.  The serial lane runs a batch recipe by recipe: it compiles each
  recipe once, shares the trace across the batch's machines and drops it
  after the recipe's last job; pool workers receive the small recipe and
  compile it themselves;
* **fault isolation** — each job is submitted individually with an optional
  per-job timeout.  A timed-out, crashed or poisoned job is rerun serially
  in the parent under a deterministic :class:`RetryPolicy`; a broken pool
  (a hard worker death) loses only the jobs that had not finished — every
  completed sibling keeps its result, and every job the pool took down
  with it gets its serial isolation rerun, as does a job whose
  worker-written entry fails to reap.  A job whose rerun confirms it
  killed the worker :data:`POISON_THRESHOLD` times is circuit-broken: it
  never touches a pool again.  Because jobs are pure, recovered results
  are bit-identical to a fault-free run;
* **serial fallback** — ``jobs=1`` (the default everywhere) never spawns a
  process, and a pool that cannot even be constructed (pickling-hostile
  environment) degrades to the serial path with the identical results;
* **observability** — job accounting lives in a
  :class:`~repro.obs.metrics.MetricsRegistry` (:class:`SimTelemetry` is an
  attribute view over its ``sim.executor.*`` counters, surfaced by
  :func:`repro.core.report.render_sim_telemetry` in the full report), and
  an optional :class:`~repro.obs.tracer.Tracer` records per-batch and
  per-job spans — including spans recorded *inside* worker processes,
  shipped back with the results and stitched into the parent tree.

The executor is the only simulate path: the simulator front-ends and every
campaign shard (:mod:`repro.sim.campaign`) run their jobs through it.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.cpu import ENGINES, SimResult
from repro.sim.guard import GuardEvent, GuardPlan, GuardRail, guarded_simulate
from repro.sim.machine import MachineConfig
from repro.sim.result_cache import (
    SimJob,
    SimResultCache,
    cache_spec,
    open_cache_spec,
)
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import SyntheticTrace

logger = get_logger(__name__)

#: Exponent bound for :meth:`RetryPolicy.delay`.  ``2.0 ** 62`` already
#: dwarfs any sane cap, while an unbounded ``2.0 ** attempt`` raises
#: OverflowError once campaign lease re-queues push attempt counts into
#: the thousands.
_MAX_BACKOFF_EXPONENT = 62

#: Confirmed worker kills after which a job is circuit-broken into the
#: parent's serial lane and never submitted to a pool again.
POISON_THRESHOLD = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic bounded retry with exponential backoff (no jitter).

    Attributes:
        max_attempts: Total attempts per job (first try included).
        base_seconds: Delay before the first retry.
        backoff: Multiplier applied per further retry.
        cap_seconds: Upper bound on any single delay.
    """

    max_attempts: int = 3
    base_seconds: float = 0.05
    backoff: float = 2.0
    cap_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_seconds < 0 or self.cap_seconds < 0 or self.backoff < 1.0:
            raise ValueError("delays must be >= 0 and backoff >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt`` (1-based).

        The exponent is bounded so pathological attempt counts (campaign
        lease re-queues) saturate at ``cap_seconds`` instead of raising
        OverflowError from the float power.
        """
        exponent = min(attempt - 1, _MAX_BACKOFF_EXPONENT)
        return min(self.base_seconds * self.backoff**exponent, self.cap_seconds)


@dataclass
class SimJobFailure:
    """A job that exhausted its retry budget; the terminal per-job outcome."""

    trace_name: str
    machine_name: str
    attempts: int
    kind: str  # "timeout" | "crash" | "error" | "oom"
    error: str


class SimJobError(RuntimeError):
    """Raised when a simulation job fails permanently.

    Attributes:
        failure: The :class:`SimJobFailure` describing the terminal outcome.
    """

    def __init__(self, failure: SimJobFailure):
        self.failure = failure
        super().__init__(
            f"simulation of {failure.trace_name} on {failure.machine_name} "
            f"failed permanently after {failure.attempts} attempt(s) "
            f"[{failure.kind}]: {failure.error}"
        )


class SimTelemetry:
    """Counters and per-stage wall-clock for one executor's lifetime.

    An attribute view over the ``sim.executor.*`` counters of a
    :class:`~repro.obs.metrics.MetricsRegistry` (the single source of
    truth, exported by the Prometheus snapshot): every attribute below
    reads — and ``+=`` writes — the counter of the same name.  Keyword
    arguments give initial values; a private registry is made when none
    is given.  Every other component bumps its registry counters directly;
    this view stays because the report and perfbench read it.

    Attributes:
        jobs_submitted: Jobs requested across all ``run_many`` batches.
        jobs_deduplicated: Submitted jobs that were duplicates of another
            in-flight job in the same batch (simulated once, shared).
        cache_hits: Unique jobs answered from the disk cache.
        jobs_run: Unique jobs actually simulated (the cache misses).
        parallel_jobs_run: Subset of ``jobs_run`` completed on worker
            processes rather than in the parent.
        serial_fallbacks: Batches that degraded from the pool to the serial
            path before any job ran (pickling-hostile environment, pool
            construction failure).
        jobs_isolated: Jobs whose pool attempt failed (timeout, crash,
            error) and were rerun serially in the parent, leaving their
            finished siblings untouched.
        job_retries: Individual retry attempts across all jobs.
        job_timeouts: Pool attempts abandoned after the per-job timeout.
        worker_crashes: Broken-pool events (a worker process died).
        jobs_failed: Jobs that exhausted the retry budget.
        batches: ``run_many`` invocations.
        probe_seconds: Wall-clock spent deduplicating and probing the cache.
        simulate_seconds: Wall-clock spent simulating (pool or serial).
        reap_seconds: Wall-clock spent reaping worker-written cache entries
            and fanning results back to the submitted slots.
    """

    _fields = {
        name: f"sim.executor.{name}"
        for name in (
            "jobs_submitted",
            "jobs_deduplicated",
            "cache_hits",
            "jobs_run",
            "parallel_jobs_run",
            "serial_fallbacks",
            "jobs_isolated",
            "job_retries",
            "job_timeouts",
            "worker_crashes",
            "jobs_failed",
            "batches",
            "probe_seconds",
            "simulate_seconds",
            "reap_seconds",
        )
    }

    def __init__(
        self, registry: MetricsRegistry | None = None, **values: float
    ):
        object.__setattr__(
            self, "registry", registry if registry is not None else MetricsRegistry()
        )
        for name, value in values.items():
            if name not in self._fields:
                raise TypeError(f"SimTelemetry has no field {name!r}")
            self.registry.counter(self._fields[name]).set(value)

    def __getattr__(self, name: str):
        if name in self._fields:
            return self.registry.counter(self._fields[name]).value
        raise AttributeError(f"'SimTelemetry' object has no attribute {name!r}")

    def __setattr__(self, name: str, value) -> None:
        if name in self._fields:
            self.registry.counter(self._fields[name]).set(value)
            return
        object.__setattr__(self, name, value)

    def as_dict(self) -> dict[str, float]:
        return {
            attr: self.registry.counter(metric).value
            for attr, metric in self._fields.items()
        }

    def __repr__(self) -> str:  # keeps test failure output readable
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SimTelemetry({body})"

    @property
    def wall_seconds(self) -> float:
        """Total wall-clock across all executor stages."""
        return self.probe_seconds + self.simulate_seconds + self.reap_seconds

    def throughput(self) -> float:
        """Simulations per second of simulate-stage wall-clock."""
        if self.simulate_seconds <= 0.0:
            return 0.0
        return self.jobs_run / self.simulate_seconds


def _run_job(payload):
    """Worker-side entry point: compile and simulate one job.

    ``payload`` is ``(job, spec, faults, ordinal, attempt, want_spans,
    engine, guard_plan)``.  Any fault matching (ordinal, attempt) fires
    first — a ``crash`` fault hard-kills this worker so the parent
    observes a genuine broken pool, and an ``oom`` fault raises
    ``MemoryError`` (the parent isolates the job to the serial lane).

    With a cache spec (see :func:`~repro.sim.result_cache.cache_spec`)
    the worker writes its entry atomically (sealed, via the cache) and ships
    only a tiny token across the process boundary; the parent reaps the
    entry from disk.  Without a cache the result itself is returned
    in-band.  Either way the return value is a ``(token_or_result,
    span_records, guard_payload)`` triple: when the parent traces, the
    worker records its own child spans on a throwaway tracer and the
    parent stitches them into its tree, and ``guard_payload =
    (guard_events, sentinel_replays)`` ships the guardrail outcome back
    for the parent's :class:`GuardRail` to absorb.
    """
    (job, spec, faults, ordinal, attempt, want_spans,
     engine, guard_plan) = payload
    trace = job.compile()
    tracer = Tracer(enabled=want_spans)
    with tracer.span(
        "sim-job",
        kind="job",
        workload=job.profile.name,
        machine=job.machine.name,
        ordinal=ordinal,
        attempt=attempt,
        in_worker=True,
    ):
        if faults is not None:
            faults.apply_job_fault(
                ordinal, job.profile.name, attempt, in_worker=True
            )
        result, guard_events, sentinels = guarded_simulate(
            trace, job.machine, engine, guard_plan, faults, ordinal, attempt,
            tracer=tracer,
        )
        if spec is not None:
            with tracer.span("cache-put", kind="cache"):
                open_cache_spec(spec, faults=faults).put(job, result)
            result = None
    return (
        result,
        (tracer.records if want_spans else None),
        (tuple(guard_events), sentinels),
    )


class SimExecutor:
    """Fans independent simulation jobs across worker processes.

    Args:
        jobs: Worker-process count.  ``1`` (the default, or fewer pending
            jobs than workers would help) runs serially in the parent;
            ``None`` uses ``os.cpu_count()``.
        cache_dir: Optional on-disk result cache shared by parent and
            workers; see :class:`~repro.sim.result_cache.SimResultCache`.
        retry: Per-job retry policy (deterministic, jitter-free).
        timeout_seconds: Optional per-job timeout for pool attempts; a job
            exceeding it is abandoned and rerun serially in the parent.
            A pool attempt compiles its trace in the worker, so the timeout
            covers trace compile plus replay.  Serial attempts are never
            interrupted.
        faults: Optional :class:`~repro.sim.faults.FaultPlan` injected into
            jobs and cache writes (chaos testing only).
        tracer: Optional :class:`~repro.obs.tracer.Tracer`; when enabled,
            batches, cache probes/reaps and every job (worker-side
            included) record spans.  Defaults to the shared disabled
            tracer, whose per-span cost is one attribute check.
        metrics: Shared :class:`~repro.obs.metrics.MetricsRegistry`; one
            is created privately when not given.  The cache and the
            guardrails bump their counters in it, and :attr:`telemetry`
            is the attribute view over its ``sim.executor.*`` counters.
        guard: Optional :class:`~repro.sim.guard.GuardPlan`; defaults to
            guards off.  When active, every simulated job runs through
            :func:`~repro.sim.guard.guarded_simulate` (decode validation,
            NaN rejection, sampled dual-engine sentinels with scalar
            fallback).  Guard events accumulate on :attr:`guard` (a
            :class:`~repro.sim.guard.GuardRail`), which also records the
            executor's own ``worker-oom`` isolations and ``poison-job``
            circuit breaks.  The poison-job breaker is independent of
            the guard level: it trips at every level, ``off`` included.

    Raises:
        ValueError: For a non-positive explicit ``jobs`` or timeout.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache_dir: str | None = None,
        retry: RetryPolicy | None = None,
        timeout_seconds: float | None = None,
        faults=None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        engine: str = "columnar",
        guard: GuardPlan | None = None,
    ):
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ValueError(f"timeout_seconds must be positive, got {timeout_seconds}")
        self.jobs = int(jobs)
        self.engine = engine
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout_seconds = timeout_seconds
        self.faults = faults
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.gauge("sim.executor.workers").set(self.jobs)
        self.cache = (
            SimResultCache(cache_dir, faults=faults, metrics=self.metrics)
            if cache_dir is not None
            else None
        )
        self.telemetry = SimTelemetry(self.metrics)
        #: Guardrail state: plan, recorded events, telemetry.
        self.guard = GuardRail(guard, self.metrics, self.tracer)
        #: Terminal failures from the most recent ``run_many`` batch.
        self.last_failures: list[SimJobFailure] = []
        self._next_ordinal = 0
        #: Confirmed worker kills per cache key (poison-job breaker).
        self._kills: dict[str, int] = {}
        #: Cache keys whose circuit break was already announced.
        self._broken: set[str] = set()

    # ------------------------------------------------------------------ public
    def run(
        self, job: SimJob, *, ordinal: int | None = None, attempt: int = 1
    ) -> SimResult:
        """Simulate one job through the cache layers.

        A campaign shard pins the job's ``ordinal`` (fault matching,
        sentinel sampling) and first ``attempt`` to its board claim.

        Raises:
            SimJobError: If the job fails permanently (retry budget spent).
        """
        return self._run_batch([job], True, ordinal, attempt)[0]

    def run_many(
        self, jobs: Sequence[SimJob], raise_on_error: bool = True
    ) -> list[SimResult | None]:
        """Simulate a batch of jobs; results align with the input order.

        Identical jobs are simulated once; cached jobs are never compiled
        or simulated; the rest fan out across the pool (or run serially
        for ``jobs=1``).  Results are bit-identical to calling
        :func:`~repro.sim.cpu.simulate` on each job's compiled trace in a
        loop.

        Args:
            jobs: The simulation jobs.
            raise_on_error: With the default ``True``, a permanently failed
                job raises :class:`SimJobError` (after every other job has
                completed).  With ``False``, failed slots are returned as
                ``None`` so callers can degrade gracefully; inspect
                :attr:`last_failures` for the terminal outcomes.

        Raises:
            SimJobError: A job exhausted its retries (``raise_on_error``).
        """
        return self._run_batch(list(jobs), raise_on_error)

    def _run_batch(
        self, jobs: list[SimJob], raise_on_error: bool,
        ordinal: int | None = None, first_attempt: int = 1,
    ) -> list[SimResult | None]:
        telemetry = self.telemetry
        telemetry.batches += 1
        telemetry.jobs_submitted += len(jobs)
        results: list[SimResult | None] = [None] * len(jobs)
        self.last_failures: list[SimJobFailure] = []

        with self.tracer.span(
            "executor-batch", kind="executor", n_jobs=len(jobs)
        ) as batch_span:
            started = perf_counter()
            # Deduplicate in-flight jobs: slots maps each unique job key
            # to every submitted index wanting its result.
            slots: dict[str, list[int]] = {}
            for index, job in enumerate(jobs):
                slots.setdefault(job.key, []).append(index)
            telemetry.jobs_deduplicated += len(jobs) - len(slots)

            pending: list[SimJob] = []
            with self.tracer.span("cache-probe", kind="cache"):
                for indices in slots.values():
                    job = jobs[indices[0]]
                    cached = self.cache.get(job) if self.cache else None
                    if cached is not None:
                        telemetry.cache_hits += 1
                        for index in indices:
                            results[index] = cached
                    else:
                        pending.append(job)
            telemetry.probe_seconds += perf_counter() - started
            batch_span.set(
                unique_jobs=len(slots), simulated=len(pending)
            )
            logger.debug(
                "batch: %d job(s), %d unique, %d to simulate",
                len(jobs), len(slots), len(pending),
            )

            if pending:
                computed = self._execute(pending, ordinal, first_attempt)
                started = perf_counter()
                with self.tracer.span("reap", kind="executor"):
                    for job, outcome in zip(pending, computed):
                        if isinstance(outcome, SimJobFailure):
                            self.last_failures.append(outcome)
                            continue
                        for index in slots[job.key]:
                            results[index] = outcome
                telemetry.reap_seconds += perf_counter() - started
                if self.last_failures:
                    batch_span.set(failed=len(self.last_failures))
                    logger.warning(
                        "batch finished with %d permanently failed job(s)",
                        len(self.last_failures),
                    )
                    if raise_on_error:
                        raise SimJobError(self.last_failures[0])
        return results

    # ------------------------------------------------------------ poison jobs
    def is_poisoned(self, key: str) -> bool:
        """Whether the job ``key`` killed enough workers to be circuit-broken."""
        return self._kills.get(key, 0) >= POISON_THRESHOLD

    def circuit_break(self, workload: str, machine: str, key: str) -> None:
        """Record that a poisoned job was quarantined to the serial lane.

        One event per job key for the executor's lifetime — later batches
        route the job straight to the serial lane without re-announcing.
        """
        if key in self._broken:
            return
        self._broken.add(key)
        self.guard.record(
            GuardEvent(
                kind="poison-job",
                workload=workload,
                machine=machine,
                action="circuit-break",
                detail=(
                    f"killed {self._kills.get(key, 0)} worker(s); "
                    "quarantined to the parent's serial lane"
                ),
            )
        )

    # --------------------------------------------------------------- internals
    def _execute(
        self, pending: list[SimJob], ordinal: int | None, first_attempt: int
    ) -> list[SimResult | SimJobFailure]:
        self.telemetry.jobs_run += len(pending)
        if ordinal is None:
            ordinal = self._next_ordinal
            self._next_ordinal += len(pending)
        ordinals = list(range(ordinal, ordinal + len(pending)))
        if self.jobs <= 1 or len(pending) <= 1:
            return self._execute_serial(pending, ordinals, first_attempt)

        # Poison-job circuit breaker: a job whose kill count reached
        # POISON_THRESHOLD never touches a pool again — it is quarantined to
        # the parent's serial lane (bit-identical, just slower) while its
        # clean siblings keep their workers.  The kill counts are recorded
        # synchronously in this thread, so the decision is deterministic.
        poisoned = [
            i for i, job in enumerate(pending) if self.is_poisoned(job.key)
        ]
        if not poisoned:
            return self._execute_pool(pending, ordinals)
        for i in poisoned:
            job = pending[i]
            self.circuit_break(job.profile.name, job.machine.name, job.key)
        clean = [i for i in range(len(pending)) if i not in poisoned]
        outcomes: list[SimResult | SimJobFailure | None] = [None] * len(pending)
        if clean:
            pooled = (
                self._execute_pool if len(clean) > 1 else self._execute_serial
            )([pending[i] for i in clean], [ordinals[i] for i in clean])
            for i, outcome in zip(clean, pooled):
                outcomes[i] = outcome
        quarantined = self._execute_serial(
            [pending[i] for i in poisoned], [ordinals[i] for i in poisoned]
        )
        for i, outcome in zip(poisoned, quarantined):
            outcomes[i] = outcome
        return outcomes  # type: ignore[return-value]  # every slot is filled

    def _execute_pool(
        self,
        pending: list[SimJob],
        ordinals: list[int],
    ) -> list[SimResult | SimJobFailure]:
        telemetry = self.telemetry
        # A degraded cache cannot absorb worker writes; ship results in-band.
        spec = (
            cache_spec(self.cache)
            if self.cache is not None and not self.cache.degraded
            else None
        )
        try:
            pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(pending)))
        except Exception:
            # Pickling-hostile environment: the jobs are pure, so running
            # serially gives the identical results.
            telemetry.serial_fallbacks += 1
            self.tracer.event("serial-fallback", reason="pool-construction")
            return self._execute_serial(pending, ordinals)

        want_spans = self.tracer.enabled
        pool_span = self.tracer.span(
            "simulate-pool",
            kind="executor",
            n_jobs=len(pending),
            workers=min(self.jobs, len(pending)),
        )
        pool_span.__enter__()
        started = perf_counter()
        in_band: dict[int, object] = {}
        worker_spans: dict[int, list] = {}
        guard_payloads: dict[int, tuple] = {}
        failed_kind: dict[int, str] = {}
        failed_error: dict[int, str] = {}
        pool_broken = False
        try:
            try:
                futures = {}
                for i, (job, ordinal) in enumerate(zip(pending, ordinals)):
                    futures[i] = pool.submit(
                        _run_job,
                        (job, spec, self.faults, ordinal, 1,
                         want_spans, self.engine, self.guard.plan),
                    )
            except Exception:
                telemetry.serial_fallbacks += 1
                telemetry.simulate_seconds += perf_counter() - started
                pool_span.__exit__(None, None, None)
                self.tracer.event("serial-fallback", reason="submit-failure")
                return self._execute_serial(pending, ordinals)
            for i, future in futures.items():
                try:
                    in_band[i], worker_spans[i], guard_payloads[i] = (
                        future.result(timeout=self.timeout_seconds)
                    )
                except concurrent.futures.TimeoutError:
                    telemetry.job_timeouts += 1
                    future.cancel()
                    failed_kind[i] = "timeout"
                    failed_error[i] = (
                        f"no result within {self.timeout_seconds} s"
                    )
                    self.tracer.event(
                        "job-timeout",
                        workload=pending[i].profile.name,
                        timeout_seconds=self.timeout_seconds,
                    )
                except BrokenProcessPool as exc:
                    if not pool_broken:
                        telemetry.worker_crashes += 1
                        pool_broken = True
                        self.tracer.event("worker-crash")
                        logger.warning(
                            "worker process died; isolating affected jobs"
                        )
                    failed_kind[i] = "crash"
                    failed_error[i] = str(exc) or "worker process died"
                except MemoryError as exc:
                    failed_kind[i] = "oom"
                    failed_error[i] = f"MemoryError: {exc}"
                    self.guard.record(
                        GuardEvent(
                            kind="worker-oom",
                            workload=pending[i].profile.name,
                            machine=pending[i].machine.name,
                            action="isolate",
                            detail=str(exc) or "worker ran out of memory",
                        )
                    )
                except Exception as exc:  # a poisoned job's own exception
                    failed_kind[i] = "error"
                    failed_error[i] = f"{type(exc).__name__}: {exc}"
                    self.tracer.event(
                        "job-error",
                        workload=pending[i].profile.name,
                        error=type(exc).__name__,
                    )
        finally:
            # Never block on a hung worker: abandoned processes finish (or
            # die) on their own; their cache writes are atomic and idempotent.
            pool.shutdown(wait=False, cancel_futures=True)
        # Stitch the workers' span records into the parent tree before the
        # pool span closes: each worker lane becomes a Chrome-trace tid,
        # re-based to the pool span's start (worker clocks are their own).
        if want_spans:
            workers = min(self.jobs, len(pending))
            for i in sorted(worker_spans):
                records = worker_spans[i]
                if records:
                    self.tracer.adopt(
                        records,
                        rebase_us=pool_span.start_us,
                        tid=1 + (i % workers),
                    )
        telemetry.simulate_seconds += perf_counter() - started
        pool_span.__exit__(None, None, None)
        telemetry.parallel_jobs_run += len(in_band)
        # Absorb the workers' shipped-back guard outcomes in submit order,
        # so event ordering is deterministic regardless of completion order.
        for i in sorted(guard_payloads):
            events, sentinels = guard_payloads[i]
            self.guard.absorb(events, sentinels)

        outcomes: list[SimResult | SimJobFailure | None] = [None] * len(pending)
        started = perf_counter()
        for i, result in in_band.items():
            if result is None and self.cache is not None:
                # The worker wrote the cache entry; reap it from disk.  A
                # corrupt entry is quarantined by the cache and comes back
                # as None.
                result = self.cache.get(pending[i])
            outcomes[i] = result
        telemetry.reap_seconds += perf_counter() - started

        # Parent-side reruns, one serial pass from attempt 2; every finished
        # sibling above keeps its result.  A job whose entry failed to reap
        # (evicted or corrupted underneath us) or that a broken pool took
        # down (a "crash" only says the pool broke under it) always reruns;
        # a timeout, error or OOM is the job's own attempt and respects the
        # retry budget (a hung job is never rerun uninterruptibly in the
        # parent).
        indices = sorted(failed_kind)
        telemetry.jobs_isolated += len(indices)
        rerun = [
            i for i, outcome in enumerate(outcomes)
            if outcome is None
            and (failed_kind.get(i) in (None, "crash") or self.retry.max_attempts > 1)
        ]
        if rerun:
            recovered = self._execute_serial(
                [pending[i] for i in rerun],
                [ordinals[i] for i in rerun],
                first_attempt=2,
            )
            for i, outcome in zip(rerun, recovered):
                outcomes[i] = outcome
        for i in indices:
            if outcomes[i] is None:
                telemetry.jobs_failed += 1
                outcomes[i] = SimJobFailure(
                    trace_name=pending[i].profile.name,
                    machine_name=pending[i].machine.name,
                    attempts=1,
                    kind=failed_kind[i],
                    error=failed_error[i],
                )
            elif failed_kind[i] == "crash" and isinstance(
                outcomes[i], SimJobFailure
            ):
                # Poison-job accounting: a broken-pool crash is
                # attributed to a job only when its serial rerun *also*
                # fails — bystanders that were merely in flight when
                # another job killed the worker recover serially and
                # never accumulate kills.
                key = pending[i].key
                self._kills[key] = self._kills.get(key, 0) + 1
        return outcomes  # type: ignore[return-value]  # every slot is filled

    def _execute_serial(
        self,
        pending: list[SimJob],
        ordinals: list[int],
        first_attempt: int = 1,
    ) -> list[SimResult | SimJobFailure]:
        started = perf_counter()
        # Run recipe by recipe, in order of first appearance: jobs sharing a
        # recipe (one workload on several machines) share one compiled
        # trace, which owns its decode and replay memos and is dropped
        # after its recipe's last job.  Each job keeps its ordinal (fault
        # matching, sentinel sampling), and guard outcomes are recorded in
        # submission order, as the pool lane records them.
        by_recipe: dict[str, list[int]] = {}
        for i, job in enumerate(pending):
            by_recipe.setdefault(job.recipe, []).append(i)
        outcomes: list = [None] * len(pending)
        for indices in by_recipe.values():
            trace = pending[indices[0]].compile()
            for i in indices:
                outcomes[i] = self._run_with_retry(
                    pending[i], trace, ordinals[i], first_attempt
                )
            del trace
        for _, guard_payload in outcomes:
            self.guard.absorb(*guard_payload)
        self.telemetry.simulate_seconds += perf_counter() - started
        return [result for result, _ in outcomes]

    def _run_with_retry(
        self,
        job: SimJob,
        trace: SyntheticTrace,
        ordinal: int,
        first_attempt: int,
    ) -> tuple[SimResult | SimJobFailure, tuple]:
        """One job through the retry policy, in the parent process.

        Returns the outcome and its guard payload ``(guard_events,
        sentinel_replays)`` for the caller to record.
        """
        attempt = first_attempt
        name, machine = job.profile.name, job.machine
        with self.tracer.span(
            "sim-job",
            kind="job",
            workload=name,
            machine=machine.name,
            ordinal=ordinal,
            in_worker=False,
        ) as job_span:
            while True:
                try:
                    if self.faults is not None:
                        self.faults.apply_job_fault(
                            ordinal, name, attempt, in_worker=False
                        )
                    result, guard_events, sentinels = guarded_simulate(
                        trace, machine, self.engine, self.guard.plan,
                        self.faults, ordinal, attempt, tracer=self.tracer,
                    )
                except Exception as exc:
                    if attempt >= self.retry.max_attempts:
                        self.telemetry.jobs_failed += 1
                        job_span.set(
                            failed=True, attempts=attempt,
                            error=type(exc).__name__,
                        )
                        logger.warning(
                            "job %s on %s failed permanently after %d "
                            "attempt(s): %s", name, machine.name,
                            attempt, exc,
                        )
                        return SimJobFailure(
                            trace_name=name,
                            machine_name=machine.name,
                            attempts=attempt,
                            kind=(
                                "oom" if isinstance(exc, MemoryError)
                                else "crash"
                            ),
                            error=f"{type(exc).__name__}: {exc}",
                        ), ((), 0)
                    self.telemetry.job_retries += 1
                    delay = self.retry.delay(attempt)
                    job_span.event(
                        "job-retry",
                        workload=name,
                        attempt=attempt,
                        delay_seconds=delay,
                        error=type(exc).__name__,
                    )
                    if delay > 0:
                        time.sleep(delay)
                    attempt += 1
                    continue
                if self.cache is not None:
                    self.cache.put(job, result)
                job_span.set(attempts=attempt)
                return result, (guard_events, sentinels)


class SimFrontEnd:
    """Result memo shared by the simulator front-ends.

    :class:`~repro.sim.platform.HardwarePlatform` and
    :class:`~repro.sim.gem5.Gem5Simulation` simulate each workload profile
    on their machine once and read every later measurement from the
    memoised :class:`~repro.sim.cpu.SimResult`.  A memo miss is one
    :meth:`SimExecutor.run` of the profile's :meth:`job_for` — the
    executor is the only path into the simulator, so its cache, compile
    on miss, retries, guards and telemetry apply to every job.
    :func:`prime_engines` fills the memos of several front-ends in one
    batch up front.
    """

    def __init__(
        self,
        machine: MachineConfig,
        trace_instructions: int,
        executor: SimExecutor,
    ):
        self.machine = machine
        self.trace_instructions = trace_instructions
        self.executor = executor
        self._results: dict[WorkloadProfile, SimResult] = {}

    def job_for(self, profile: WorkloadProfile) -> SimJob:
        """The simulation job of one workload profile on this machine."""
        return SimJob(profile, self.trace_instructions, self.machine)

    def _sim(self, profile: WorkloadProfile) -> SimResult:
        result = self._results.get(profile)
        if result is None:
            result = self.executor.run(self.job_for(profile))
            self._results[profile] = result
        return result


def prime_engines(
    executor: SimExecutor,
    engines: Iterable[SimFrontEnd],
    profiles: Iterable[WorkloadProfile],
) -> int:
    """Batch-simulate workloads for several front-ends in one fan-out.

    All missing (workload × machine) jobs of the :class:`SimFrontEnd`
    ``engines`` are submitted to the executor up front, so one pool
    services the hardware and model simulations together.

    Jobs that fail permanently are simply not memoised: the owning engine
    retries them lazily on first use, and if they fail again the failure
    surfaces there (where dataset collection can record it and degrade
    gracefully) instead of aborting the whole batch here.

    Returns:
        The number of simulations submitted (0 when everything was already
        memoised on the engines).
    """
    jobs: list[SimJob] = []
    owners: list[tuple[SimFrontEnd, WorkloadProfile]] = []
    for engine in engines:
        for profile in profiles:
            if profile not in engine._results:
                jobs.append(engine.job_for(profile))
                owners.append((engine, profile))
    if not jobs:
        return 0
    for (engine, profile), result in zip(
        owners, executor.run_many(jobs, raise_on_error=False)
    ):
        if result is not None:
            engine._results[profile] = result
    return len(jobs)
