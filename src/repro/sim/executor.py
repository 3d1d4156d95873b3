"""Fault-tolerant execution of independent simulation jobs.

GemStone is rerun constantly — after every model adjustment and every
simulator update (Section VII's workflow) — and a cold evaluation simulates
45–65 workloads on two machine configurations.  Every one of those jobs is a
pure function of its :class:`~repro.sim.result_cache.SimJob` (trace recipe
plus machine).  :class:`SimExecutor` runs a batch of them in-process and
owns the whole memoisation *and* recovery story for it:

* **deduplication** — identical in-flight jobs (same ``SimJob.key``) are
  simulated once and the result shared across every requesting slot;
* **disk cache** — when built with a ``cache_dir``, jobs are probed against
  the :class:`~repro.sim.result_cache.SimResultCache` before any trace is
  compiled, and every simulated result is written back;
* **compile on miss** — only jobs the cache cannot answer compile their
  trace (or replay the one the caller passes in, already compiled).
  The batch runs recipe by recipe: each recipe is compiled once,
  its trace is shared across the batch's machines, sliced once per window
  for windowed jobs, and dropped after the recipe's last job;
* **fault isolation** — a job that raises is retried under a
  deterministic :class:`RetryPolicy`; one that exhausts the budget becomes
  a :class:`SimJobFailure` while its siblings keep their results.  Because
  jobs are pure, recovered results are bit-identical to a fault-free run;
* **observability** — job accounting lives in a
  :class:`~repro.obs.metrics.MetricsRegistry` (:class:`SimTelemetry` is an
  attribute view over its ``sim.executor.*`` counters, surfaced by
  :func:`repro.core.report.render_sim_telemetry` in the full report), and
  an optional :class:`~repro.obs.tracer.Tracer` records per-batch and
  per-job spans.

Simulating across processes is the sharded campaign's job
(:mod:`repro.sim.campaign`): each shard claims jobs from a shared board and
runs every claim through its own serial executor, and the board supplies
crash isolation, poisoning and worker-loss recovery across processes.

The executor is the library's one way into the simulator: the simulator
front-ends, every campaign shard, the Fig. 4 micro-benchmarks, the
run-time power windows and the Section VII improvement loop run their
jobs through it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.cpu import ENGINES, SimResult
from repro.sim.guard import GuardPlan, GuardRail, guarded_simulate
from repro.sim.machine import MachineConfig
from repro.sim.result_cache import SimJob, SimResultCache
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import SyntheticTrace

logger = get_logger(__name__)

#: Exponent bound for :meth:`RetryPolicy.delay`.  ``2.0 ** 62`` already
#: dwarfs any sane cap, while an unbounded ``2.0 ** attempt`` raises
#: OverflowError once campaign lease re-queues push attempt counts into
#: the thousands.
_MAX_BACKOFF_EXPONENT = 62


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
    kind: str  # "crash" | "oom"
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
        job_retries: Individual retry attempts across all jobs.
        jobs_failed: Jobs that exhausted the retry budget.
        batches: ``run_many`` invocations.
        probe_seconds: Wall-clock spent deduplicating and probing the cache.
        simulate_seconds: Wall-clock spent compiling and simulating.
    """

    _fields = {
        name: f"sim.executor.{name}"
        for name in (
            "jobs_submitted",
            "jobs_deduplicated",
            "cache_hits",
            "jobs_run",
            "job_retries",
            "jobs_failed",
            "batches",
            "probe_seconds",
            "simulate_seconds",
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
        return self.probe_seconds + self.simulate_seconds

    def throughput(self) -> float:
        """Simulations per second of simulate-stage wall-clock."""
        if self.simulate_seconds <= 0.0:
            return 0.0
        return self.jobs_run / self.simulate_seconds


class SimExecutor:
    """Runs independent simulation jobs through the cache and retry layers.

    Args:
        cache_dir: Optional on-disk result cache; see
            :class:`~repro.sim.result_cache.SimResultCache`.
        retry: Per-job retry policy (deterministic, jitter-free).
        faults: Optional :class:`~repro.sim.faults.FaultPlan` injected into
            jobs and cache writes (chaos testing only).
        tracer: Optional :class:`~repro.obs.tracer.Tracer`; when enabled,
            batches, cache probes and every job record spans.  Defaults to
            the shared disabled tracer, whose per-span cost is one
            attribute check.
        metrics: Shared :class:`~repro.obs.metrics.MetricsRegistry`; one
            is created privately when not given.  The cache and the
            guardrails bump their counters in it, and :attr:`telemetry`
            is the attribute view over its ``sim.executor.*`` counters.
        engine: Replay engine for every job (``"columnar"`` or
            ``"scalar"``).
        guard: Optional :class:`~repro.sim.guard.GuardPlan`; defaults to
            guards off.  When active, every simulated job runs through
            :func:`~repro.sim.guard.guarded_simulate` (decode validation,
            NaN rejection, sampled dual-engine sentinels with scalar
            fallback).  Guard events accumulate on :attr:`guard` (a
            :class:`~repro.sim.guard.GuardRail`).

    Raises:
        ValueError: For an unknown ``engine``.
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        retry: RetryPolicy | None = None,
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
        self.engine = engine
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
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
        self,
        jobs: Sequence[SimJob],
        raise_on_error: bool = True,
        traces: Iterable[SyntheticTrace] = (),
    ) -> list[SimResult | None]:
        """Simulate a batch of jobs; results align with the input order.

        Identical jobs are simulated once; cached jobs are never compiled
        or simulated; the rest run recipe by recipe.  Results are
        bit-identical to calling
        :func:`~repro.sim.cpu.simulate` on each job's compiled trace in a
        loop.

        Args:
            jobs: The simulation jobs.
            raise_on_error: With the default ``True``, a permanently failed
                job raises :class:`SimJobError` (after every other job has
                completed).  With ``False``, failed slots are returned as
                ``None`` so callers can degrade gracefully; inspect
                :attr:`last_failures` for the terminal outcomes.
            traces: Whole traces the caller has already compiled; a job
                whose recipe is the ``digest`` of one of them replays it
                instead of compiling the recipe again.

        Raises:
            SimJobError: A job exhausted its retries (``raise_on_error``).
        """
        return self._run_batch(list(jobs), raise_on_error, traces=traces)

    def _run_batch(
        self, jobs: list[SimJob], raise_on_error: bool,
        ordinal: int | None = None, first_attempt: int = 1,
        traces: Iterable[SyntheticTrace] = (),
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
                    cached = self.cache.get(job) if self.cache is not None else None
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
                computed = self._execute(
                    pending, ordinal, first_attempt, traces
                )
                for job, outcome in zip(pending, computed):
                    if isinstance(outcome, SimJobFailure):
                        self.last_failures.append(outcome)
                        continue
                    for index in slots[job.key]:
                        results[index] = outcome
                if self.last_failures:
                    batch_span.set(failed=len(self.last_failures))
                    logger.warning(
                        "batch finished with %d permanently failed job(s)",
                        len(self.last_failures),
                    )
                    if raise_on_error:
                        raise SimJobError(self.last_failures[0])
        return results

    # --------------------------------------------------------------- internals
    def _execute(
        self, pending: list[SimJob], ordinal: int | None, first_attempt: int,
        traces: Iterable[SyntheticTrace] = (),
    ) -> list[SimResult | SimJobFailure]:
        self.telemetry.jobs_run += len(pending)
        if ordinal is None:
            ordinal = self._next_ordinal
            self._next_ordinal += len(pending)
        started = perf_counter()
        # Run recipe by recipe, in order of first appearance: jobs sharing a
        # recipe (one workload on several machines, or several windows of
        # it) share one compiled trace, which owns its decode and replay
        # memos and is dropped after the recipe's last job.  Each job keeps
        # its submission ordinal (fault matching, sentinel sampling), and
        # guard outcomes are recorded in submission order.
        by_recipe: dict[str, list[int]] = {}
        for i, job in enumerate(pending):
            by_recipe.setdefault(job.recipe, []).append(i)
        held = {trace.digest: trace for trace in traces}
        outcomes: list = [None] * len(pending)
        for recipe, indices in by_recipe.items():
            trace = held.get(recipe)
            if trace is None:
                trace = pending[indices[0]].compile_recipe()
            for i in indices:
                outcomes[i] = self._run_with_retry(
                    pending[i], pending[i].window_of(trace), ordinal + i,
                    first_attempt,
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
        """One job through the retry policy.

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
        ) as job_span:
            while True:
                try:
                    if self.faults is not None:
                        self.faults.apply_job_fault(ordinal, name, attempt)
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
    """Batch-simulate workloads for several front-ends in one batch.

    All missing (workload × machine) jobs of the :class:`SimFrontEnd`
    ``engines`` are submitted to the executor up front, so one batch
    services the hardware and model simulations together and each
    workload's trace is compiled once for both machines.

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
