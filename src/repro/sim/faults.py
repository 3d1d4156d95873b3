"""Deterministic fault injection for the simulation and measurement layers.

Real GemStone runs die in real ways: a board locks up mid-workload, a shard
process is OOM-killed, a power sensor drops samples or returns NaN, a result
file on disk is half-written when the filesystem fills.  The executor, cache
and platform all have recovery paths for these failures — this module makes
those paths *testable* by injecting each failure class deterministically.

A :class:`FaultPlan` is an immutable, picklable description of which faults
fire where:

* ``crash`` — a simulation job dies: the executor's attempt raises
  :class:`InjectedFault` and the retry policy takes over.  Campaign shards
  run their claims through the same executor, so there the crash raises
  and the board requeues the job.
* ``corrupt-cache`` — a :class:`~repro.sim.result_cache.SimResultCache`
  write is replaced with truncated garbage, exercising the integrity check
  and quarantine path on the next read.  It hits every executor cache
  write, a campaign shard's included.
* ``drop-power`` / ``nan-power`` — the platform's 3.8 Hz power sensor loses
  samples or returns NaN, exercising the robust-mean path and the
  sample-loss accounting in :class:`~repro.core.validation.CollectionHealth`.
* ``corrupt-column`` / ``poison-memo`` / ``nan-pass`` — columnar-engine
  faults consumed by :func:`repro.sim.guard.guarded_simulate`: a decoded
  column is bit-flipped (decode validation must quarantine + re-decode), a
  verified-decode memo is scrambled (the divergence sentinel must catch the
  silently wrong replay), or a vectorized pass leaks a NaN into the result
  (the integrity scan must reject it).  All three heal in-call, so the
  returned result stays bit-identical to the scalar reference.
* ``oom`` — a job runs out of memory: its attempt raises
  :class:`MemoryError`, which the executor retries and, once the budget
  is spent, reports as an ``"oom"`` failure (in a campaign shard the
  board requeues the job and poisons a repeat offender).
* ``shard-crash`` / ``lease-stall`` — campaign-shard faults consumed by
  :mod:`repro.sim.campaign` workers: a shard process dies *after* storing
  its result but *before* marking the job done (the orphaned result must
  be adopted by whichever shard steals the expired lease; outside a
  spawned shard the fault raises :class:`InjectedFault`), or a shard
  stalls past the lease TTL while still alive (a peer must steal the
  lease and the staller must notice on waking and abandon the job so no
  result is duplicated).

Every fault is seeded: the same plan against the same batch injects the
same failures, so chaos tests can assert *bit-identical* recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Named here so that numpy 2 loads numpy.random at start-up, not in a report.
from numpy.random import default_rng

from repro.workloads.trace import workload_seed

#: Fault kinds a :class:`FaultSpec` may carry.
FAULT_KINDS = (
    "crash",
    "corrupt-cache",
    "drop-power",
    "nan-power",
    "corrupt-column",
    "poison-memo",
    "nan-pass",
    "oom",
    "shard-crash",
    "lease-stall",
)

#: Kinds consumed inside :func:`repro.sim.guard.guarded_simulate`.
COLUMNAR_FAULT_KINDS = ("corrupt-column", "poison-memo", "nan-pass")

#: Kinds consumed by campaign shard workers (:mod:`repro.sim.campaign`).
SHARD_FAULT_KINDS = ("shard-crash", "lease-stall")


class InjectedFault(RuntimeError):
    """Raised by a ``crash`` fault in the executor's job attempt."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        job: Executor job ordinal to hit (``crash``/``oom``); ordinals
            count unique simulated jobs across the executor's lifetime.
        workload: Workload (trace) name to hit; ``None`` matches any
            workload for the power faults, and is an alternative to ``job``
            for ``crash``/``oom`` (every attempt for that workload).
        attempts: Inject on the first N attempts (or first N cache writes)
            of the matched job, so bounded retries eventually succeed.
        hang_seconds: Stall duration for ``lease-stall``.
        fraction: Share of power samples affected by the power faults.
    """

    kind: str
    job: int | None = None
    workload: str | None = None
    attempts: int = 1
    hang_seconds: float = 0.25
    fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        job_scoped = ("crash", "oom") + COLUMNAR_FAULT_KINDS + SHARD_FAULT_KINDS
        if self.kind in job_scoped and self.job is None and self.workload is None:
            raise ValueError(f"{self.kind} fault needs a job ordinal or a workload name")

    def _matches_job(self, ordinal: int, trace_name: str, attempt: int) -> bool:
        if attempt > self.attempts:
            return False
        if self.job is not None:
            return self.job == ordinal
        return self.workload == trace_name


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of seeded faults, shareable across processes.

    Build plans from the classmethod constructors and combine them with
    ``|``::

        plan = FaultPlan.crash_job(0) | FaultPlan.corrupt_cache("mi-sha")
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    # ------------------------------------------------------------ constructors
    @classmethod
    def crash_job(cls, job: int, attempts: int = 1) -> "FaultPlan":
        """Crash job ordinal ``job`` on its first N attempts."""
        return cls((FaultSpec("crash", job=job, attempts=attempts),))

    @classmethod
    def crash_workload(cls, workload: str, attempts: int = 1) -> "FaultPlan":
        """Crash every attempt (up to N) to simulate one workload."""
        return cls((FaultSpec("crash", workload=workload, attempts=attempts),))

    @classmethod
    def corrupt_cache(cls, workload: str | None = None, attempts: int = 1) -> "FaultPlan":
        """Replace the first N cache writes for ``workload`` with garbage."""
        return cls((FaultSpec("corrupt-cache", workload=workload, attempts=attempts),))

    @classmethod
    def corrupt_column(cls, workload: str, attempts: int = 1) -> "FaultPlan":
        """Bit-flip a decoded column before the first N replays of a workload."""
        return cls((FaultSpec("corrupt-column", workload=workload, attempts=attempts),))

    @classmethod
    def poison_memo(cls, workload: str, attempts: int = 1) -> "FaultPlan":
        """Scramble the decode's warm-row memos before the first N replays."""
        return cls((FaultSpec("poison-memo", workload=workload, attempts=attempts),))

    @classmethod
    def nan_pass(cls, workload: str, attempts: int = 1) -> "FaultPlan":
        """Leak a NaN out of a vectorized pass on the first N replays."""
        return cls((FaultSpec("nan-pass", workload=workload, attempts=attempts),))

    @classmethod
    def worker_oom(cls, workload: str, attempts: int = 1) -> "FaultPlan":
        """Raise ``MemoryError`` (an out-of-memory job) on the first N attempts."""
        return cls((FaultSpec("oom", workload=workload, attempts=attempts),))

    @classmethod
    def shard_crash(cls, workload: str, attempts: int = 1) -> "FaultPlan":
        """Kill a campaign shard after storing ``workload``'s result.

        Fires between the store write and the ``job-done`` append, so the lease
        expires with an orphaned-but-intact result on disk; the stealing
        shard must adopt it instead of recomputing.
        """
        return cls((FaultSpec("shard-crash", workload=workload, attempts=attempts),))

    @classmethod
    def lease_stall(
        cls, workload: str, seconds: float = 1.0, attempts: int = 1
    ) -> "FaultPlan":
        """Stall a live shard past the lease TTL after claiming a job."""
        return cls(
            (FaultSpec("lease-stall", workload=workload, hang_seconds=seconds,
                       attempts=attempts),)
        )

    @classmethod
    def drop_power(cls, workload: str | None = None, fraction: float = 0.25) -> "FaultPlan":
        """Drop a deterministic share of the platform's power samples."""
        return cls((FaultSpec("drop-power", workload=workload, fraction=fraction),))

    @classmethod
    def nan_power(cls, workload: str | None = None, fraction: float = 0.25) -> "FaultPlan":
        """Replace a share of the platform's power samples with NaN."""
        return cls((FaultSpec("nan-power", workload=workload, fraction=fraction),))

    def __or__(self, other: "FaultPlan") -> "FaultPlan":
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return FaultPlan(self.faults + other.faults, seed=self.seed or other.seed)

    def __bool__(self) -> bool:
        return bool(self.faults)

    # -------------------------------------------------------------- job faults
    def apply_job_fault(self, ordinal: int, trace_name: str, attempt: int) -> None:
        """Fire any ``crash``/``oom`` fault matching this job attempt.

        ``crash`` raises :class:`InjectedFault` and ``oom`` raises
        :class:`MemoryError`; the executor's retry policy handles both.
        """
        for spec in self.faults:
            if not spec._matches_job(ordinal, trace_name, attempt):
                continue
            if spec.kind == "crash":
                raise InjectedFault(
                    f"injected crash: job {ordinal} ({trace_name}) attempt {attempt}"
                )
            if spec.kind == "oom":
                raise MemoryError(
                    f"injected out-of-memory: job {ordinal} "
                    f"({trace_name}) attempt {attempt}"
                )

    # ------------------------------------------------------------ shard faults
    def shard_fault(
        self, phase: str, trace_name: str, attempt: int
    ) -> FaultSpec | None:
        """The shard fault (if any) firing at this campaign phase.

        ``phase`` is where the worker currently is: ``"claimed"`` (lease
        held, job not yet run — where ``lease-stall`` sleeps) or
        ``"stored"`` (result written, ``job-done`` not yet journalled — where
        ``shard-crash`` kills the shard).  Matching is by workload name
        and attempt count, same as the executor job faults.
        """
        wanted = {"claimed": "lease-stall", "stored": "shard-crash"}.get(phase)
        if wanted is None:
            return None
        for spec in self.faults:
            if spec.kind == wanted and spec._matches_job(-1, trace_name, attempt):
                return spec
        return None

    # ------------------------------------------------------- columnar faults
    def columnar_faults(
        self, trace_name: str, attempt: int, ordinal: int = -1
    ) -> tuple[str, ...]:
        """Columnar fault kinds firing on this replay attempt of a trace.

        Consumed by :func:`repro.sim.guard.guarded_simulate`, which injects
        the matching corruption before/after the columnar replay so every
        guard fallback path is exercised deterministically.
        """
        return tuple(
            spec.kind
            for spec in self.faults
            if spec.kind in COLUMNAR_FAULT_KINDS
            and spec._matches_job(ordinal, trace_name, attempt)
        )

    # ------------------------------------------------------------ cache faults
    def corrupts_cache(self, trace_name: str, nth_put: int) -> bool:
        """True when the nth cache write for this trace must be garbled."""
        return any(
            spec.kind == "corrupt-cache"
            and nth_put <= spec.attempts
            and (spec.workload is None or spec.workload == trace_name)
            for spec in self.faults
        )

    # ------------------------------------------------------------ power faults
    def apply_power_faults(
        self, workload: str, label: str, samples: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Apply ``drop-power``/``nan-power`` to one sensor window.

        Returns the (possibly shortened or NaN-holed) sample array and the
        number of samples lost.  Seeded per (plan seed, workload, label) so
        repeated characterisation loses the identical samples; a plan with
        no power faults returns the input untouched.
        """
        specs = [
            spec
            for spec in self.faults
            if spec.kind in ("drop-power", "nan-power")
            and (spec.workload is None or spec.workload == workload)
        ]
        if not specs or samples.size == 0:
            return samples, 0
        rng = default_rng(
            workload_seed(workload, f"fault-{self.seed}-{label}")
        )
        lost = 0
        for spec in specs:
            n_hit = min(samples.size, max(1, int(round(samples.size * spec.fraction))))
            hit = rng.choice(samples.size, size=n_hit, replace=False)
            if spec.kind == "drop-power":
                keep = np.ones(samples.size, dtype=bool)
                keep[hit] = False
                samples = samples[keep]
            else:
                samples = samples.copy()
                samples[hit] = np.nan
            lost += n_hit
        return samples, lost
