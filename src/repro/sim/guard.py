"""Runtime guardrails: self-verifying replay and supervised campaigns.

The columnar engine (:mod:`repro.sim.columnar`) is the default hot path
for every simulated cycle, and the paper's claims rest on those numbers
being bit-exact.  This module adds the runtime defenses that keep a corrupt
decoded column, a poisoned memo or a silent NaN in a vectorized pass from
flowing unchecked into the power model and validation tables:

* **Divergence sentinels** — :func:`guarded_simulate` deterministically
  samples a small fraction of jobs (seeded on the job ordinal) and replays
  them through *both* engines, comparing the results bit-exactly.  Any
  divergence, any NaN/overflow in the columnar result, or any failed
  decode contract triggers an automatic per-job fallback to
  ``engine="scalar"`` with a structured :class:`GuardEvent` — never a
  silent wrong number.
* **Decoded-form validation** — every cross-worker re-attach of a
  :class:`~repro.workloads.trace.ColumnarTrace` is checked against its
  checksum + shape/dtype/bounds contract
  (:func:`repro.workloads.trace.validate_columnar`); corrupt decodes are
  quarantined and re-decoded in place.
* **Campaign watchdog** — :class:`CampaignWatchdog` supervises a
  :class:`~repro.sim.executor.SimExecutor` batch with per-job heartbeats,
  memory/deadline budgets and poison-job detection: a job that kills N
  workers in a row is circuit-broken into the parent's serial quarantine
  lane instead of being resubmitted to (and killing) fresh pools forever.

Everything surfaces three ways: :class:`GuardEvent` records (absorbed into
:class:`~repro.core.validation.CollectionHealth` by dataset collection),
``sim.guard.*`` metrics in the shared registry, and tracer events — the
report's "Guardrails" section renders the accounting.

The guard never *changes* a correct result: both engines are bit-identical
by construction, so a clean campaign under ``--guard-level sentinel`` (the
default) produces byte-for-byte the same report as ``--guard-level off``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import monotonic

import numpy as np

from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, MetricView
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.machine import MachineConfig
from repro.workloads.trace import SyntheticTrace, validate_columnar

logger = get_logger(__name__)

#: Guard levels accepted by :class:`GuardPlan` and ``--guard-level``.
GUARD_LEVELS = ("off", "sentinel", "paranoid")

#: Default sentinel sampling interval (1 job in N is dual-replayed).  The
#: scalar reference replay costs 10-15x a steady-state columnar replay
#: (BENCH_replay.json), so the interval keeps sentinel-mode overhead on a
#: steady-state campaign under the 5% budget asserted by BENCH_guard.json.
SENTINEL_INTERVAL = 512

#: Marker key on ``ColumnarTrace.fixpoint_seeds`` recording that this
#: process already validated the decode (sentinel mode validates once per
#: re-attach; paranoid re-validates every replay).
_VALIDATED_KEY = ("guard", "validated")


@dataclass(frozen=True)
class GuardEvent:
    """One structured guardrail action (never a silent degradation).

    Attributes:
        kind: What was detected: ``divergence``, ``nan-result``,
            ``decode-corrupt``, ``engine-error``, ``poison-job``,
            ``worker-oom``, ``heartbeat-stall``, ``deadline``,
            ``memory-budget``, ``shard-lost``, ``lease-steal``.
        workload: Trace name of the affected job ("*" for campaign-wide
            watchdog events).
        machine: Machine name of the affected job ("*" likewise).
        action: What the guard did about it: ``fallback-scalar``,
            ``requarantine-decode``, ``circuit-break``, ``isolate``,
            ``observe``.
        detail: Human-readable specifics (mismatched fields, budget
            numbers, ...).
    """

    kind: str
    workload: str
    machine: str
    action: str
    detail: str = ""

    def summary(self) -> str:
        """One line for reports and logs."""
        line = f"[{self.kind}] {self.workload} on {self.machine} -> {self.action}"
        if self.detail:
            line += f" ({self.detail})"
        return line


@dataclass(frozen=True)
class GuardPlan:
    """Immutable, picklable guardrail configuration (ships to workers).

    Attributes:
        level: ``"off"`` (no guards), ``"sentinel"`` (sampled dual-engine
            verification + decode validation on re-attach, the default for
            pipeline runs) or ``"paranoid"`` (every job dual-replayed,
            decode re-validated on every replay).
        sentinel_interval: Sample 1 job in N for dual-engine verification;
            ``None`` resolves per level (``SENTINEL_INTERVAL`` for
            sentinel, 1 for paranoid).
        seed: Phase offset for the deterministic ordinal sampling.
        heartbeat_seconds: Watchdog: emit a ``heartbeat-stall`` event for
            any pooled job in flight longer than this (observation only —
            the executor's own timeout still owns cancellation).
        batch_deadline_seconds: Watchdog: emit a ``deadline`` event when a
            batch as a whole runs past this budget.
        memory_budget_mb: Watchdog: emit a ``memory-budget`` event when the
            parent's peak RSS exceeds this; workers check it before
            simulating and refuse (``MemoryError`` -> the job is isolated
            to the parent's serial lane) when already past it.
        poison_threshold: Circuit-break a job into the serial quarantine
            lane after it has killed this many workers.
    """

    level: str = "off"
    sentinel_interval: int | None = None
    seed: int = 0
    heartbeat_seconds: float | None = None
    batch_deadline_seconds: float | None = None
    memory_budget_mb: float | None = None
    poison_threshold: int = 2

    def __post_init__(self) -> None:
        if self.level not in GUARD_LEVELS:
            raise ValueError(
                f"unknown guard level {self.level!r}; expected one of {GUARD_LEVELS}"
            )
        if self.sentinel_interval is not None and self.sentinel_interval < 1:
            raise ValueError(
                f"sentinel_interval must be >= 1, got {self.sentinel_interval}"
            )
        if self.poison_threshold < 1:
            raise ValueError(
                f"poison_threshold must be >= 1, got {self.poison_threshold}"
            )

    # ------------------------------------------------------------ constructors
    @classmethod
    def off(cls) -> "GuardPlan":
        """No runtime guards (the engines' own verified memos remain)."""
        return cls(level="off")

    @classmethod
    def from_level(cls, level: str, **overrides) -> "GuardPlan":
        """Build a plan for a ``--guard-level`` name."""
        return cls(level=level, **overrides)

    # ---------------------------------------------------------------- queries
    @property
    def active(self) -> bool:
        return self.level != "off"

    @property
    def interval(self) -> int:
        """The resolved sentinel sampling interval."""
        if self.sentinel_interval is not None:
            return self.sentinel_interval
        return 1 if self.level == "paranoid" else SENTINEL_INTERVAL

    def samples(self, ordinal: int) -> bool:
        """Whether the job with this executor ordinal is sentinel-sampled.

        Seeded on the ordinal so the choice is deterministic across runs,
        identical between the pool and serial paths, and independent of
        scheduling order.
        """
        if not self.active:
            return False
        return (ordinal + self.seed) % self.interval == 0

    def supervises(self) -> bool:
        """Whether any watchdog budget needs the supervisor thread."""
        return self.active and (
            self.heartbeat_seconds is not None
            or self.batch_deadline_seconds is not None
            or self.memory_budget_mb is not None
        )


class GuardTelemetry(MetricView):
    """Guardrail counters, a view over the shared metrics registry.

    Attributes:
        sentinel_replays: Jobs dual-replayed through both engines.
        divergences: Sentinel comparisons that found a mismatch.
        nan_fallbacks: Columnar results rejected for NaN/overflow.
        decode_quarantines: Corrupt decodes quarantined and re-decoded.
        engine_errors: Columnar replays that raised and fell back.
        fallbacks: Total per-job fallbacks to the scalar engine.
        poison_jobs: Jobs circuit-broken into the serial quarantine lane.
        oom_events: Worker memory-budget breaches (injected or real).
        heartbeat_stalls: Jobs observed in flight past the heartbeat budget.
        deadline_breaches: Batches that ran past the deadline budget.
        memory_breaches: Parent peak-RSS budget breaches observed.
        shard_losses: Campaign shard processes that exited abnormally.
        lease_steals: Expired campaign leases taken over by another shard.
        events: All guard events recorded.
    """

    _fields = {
        name: f"sim.guard.{name}"
        for name in (
            "sentinel_replays",
            "divergences",
            "nan_fallbacks",
            "decode_quarantines",
            "engine_errors",
            "fallbacks",
            "poison_jobs",
            "oom_events",
            "heartbeat_stalls",
            "deadline_breaches",
            "memory_breaches",
            "shard_losses",
            "lease_steals",
            "events",
        )
    }


#: GuardEvent.kind -> GuardTelemetry counter attribute.
_KIND_COUNTERS = {
    "divergence": "divergences",
    "nan-result": "nan_fallbacks",
    "decode-corrupt": "decode_quarantines",
    "engine-error": "engine_errors",
    "poison-job": "poison_jobs",
    "worker-oom": "oom_events",
    "heartbeat-stall": "heartbeat_stalls",
    "deadline": "deadline_breaches",
    "memory-budget": "memory_breaches",
    "shard-lost": "shard_losses",
    "lease-steal": "lease_steals",
}

#: Event kinds that mean a job's columnar result was replaced by the
#: scalar reference result.
_FALLBACK_KINDS = frozenset({"divergence", "nan-result", "engine-error"})


class GuardRail:
    """Parent-side guardrail state for one executor's lifetime.

    Collects :class:`GuardEvent` records (worker-side events ship back
    in-band with results and are absorbed here), mirrors them into
    ``sim.guard.*`` metrics and tracer events, and owns the
    :class:`CampaignWatchdog`.
    """

    def __init__(
        self,
        plan: GuardPlan | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.plan = plan if plan is not None else GuardPlan.off()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.telemetry = GuardTelemetry(self.metrics)
        #: Every anomaly recorded over this executor's lifetime.
        self.events: list[GuardEvent] = []
        self.watchdog = CampaignWatchdog(self)

    @property
    def level(self) -> str:
        return self.plan.level

    def record(self, event: GuardEvent) -> None:
        """Absorb one guard event: list + metrics + tracer, atomically."""
        self.events.append(event)
        self.telemetry.events += 1
        counter = _KIND_COUNTERS.get(event.kind)
        if counter is not None:
            setattr(self.telemetry, counter, getattr(self.telemetry, counter) + 1)
        if event.kind in _FALLBACK_KINDS:
            self.telemetry.fallbacks += 1
        self.tracer.event(
            "guard",
            guard_kind=event.kind,
            workload=event.workload,
            machine=event.machine,
            action=event.action,
        )

    def absorb(self, events, sentinel_replays: int = 0) -> None:
        """Absorb a worker job's shipped-back guard outcome."""
        if sentinel_replays:
            self.telemetry.sentinel_replays += sentinel_replays
        for event in events or ():
            self.record(event)


def parent_rss_mb() -> float:
    """This process's peak RSS in MiB (0.0 where unavailable)."""
    try:
        import resource
    except ImportError:  # non-POSIX: budgets degrade to unenforced
        logger.debug("resource module unavailable; memory budget unenforced")
        return 0.0
    # ru_maxrss is KiB on Linux, bytes on macOS.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys

    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def check_memory_budget(plan: GuardPlan | None) -> None:
    """Refuse to start a worker job already past the memory budget.

    Raises:
        MemoryError: When the plan carries a ``memory_budget_mb`` and this
            process's peak RSS already exceeds it.  The executor treats the
            job like any poisoned job: it is isolated to the parent's
            serial lane (recorded as a ``worker-oom`` guard event) instead
            of running in a worker that the kernel may OOM-kill mid-write.
    """
    if plan is None or plan.memory_budget_mb is None:
        return
    rss = parent_rss_mb()
    if rss > plan.memory_budget_mb:
        raise MemoryError(
            f"worker peak RSS {rss:.0f} MiB exceeds the "
            f"{plan.memory_budget_mb:.0f} MiB guard budget"
        )


# ---------------------------------------------------------------------------
# Result integrity and bit-exact comparison
# ---------------------------------------------------------------------------

def compare_results(a, b) -> list[str]:
    """Bit-exact field comparison of two :class:`SimResult` objects.

    Returns human-readable mismatch descriptions (empty = identical).
    Float comparison is exact equality — "close" is exactly what the
    engines' bit-identity contract forbids settling for.
    """
    mismatches: list[str] = []

    def same(x, y) -> bool:
        if isinstance(x, float) and isinstance(y, float):
            return x == y or (np.isnan(x) and np.isnan(y))
        return x == y

    for attr in ("trace_name", "threads", "core_cycles", "dram_stall_weight"):
        if not same(getattr(a, attr), getattr(b, attr)):
            mismatches.append(
                f"{attr}: {getattr(a, attr)!r} != {getattr(b, attr)!r}"
            )
    for attr in ("counts", "components"):
        da, db = getattr(a, attr), getattr(b, attr)
        for key in sorted(set(da) | set(db)):
            if key not in da or key not in db:
                mismatches.append(f"{attr}[{key}]: present on one side only")
            elif not same(da[key], db[key]):
                mismatches.append(f"{attr}[{key}]: {da[key]!r} != {db[key]!r}")
    return mismatches


# ---------------------------------------------------------------------------
# Guarded simulation (runs in the parent's serial lane and inside workers)
# ---------------------------------------------------------------------------

def guarded_simulate(
    trace: SyntheticTrace,
    machine: MachineConfig,
    engine: str = "columnar",
    plan: GuardPlan | None = None,
    faults=None,
    ordinal: int = 0,
    attempt: int = 1,
    tracer=NULL_TRACER,
):
    """Simulate one job with the guardrail checks of ``plan`` applied.

    The pure function both the executor's serial lane and its workers call
    (worker events ship back in-band, so nothing here touches process
    globals beyond the trace's own decode memo).

    Returns:
        ``(result, events, sentinel_replays)``: the (possibly
        scalar-fallback) :class:`~repro.sim.cpu.SimResult`, the
        :class:`GuardEvent` list (empty on the happy path), and how many
        sentinel dual-replays ran (0 or 1).

    The guard pipeline for a columnar replay:

    1. apply any columnar chaos faults from ``faults`` (tests only),
    2. validate the decoded form (checksum + contract) — corrupt decodes
       are quarantined and re-decoded before replay,
    3. replay; an engine exception falls back to scalar,
    4. reject NaN/overflow in the result (fallback to scalar),
    5. if this ordinal is sentinel-sampled, replay through the scalar
       reference engine too and compare bit-exactly; a divergence discards
       the columnar result *and* the trace's memos.
    """
    from repro.sim.cpu import simulate

    events: list[GuardEvent] = []
    if plan is None or not plan.active or engine == "scalar":
        return simulate(trace, machine, engine, tracer=tracer), events, 0

    tables = trace.replay_tables()
    cols = tables.columnar(trace)
    fired = (
        faults.columnar_faults(trace.name, attempt, ordinal)
        if faults is not None and hasattr(faults, "columnar_faults")
        else ()
    )
    if "corrupt-column" in fired:
        _corrupt_columns(cols)

    # --- decoded-form validation (every cross-worker re-attach) -----------
    if plan.level == "paranoid" or not cols.fixpoint_seeds.get(_VALIDATED_KEY):
        problems = validate_columnar(cols)
        if problems:
            events.append(
                GuardEvent(
                    kind="decode-corrupt",
                    workload=trace.name,
                    machine=machine.name,
                    action="requarantine-decode",
                    detail="; ".join(problems[:3]),
                )
            )
            tables._columnar = None
            cols = tables.columnar(trace)
        cols.fixpoint_seeds[_VALIDATED_KEY] = True

    if "poison-memo" in fired:
        _poison_memo(trace, machine, cols)

    # --- columnar replay, guarded against exceptions ----------------------
    result = None
    try:
        result = simulate(trace, machine, "columnar", tracer=tracer)
    except Exception as exc:
        events.append(
            GuardEvent(
                kind="engine-error",
                workload=trace.name,
                machine=machine.name,
                action="fallback-scalar",
                detail=f"{type(exc).__name__}: {exc}",
            )
        )
        _quarantine_decode(tables, cols)
        return simulate(trace, machine, "scalar"), events, 0

    if "nan-pass" in fired:
        # Chaos: as if a vectorized pass leaked a NaN into the accounting.
        result.core_cycles = float("nan")

    # --- NaN/overflow rejection ------------------------------------------
    problems = result.integrity_problems()
    if problems:
        events.append(
            GuardEvent(
                kind="nan-result",
                workload=trace.name,
                machine=machine.name,
                action="fallback-scalar",
                detail="; ".join(problems[:3]),
            )
        )
        _quarantine_decode(tables, cols)
        return simulate(trace, machine, "scalar"), events, 0

    # --- divergence sentinel ---------------------------------------------
    if plan.samples(ordinal):
        reference = simulate(trace, machine, "scalar")
        mismatches = compare_results(result, reference)
        if mismatches:
            events.append(
                GuardEvent(
                    kind="divergence",
                    workload=trace.name,
                    machine=machine.name,
                    action="fallback-scalar",
                    detail="; ".join(mismatches[:3]),
                )
            )
            _quarantine_decode(tables, cols)
            return reference, events, 1
        return result, events, 1

    return result, events, 0


def _quarantine_decode(tables, cols) -> None:
    """Discard a suspect decode and its memos; the next replay rebuilds."""
    cols.fixpoint_seeds.clear()
    tables._columnar = None


def _corrupt_columns(cols) -> None:
    """Chaos helper: flip bits in the decoded data-side columns in place."""
    if cols.mem_line.size:
        cols.mem_line[::3] ^= 0x15
    elif cols.iline_line.size:
        cols.iline_line[::3] ^= 0x15
    else:
        cols.block_seq[:] = cols.block_seq[::-1]


def _poison_memo(trace, machine, cols) -> None:
    """Chaos helper: scramble the decode's verified warm-row memos.

    Warm rows are consumed without per-use verification (they are pure
    functions of the decode), so a poisoned entry yields a silently
    divergent replay — exactly what the sentinel exists to catch.  The
    memo is reset and repopulated with one throwaway replay first, so the
    poisoned state (and the divergence the sentinel reports) is the same
    no matter what this process replayed before — decodes are shared
    process-wide by trace identity.
    """
    from repro.sim.cpu import simulate

    cols.fixpoint_seeds.clear()
    simulate(trace, machine, "columnar")
    for key, value in list(cols.fixpoint_seeds.items()):
        if (
            isinstance(key, tuple)
            and key
            and key[0] == "warm"
            and isinstance(value, np.ndarray)
            and value.size
        ):
            cols.fixpoint_seeds[key] = value + 1


# ---------------------------------------------------------------------------
# Campaign watchdog
# ---------------------------------------------------------------------------

class CampaignWatchdog:
    """Supervisor for an executor's batches: heartbeats, budgets, poison jobs.

    Observation never alters results: the supervisor thread only *records*
    (guard events + metrics) — cancellation stays with the executor's own
    deterministic timeout/retry machinery.  The one behavioural lever is
    the poison-job circuit breaker, and that decision is taken
    synchronously by the executor from deterministic kill counts, never
    from the thread.
    """

    _TICK_SECONDS = 0.02

    def __init__(self, rail: GuardRail):
        self.rail = rail
        self._lock = threading.Lock()
        self._in_flight: dict[int, tuple[str, str, float]] = {}
        self._stalled: set[int] = set()
        self._kills: dict[str, int] = {}
        self._broken: set[str] = set()
        self._batch_started: float | None = None
        self._batch_flagged = False
        self._memory_flagged = False
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    @property
    def plan(self) -> GuardPlan:
        return self.rail.plan

    # ------------------------------------------------------------- lifecycle
    def batch_started(self) -> None:
        """Begin supervising one ``run_many`` batch."""
        with self._lock:
            self._batch_started = monotonic()
            self._batch_flagged = False
            self._in_flight.clear()
            self._stalled.clear()
        if self.plan.supervises() and self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._supervise, name="guard-watchdog", daemon=True
            )
            self._thread.start()

    def batch_finished(self) -> None:
        """Stop the supervisor thread after a batch completes."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=2.0)
            self._thread = None
        with self._lock:
            self._batch_started = None
            self._in_flight.clear()

    # ---------------------------------------------------------- job tracking
    def job_started(self, ordinal: int, workload: str, machine: str) -> None:
        with self._lock:
            self._in_flight[ordinal] = (workload, machine, monotonic())

    def job_finished(self, ordinal: int) -> None:
        with self._lock:
            self._in_flight.pop(ordinal, None)

    # ------------------------------------------------------------ poison jobs
    def record_worker_kill(self, key: str) -> int:
        """Count one worker death attributed to the job ``key``."""
        self._kills[key] = self._kills.get(key, 0) + 1
        return self._kills[key]

    def is_poisoned(self, key: str) -> bool:
        """Whether this job has killed enough workers to be circuit-broken."""
        return self._kills.get(key, 0) >= self.plan.poison_threshold

    def circuit_break(self, workload: str, machine: str, key: str) -> None:
        """Record that a poisoned job was quarantined to the serial lane.

        One event per job key for the executor's lifetime — later batches
        route the job straight to the serial lane without re-announcing.
        """
        if key in self._broken:
            return
        self._broken.add(key)
        self.rail.record(
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

    # ------------------------------------------------------------- supervision
    def _supervise(self) -> None:
        plan = self.plan
        while not self._stop.wait(self._TICK_SECONDS):
            now = monotonic()
            # The RSS probe is a syscall, so take it outside the lock; all
            # shared flag/set state is read and written inside one critical
            # section, and events are recorded after it is released (the
            # rail takes its own lock — never hold both).
            rss = (
                parent_rss_mb() if plan.memory_budget_mb is not None else None
            )
            events: list[GuardEvent] = []
            with self._lock:
                started = self._batch_started
                flight = list(self._in_flight.items())
                if started is None:
                    continue
                if (
                    plan.batch_deadline_seconds is not None
                    and not self._batch_flagged
                    and now - started > plan.batch_deadline_seconds
                ):
                    self._batch_flagged = True
                    events.append(
                        GuardEvent(
                            kind="deadline",
                            workload="*",
                            machine="*",
                            action="observe",
                            detail=(
                                f"batch past its "
                                f"{plan.batch_deadline_seconds:.2f} s "
                                f"deadline with {len(flight)} job(s) in flight"
                            ),
                        )
                    )
                if plan.heartbeat_seconds is not None:
                    for ordinal, (workload, machine, job_started) in flight:
                        if (
                            ordinal not in self._stalled
                            and now - job_started > plan.heartbeat_seconds
                        ):
                            self._stalled.add(ordinal)
                            events.append(
                                GuardEvent(
                                    kind="heartbeat-stall",
                                    workload=workload,
                                    machine=machine,
                                    action="observe",
                                    detail=(
                                        f"no heartbeat for "
                                        f"{now - job_started:.2f} s "
                                        f"(budget {plan.heartbeat_seconds:.2f} s)"
                                    ),
                                )
                            )
                if (
                    rss is not None
                    and not self._memory_flagged
                    and plan.memory_budget_mb is not None
                    and rss > plan.memory_budget_mb
                ):
                    self._memory_flagged = True
                    events.append(
                        GuardEvent(
                            kind="memory-budget",
                            workload="*",
                            machine="*",
                            action="observe",
                            detail=(
                                f"parent peak RSS {rss:.0f} MiB over the "
                                f"{plan.memory_budget_mb:.0f} MiB budget"
                            ),
                        )
                    )
            for event in events:
                self.rail.record(event)
