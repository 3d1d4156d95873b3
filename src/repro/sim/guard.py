"""Runtime guardrails: self-verifying replay.

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
* **Decoded-form validation** — a
  :class:`~repro.workloads.trace.ColumnarTrace` is checked against its
  checksum + shape/dtype/bounds contract
  (:func:`repro.workloads.trace.validate_columnar`) before its first
  guarded replay in a process; corrupt decodes are quarantined and
  re-decoded in place.

:class:`GuardRail` is the executor's ledger of these interventions; the
campaign board records lost shards and stolen leases on it too.

Everything surfaces three ways: :class:`GuardEvent` records (absorbed into
:class:`~repro.core.validation.CollectionHealth` by dataset collection),
``sim.guard.*`` metrics in the shared registry, and tracer events — the
report's "Guardrails" section renders the accounting.

The guard never *changes* a correct result: both engines are bit-identical
by construction, so a clean campaign under ``--guard-level sentinel`` (the
default) produces byte-for-byte the same report as ``--guard-level off``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.machine import MachineConfig
from repro.workloads.trace import SyntheticTrace, validate_columnar

#: Guard levels accepted by :class:`GuardPlan` and ``--guard-level``.
GUARD_LEVELS = ("off", "sentinel", "paranoid")

#: Default sentinel sampling interval (1 job in N is dual-replayed).  The
#: scalar reference replay costs 10-15x a steady-state columnar replay
#: (BENCH_replay.json), so the interval keeps sentinel-mode overhead on a
#: steady-state campaign under the 5% budget asserted by BENCH_guard.json.
SENTINEL_INTERVAL = 512

#: Marker key on ``ColumnarTrace.memo`` recording that this
#: process already validated the decode (sentinel mode validates once per
#: decode; paranoid re-validates every replay).
_VALIDATED_KEY = ("guard", "validated")


@dataclass(frozen=True)
class GuardEvent:
    """One structured guardrail action (never a silent degradation).

    Attributes:
        kind: What was detected: ``divergence``, ``nan-result``,
            ``decode-corrupt``, ``engine-error``, ``shard-lost``,
            ``lease-steal``.
        workload: Trace name of the affected job.
        machine: Machine name of the affected job.
        action: What the guard did about it: ``fallback-scalar``,
            ``requarantine-decode``, ``observe``.
        detail: Human-readable specifics (mismatched fields, ...).
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
    """Immutable guardrail configuration.

    Attributes:
        level: ``"off"`` (no guards), ``"sentinel"`` (sampled dual-engine
            verification + decode validation on first use, the default for
            pipeline runs) or ``"paranoid"`` (every job dual-replayed,
            decode re-validated on every replay).
        sentinel_interval: Sample 1 job in N for dual-engine verification;
            ``None`` resolves per level (``SENTINEL_INTERVAL`` for
            sentinel, 1 for paranoid).
        seed: Phase offset for the deterministic ordinal sampling.
    """

    level: str = "off"
    sentinel_interval: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.level not in GUARD_LEVELS:
            raise ValueError(
                f"unknown guard level {self.level!r}; expected one of {GUARD_LEVELS}"
            )
        if self.sentinel_interval is not None and self.sentinel_interval < 1:
            raise ValueError(
                f"sentinel_interval must be >= 1, got {self.sentinel_interval}"
            )

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

        Seeded on the ordinal so the choice is deterministic across runs
        and independent of the order in which jobs run.
        """
        if not self.active:
            return False
        return (ordinal + self.seed) % self.interval == 0


#: GuardEvent.kind -> the counter it bumps besides ``sim.guard.events``.
_KIND_COUNTERS = {
    "divergence": "sim.guard.divergences",
    "nan-result": "sim.guard.nan_fallbacks",
    "decode-corrupt": "sim.guard.decode_quarantines",
    "engine-error": "sim.guard.engine_errors",
    "shard-lost": "sim.guard.shard_losses",
    "lease-steal": "sim.guard.lease_steals",
}

#: Event kinds that mean a job's columnar result was replaced by the
#: scalar reference result.
_FALLBACK_KINDS = frozenset({"divergence", "nan-result", "engine-error"})


class GuardRail:
    """Guardrail state for one executor's lifetime.

    Collects :class:`GuardEvent` records (each job's events come back
    from :func:`guarded_simulate` and are absorbed here) and mirrors them into
    tracer events and ``sim.guard.*`` counters of :attr:`metrics`:
    ``events`` (all records), one counter per event kind
    (:data:`_KIND_COUNTERS`), ``fallbacks`` (results replaced by the
    scalar reference) and ``sentinel_replays`` (jobs dual-replayed).
    """

    def __init__(
        self,
        plan: GuardPlan | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.plan = plan if plan is not None else GuardPlan()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Every anomaly recorded over this executor's lifetime.
        self.events: list[GuardEvent] = []

    @property
    def level(self) -> str:
        return self.plan.level

    def record(self, event: GuardEvent) -> None:
        """Absorb one guard event: list + metrics + tracer."""
        self.events.append(event)
        self.metrics.counter("sim.guard.events").inc()
        counter = _KIND_COUNTERS.get(event.kind)
        if counter is not None:
            self.metrics.counter(counter).inc()
        if event.kind in _FALLBACK_KINDS:
            self.metrics.counter("sim.guard.fallbacks").inc()
        self.tracer.event(
            "guard",
            guard_kind=event.kind,
            workload=event.workload,
            machine=event.machine,
            action=event.action,
        )

    def absorb(self, events, sentinel_replays: int = 0) -> None:
        """Absorb one job's guard outcome from :func:`guarded_simulate`."""
        if sentinel_replays:
            self.metrics.counter("sim.guard.sentinel_replays").inc(
                sentinel_replays
            )
        for event in events or ():
            self.record(event)


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
# Guarded simulation (one call per executor job attempt)
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

    The pure function the executor calls per job attempt (events are
    returned, not recorded, so the only state touched here is the trace's
    own decode memo).

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

    # The decode the replay below reuses, timed as the replay's own.
    with tracer.span("replay/decode", kind="replay"):
        tables = trace.replay_tables()
        cols = tables.columnar(trace)
    fired = (
        faults.columnar_faults(trace.name, attempt, ordinal)
        if faults is not None and hasattr(faults, "columnar_faults")
        else ()
    )
    if "corrupt-column" in fired:
        _corrupt_columns(cols)

    # --- decoded-form validation (first guarded use of a decode) ----------
    if plan.level == "paranoid" or not cols.memo.get(_VALIDATED_KEY):
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
        cols.memo[_VALIDATED_KEY] = True

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
    cols.memo.clear()
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
    no matter what was replayed on this trace object before — the serial
    lane replays one trace on every machine of its batch.
    """
    from repro.sim.cpu import simulate

    cols.memo.clear()
    simulate(trace, machine, "columnar")
    for key, value in list(cols.memo.items()):
        if (
            isinstance(key, tuple)
            and key
            and key[0] == "warm"
            and isinstance(value, np.ndarray)
            and value.size
        ):
            cols.memo[key] = value + 1
