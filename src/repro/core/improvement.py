"""Iterative model improvement (Sections IV-F and VII).

The paper's closing methodology point: model errors interact, so components
must be repaired one at a time, most significant first, re-evaluating the
full system after each change ("Remaining sources of error can be reduced by
iteratively making changes and analysing the result with GemStone").

:func:`iterative_improvement` automates that loop: given a set of candidate
fixes (each a transformation of the machine configuration), it greedily
applies the fix that most reduces the execution-time MAPE, re-runs the
evaluation, and repeats until no candidate helps.  Each round is one
executor batch over every pending candidate and workload, replaying the
traces compiled once up front.  The audit trail doubles
as evidence for the paper's warning — fixes that look right in isolation
(e.g. the 32-entry ITLB) are rejected while a bigger error masks them, and
become acceptable once that error is repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.core.stats.metrics import mape, mpe
from repro.sim.executor import SimExecutor
from repro.sim.machine import MachineConfig
from repro.sim.result_cache import SimJob
from repro.workloads.profile import WorkloadProfile

#: A candidate fix: name plus a pure transformation of the machine config.
Fix = Callable[[MachineConfig], MachineConfig]


@dataclass(frozen=True)
class ImprovementStep:
    """One accepted iteration of the improvement loop."""

    applied: str
    mape: float
    mpe: float
    rejected: tuple[str, ...]  # candidates that did not help this round


@dataclass(frozen=True)
class ImprovementResult:
    """Outcome of the full loop.

    Attributes:
        initial_mape / initial_mpe: Error of the starting model.
        steps: Accepted fixes in application order, with the error after
            each and the candidates rejected that round.
        final_machine: The improved configuration.
        remaining: Candidate names never accepted.
    """

    initial_mape: float
    initial_mpe: float
    steps: tuple[ImprovementStep, ...]
    final_machine: MachineConfig
    remaining: tuple[str, ...]

    @property
    def final_mape(self) -> float:
        return self.steps[-1].mape if self.steps else self.initial_mape

    def summary(self) -> str:
        """Human-readable audit trail."""
        lines = [
            f"initial: MAPE {self.initial_mape:.1f}%  MPE {self.initial_mpe:+.1f}%"
        ]
        for step in self.steps:
            lines.append(
                f"+ {step.applied}: MAPE {step.mape:.1f}%  MPE {step.mpe:+.1f}%"
            )
            if step.rejected:
                lines.append(f"  (rejected this round: {', '.join(step.rejected)})")
        if self.remaining:
            lines.append(f"never accepted: {', '.join(self.remaining)}")
        return "\n".join(lines)


def iterative_improvement(
    hw_machine: MachineConfig,
    model_machine: MachineConfig,
    workloads: Sequence[WorkloadProfile],
    fixes: dict[str, Fix],
    freq_hz: float = 1.0e9,
    trace_instructions: int = 20_000,
    min_improvement: float = 1.0,
    max_rounds: int | None = None,
) -> ImprovementResult:
    """Greedy most-significant-first repair of a model configuration.

    Args:
        hw_machine: The reference-truth configuration.
        model_machine: The model to improve.
        workloads: Evaluation workloads.
        fixes: Candidate repairs, name -> config transformation.  Each fix
            is evaluated *on top of* the fixes already accepted.
        freq_hz: Evaluation frequency.
        trace_instructions: Trace length (shared between HW and model).
        min_improvement: Minimum MAPE reduction (percentage points) to
            accept a fix in a round.
        max_rounds: Optional cap on accepted fixes.

    Raises:
        ValueError: On empty workloads or fixes.
        SimJobError: A replay failed after the executor's retries.
    """
    if not workloads:
        raise ValueError("no workloads")
    if not fixes:
        raise ValueError("no candidate fixes")

    executor = SimExecutor()
    traces = [
        SimJob(w, trace_instructions, hw_machine).compile_recipe()
        for w in workloads
    ]

    def times(machines: Sequence[MachineConfig]) -> list[list[float]]:
        """Each machine's time per workload, from one batch."""
        results = executor.run_many(
            [SimJob(w, trace_instructions, m) for m in machines for w in workloads],
            traces=traces,
        )
        n = len(workloads)
        return [
            [r.time_seconds(freq_hz) for r in results[i : i + n]]
            for i in range(0, len(results), n)
        ]

    hw_times, model_times = times([hw_machine, model_machine])
    current = model_machine
    current_mape = mape(hw_times, model_times)
    current_mpe = mpe(hw_times, model_times)
    initial = (current_mape, current_mpe)

    pending = dict(fixes)
    steps: list[ImprovementStep] = []
    while pending and (max_rounds is None or len(steps) < max_rounds):
        candidates = [fix(current) for fix in pending.values()]
        scored: list[tuple[float, float, str, MachineConfig]] = [
            (mape(hw_times, t), mpe(hw_times, t), name, candidate)
            for name, candidate, t in zip(pending, candidates, times(candidates))
        ]
        scored.sort(key=lambda row: row[0])
        best_mape, best_mpe, best_name, best_machine = scored[0]
        if best_mape > current_mape - min_improvement:
            break
        rejected = tuple(
            name for error, _, name, _ in scored[1:] if error > current_mape
        )
        steps.append(
            ImprovementStep(
                applied=best_name, mape=best_mape, mpe=best_mpe, rejected=rejected
            )
        )
        current = best_machine
        current_mape, current_mpe = best_mape, best_mpe
        del pending[best_name]

    return ImprovementResult(
        initial_mape=initial[0],
        initial_mpe=initial[1],
        steps=tuple(steps),
        final_machine=current,
        remaining=tuple(pending),
    )


def standard_fixes(hw_machine: MachineConfig) -> dict[str, Fix]:
    """The repair candidates for the documented ex5_big errors."""
    return {
        "branch predictor": lambda m: replace(
            m, predictor=hw_machine.predictor,
            ras_corruption=0.1, indirect_corruption=0.15,
        ),
        "dram latency": lambda m: replace(
            m, dram_latency_ns=hw_machine.dram_latency_ns
        ),
        "tlb hierarchy": lambda m: replace(m, tlb=hw_machine.tlb),
        "sync costs": lambda m: replace(
            m,
            barrier_cycles=hw_machine.barrier_cycles,
            ldrex_cycles=hw_machine.ldrex_cycles,
            strex_cycles=hw_machine.strex_cycles,
        ),
        "l2 prefetcher": lambda m: replace(m, l2=hw_machine.l2),
        "write streaming": lambda m: replace(m, l1d=hw_machine.l1d),
    }
