"""Shared full-scale datasets for the per-figure benchmarks.

Each benchmark regenerates one of the paper's tables or figures and prints a
paper-vs-measured comparison.  The expensive part — simulating 45-65
workloads on up to five machine configurations — happens once per session
here; the benchmarks then measure the *analysis* stages, which is also what
GemStone's runtime is dominated by once simulation results are cached.

Trace length trades fidelity for wall-clock; 40k instructions keeps the full
session under a few minutes while preserving every reproduced shape.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import pytest

from repro.core.pipeline import GemStone, GemStoneConfig
from repro.sim.result_cache import SimJob

BENCH_TRACE_INSTRUCTIONS = 40_000
ANALYSIS_FREQ = 1000e6


def _config(core: str, machine: str | None = None) -> GemStoneConfig:
    return GemStoneConfig(
        core=core,
        gem5_machine=machine,
        analysis_freq_hz=ANALYSIS_FREQ,
        trace_instructions=BENCH_TRACE_INSTRUCTIONS,
    )


@pytest.fixture(scope="session")
def gs_a15() -> GemStone:
    """A15 cluster vs the pre-fix ex5_big model (the paper's main subject)."""
    gemstone = GemStone(_config("A15"))
    gemstone.dataset  # force collection outside benchmark timings
    return gemstone


@pytest.fixture(scope="session")
def gs_a15_fixed(gs_a15) -> GemStone:
    """A15 cluster vs the post-BP-fix model (Section VII)."""
    gemstone = gs_a15.with_machine("gem5-ex5-big-fixed")
    gemstone.dataset
    return gemstone


@pytest.fixture(scope="session")
def gs_a7() -> GemStone:
    """A7 cluster vs the ex5_LITTLE model."""
    gemstone = GemStone(_config("A7"))
    gemstone.dataset
    return gemstone


def paper_row(label: str, paper: str, measured: str) -> str:
    return f"  {label:<46s} paper: {paper:<18s} measured: {measured}"


def print_header(title: str) -> None:
    print()
    print(f"=== {title} ===")


def median_and_iqr(values: list[float]) -> tuple[float, float]:
    """The median of ``values`` and their interquartile range."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), float(q3 - q1)


class CompiledJob(SimJob):
    """A :class:`SimJob` that compiles its recipe's trace once and reuses it.

    The overhead benchmarks time uncached ``SimExecutor.run`` calls on the
    replay hot path; a plain job would compile its trace inside every
    timed call.
    """

    @cached_property
    def recipe_trace(self):
        return super().compile_recipe()

    def compile_recipe(self):
        return self.recipe_trace
