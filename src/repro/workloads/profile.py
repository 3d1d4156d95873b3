"""Workload profiles: the statistical description of a benchmark program.

A profile captures the program-level axes that drive every analysis in the
paper: instruction mix (loads, stores, branches, integer, VFP, NEON,
exclusive/barrier operations), branch population behaviour, code and data
footprints, data locality, unaligned-access rate, and intrinsic ILP.  The
trace compiler (:mod:`repro.workloads.trace`) turns a profile into a concrete
deterministic instruction trace.

Profiles are *machine independent* — the same trace runs on the reference
hardware platform and on the gem5-style model, which is what makes
model-vs-hardware comparison meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of one benchmark workload.

    Instruction-mix fields are fractions of all dynamic instructions and must
    sum to at most 1; the remainder is plain integer ALU work.  Branch-class
    fields are fractions of dynamic *conditional* branches and must sum to 1.

    Attributes:
        name: Unique workload name, prefixed by suite (``mi-``, ``par-``,
            ``parsec-``, ``lm-``, ``rl-``) following the paper's Fig. 3.
        suite: Suite identifier (``mibench``, ``parmibench``, ``parsec``,
            ``lmbench``, ``longbottom``, ``classic``).
        threads: Thread count; PARSEC workloads run with 1 and 4 threads.
        frac_load / frac_store: Data-access mix.
        frac_branch: Dynamic branch fraction (conditional + indirect + calls
            + returns).
        frac_mul / frac_div: Long-latency integer operations.
        frac_fp: VFP scalar floating-point operations.
        frac_simd: NEON/Advanced-SIMD operations.
        frac_ldrex / frac_strex: Exclusive load/store rate (synchronisation).
        frac_barrier: DMB data-memory-barrier rate.
        loop_branch_frac: Fraction of dynamic conditional branches that are
            loop back-edges (taken for ``loop_trip_mean - 1`` of every
            ``loop_trip_mean`` executions).
        pattern_branch_frac: Branches following a short periodic pattern —
            predictable with history, unpredictable without.
        biased_branch_frac: Bernoulli branches taken with ``branch_bias``.
        random_branch_frac: Bernoulli(0.5) branches (data-dependent).
        branch_bias: Taken probability of biased branches.
        pattern_period: Period of patterned branches.
        indirect_frac: Fraction of dynamic branches that are indirect jumps
            (switch tables, virtual calls).
        return_frac: Fraction of dynamic branches that are procedure returns.
        loop_trip_mean: Mean iteration count of inner loops.
        n_functions: Distinct hot functions; spreads code across pages.
        code_kb: Hot code footprint in KiB (drives L1I/ITLB behaviour).
        data_kb: Hot data footprint in KiB (drives L1D/L2/DRAM behaviour).
        frac_seq / frac_stride / frac_rand: Data-locality mixture of memory
            references: sequential streaming, fixed-stride, uniform-random
            within the data footprint.  Must sum to 1.
        stride_b: Stride in bytes for the strided stream.
        frac_unaligned: Fraction of memory accesses that are unaligned.
        ilp: Dependency-limited sustainable ops/cycle on an ideal wide
            out-of-order core (the trace's intrinsic parallelism).
        natural_seconds: Approximate single-run duration on the reference
            platform at 1 GHz; the platform repeats runs to fill the ≥30 s
            power-measurement window exactly as the paper does.
        description: One-line description of the real benchmark mimicked.
    """

    name: str
    suite: str
    threads: int = 1
    frac_load: float = 0.20
    frac_store: float = 0.08
    frac_branch: float = 0.16
    frac_mul: float = 0.01
    frac_div: float = 0.0
    frac_fp: float = 0.0
    frac_simd: float = 0.0
    frac_ldrex: float = 0.0
    frac_strex: float = 0.0
    frac_barrier: float = 0.0
    loop_branch_frac: float = 0.45
    pattern_branch_frac: float = 0.15
    biased_branch_frac: float = 0.30
    random_branch_frac: float = 0.10
    branch_bias: float = 0.93
    pattern_period: int = 4
    indirect_frac: float = 0.02
    return_frac: float = 0.06
    loop_trip_mean: float = 12.0
    n_functions: int = 12
    code_kb: float = 96.0
    data_kb: float = 256.0
    frac_seq: float = 0.50
    frac_stride: float = 0.25
    stride_b: int = 64
    frac_rand: float = 0.25
    frac_unaligned: float = 0.0
    backward_loop_frac: float | None = None
    ilp: float = 1.8
    natural_seconds: float = 6.0
    description: str = ""

    def __post_init__(self) -> None:
        mix = self.instruction_mix_sum()
        if not 0.0 < mix <= 1.0:
            raise ValueError(
                f"{self.name}: instruction mix sums to {mix:.3f}; must be in (0, 1]"
            )
        branch_classes = (
            self.loop_branch_frac
            + self.pattern_branch_frac
            + self.biased_branch_frac
            + self.random_branch_frac
        )
        if abs(branch_classes - 1.0) > 1e-6:
            raise ValueError(
                f"{self.name}: conditional-branch classes sum to "
                f"{branch_classes:.3f}; must sum to 1"
            )
        locality = self.frac_seq + self.frac_stride + self.frac_rand
        if abs(locality - 1.0) > 1e-6:
            raise ValueError(
                f"{self.name}: locality fractions sum to {locality:.3f}; must sum to 1"
            )
        if self.indirect_frac + self.return_frac > 0.8:
            raise ValueError(f"{self.name}: indirect+return branches exceed 0.8")
        # A call/return pair per return_frac / (1 - 3 return_frac) blocks:
        # the rate has a pole at a third.
        if self.return_frac >= 1.0 / 3.0:
            raise ValueError(
                f"{self.name}: return_frac={self.return_frac} must be below 1/3"
            )
        for bounded in ("branch_bias", "frac_unaligned"):
            value = getattr(self, bounded)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{self.name}: {bounded}={value} outside [0, 1]")
        if self.threads < 1:
            raise ValueError(f"{self.name}: threads must be >= 1")
        if self.loop_trip_mean < 2:
            raise ValueError(f"{self.name}: loop_trip_mean must be >= 2")
        if self.ilp <= 0:
            raise ValueError(f"{self.name}: ilp must be positive")
        if self.code_kb <= 0 or self.data_kb <= 0:
            raise ValueError(f"{self.name}: footprints must be positive")
        if self.backward_loop_frac is not None and not 0.0 <= self.backward_loop_frac <= 1.0:
            raise ValueError(f"{self.name}: backward_loop_frac outside [0, 1]")

    def instruction_mix_sum(self) -> float:
        """Sum of all explicit instruction-mix fractions (rest is int ALU)."""
        return (
            self.frac_load
            + self.frac_store
            + self.frac_branch
            + self.frac_mul
            + self.frac_div
            + self.frac_fp
            + self.frac_simd
            + self.frac_ldrex
            + self.frac_strex
            + self.frac_barrier
        )

    @property
    def frac_int_alu(self) -> float:
        """Implied plain integer-ALU fraction."""
        return 1.0 - self.instruction_mix_sum()

    @property
    def frac_mem(self) -> float:
        """Total data-memory-access fraction (loads + stores + exclusives)."""
        return self.frac_load + self.frac_store + self.frac_ldrex + self.frac_strex

    @property
    def code_pages(self) -> int:
        """Hot code footprint in 4 KiB pages (at least 1)."""
        return max(1, round(self.code_kb / 4.0))

    @property
    def effective_backward_loop_frac(self) -> float:
        """Fraction of loop back-edges compiled as *backward* conditionals.

        Tight counted loops compile to a simple backward conditional branch;
        loops in complex code are frequently rotated, exiting through a
        forward conditional plus an unconditional jump.  Unless overridden,
        the fraction therefore grows with the loop trip count.
        """
        if self.backward_loop_frac is not None:
            return self.backward_loop_frac
        return min(0.92, 0.44 + self.loop_trip_mean / 300.0)

    def with_threads(self, threads: int) -> "WorkloadProfile":
        """A copy of this profile run with a different thread count.

        Multi-threaded copies get a ``-N`` name suffix and acquire the
        synchronisation behaviour (exclusives and barriers) that the paper's
        Cluster 1 attributes to concurrent applications.
        """
        if threads == self.threads:
            return self
        base = self.name.rsplit("-", 1)
        name = self.name
        if len(base) == 2 and base[1].isdigit():
            name = base[0]
        sync = 0.006 * (threads - 1) if threads > 1 else 0.0
        mix_budget = self.frac_int_alu
        sync = min(sync, mix_budget / 4.0)
        return replace(
            self,
            name=f"{name}-{threads}",
            threads=threads,
            frac_ldrex=self.frac_ldrex + sync,
            frac_strex=self.frac_strex + sync,
            frac_barrier=self.frac_barrier + sync / 2.0,
        )

    def iter_mix(self) -> Iterator[tuple[str, float]]:
        """Iterate over (kind-name, fraction) instruction-mix pairs."""
        yield "int_alu", self.frac_int_alu
        yield "load", self.frac_load
        yield "store", self.frac_store
        yield "branch", self.frac_branch
        yield "mul", self.frac_mul
        yield "div", self.frac_div
        yield "fp", self.frac_fp
        yield "simd", self.frac_simd
        yield "ldrex", self.frac_ldrex
        yield "strex", self.frac_strex
        yield "barrier", self.frac_barrier
