"""The shared trace-driven CPU simulator.

Both the hardware reference platform and the gem5-style model run workloads
through this simulator; only the :class:`~repro.sim.machine.MachineConfig`
differs.  The simulator replays a block-structured
:class:`~repro.workloads.trace.SyntheticTrace` against concrete cache, TLB
and branch-predictor state and produces:

* micro-architectural event counts under *neutral* names (translated into
  ARMv7 PMU events by the platform layer and into gem5 statistics by the
  gem5 layer), and
* a frequency-analytic timing breakdown: core-clock cycles plus an exposure-
  weighted count of DRAM-latency events, so execution time at any DVFS
  operating point is derived without re-simulation (event counts on real
  hardware are frequency-invariant in the same way).

Wrong-path modelling is the part the paper's error analysis hinges on: after
every misprediction the front end fetches down the wrong path, probing the
ITLB and L1I with addresses that are frequently cold.  With the buggy gem5
predictor this happens an order of magnitude more often, producing the
walker-cache traffic of the paper's gem5-event Cluster A and the associated
fetch stalls.
"""

from __future__ import annotations

import math
import zlib
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.machine import MachineConfig
from repro.uarch.branch import IndirectPredictor, ReturnAddressStack, make_predictor
from repro.uarch.cache import SetAssociativeCache, StridePrefetcher
from repro.uarch.tlb import TlbHierarchy
from repro.workloads.trace import (
    CACHE_LINE_BYTES,
    KIND_NAMES,
    PAGE_BYTES,
    BranchClass,
    SyntheticTrace,
)

_LCG_MULT = 1103515245
_LCG_ADD = 12345
_LCG_MASK = 0x7FFFFFFF

_CLS_RANDOM = int(BranchClass.RANDOM)
_CLS_CALL = int(BranchClass.CALL)
_CLS_RETURN = int(BranchClass.RETURN)

#: Shadow (architectural) call-stack depth backing the RAS check.
_SHADOW_STACK_DEPTH = 64


@dataclass
class SimResult:
    """Outcome of simulating one trace on one machine (one core's work).

    Attributes:
        machine: The machine configuration simulated.
        trace_name: Workload name.
        threads: Thread count of the workload; counts are per core, and
            :meth:`time_seconds` applies the synchronisation slowdown.
        counts: Neutral event counts for one pass over the trace.
        core_cycles: Cycles accrued in the core clock domain.
        dram_stall_weight: Exposure-weighted DRAM-latency event count; the
            DRAM contribution to execution time is
            ``dram_stall_weight * dram_latency_ns`` at any frequency.
        components: Named core-cycle contributions (base, branch, icache,
            itlb, dcache, dtlb, sync, ...), for error attribution.
    """

    machine: MachineConfig
    trace_name: str
    threads: int
    counts: dict[str, float]
    core_cycles: float
    dram_stall_weight: float
    components: dict[str, float] = field(default_factory=dict)

    @property
    def sync_factor(self) -> float:
        """Multiplicative execution-time overhead of running multi-threaded."""
        return 1.0 + self.machine.sync_slowdown_per_thread * (self.threads - 1)

    def time_seconds(self, freq_hz: float) -> float:
        """Execution time of one trace pass at the given core frequency."""
        if freq_hz <= 0:
            raise ValueError("frequency must be positive")
        dram_seconds = self.dram_stall_weight * self.machine.dram_latency_ns * 1e-9
        return (self.core_cycles / freq_hz + dram_seconds) * self.sync_factor

    def cycles(self, freq_hz: float) -> float:
        """Active CPU cycles at the given frequency (PMU event 0x11)."""
        return self.time_seconds(freq_hz) * freq_hz

    def cpi(self, freq_hz: float) -> float:
        """Cycles per committed instruction at the given frequency."""
        instructions = self.counts.get("instructions", 0.0)
        return self.cycles(freq_hz) / instructions if instructions else 0.0

    def branch_predictor_accuracy(self) -> float:
        """Fraction of dynamic branches predicted correctly."""
        branches = self.counts.get("branches", 0.0)
        if not branches:
            return 1.0
        return 1.0 - self.counts.get("branch_mispredicts", 0.0) / branches

    def integrity_problems(self) -> list[str]:
        """Scan every numeric field for NaN/overflow/negative values.

        Every counter and weight a replay produces is a finite non-negative
        number by construction, so any violation means a vectorized pass
        (or a poisoned memo feeding one) leaked garbage into the
        accounting.  The guard layer (:mod:`repro.sim.guard`) rejects such
        results and falls back to the scalar engine.  Returns
        human-readable violations; an empty list means the result is sound.
        """
        fields = (
            self.core_cycles, self.dram_stall_weight,
            *self.counts.values(), *self.components.values(),
        )
        # NaN fails both comparisons.
        if all(
            0.0 <= value < math.inf
            for value in fields
            if isinstance(value, (int, float))
        ):
            return []
        problems: list[str] = []

        def check(label: str, value) -> None:
            if not isinstance(value, (int, float)):
                return
            value = float(value)
            if math.isnan(value):
                problems.append(f"{label} is NaN")
            elif math.isinf(value):
                problems.append(f"{label} is infinite")
            elif value < 0.0:
                problems.append(f"{label} is negative ({value!r})")

        check("core_cycles", self.core_cycles)
        check("dram_stall_weight", self.dram_stall_weight)
        for key in sorted(self.counts):
            check(f"counts[{key}]", self.counts[key])
        for key in sorted(self.components):
            check(f"components[{key}]", self.components[key])
        return problems


@dataclass
class _SimState:
    """All mutable micro-architectural state for one simulation pass.

    Every replay builds a fresh bundle with :func:`_make_state`, so no
    state survives from one replay to the next.
    """

    machine: MachineConfig
    l1i: SetAssociativeCache
    l1d: SetAssociativeCache
    l2: SetAssociativeCache
    l2_prefetcher: StridePrefetcher
    tlb: TlbHierarchy
    predictor: object
    ras: ReturnAddressStack
    shadow_stack: deque
    indirect: IndirectPredictor


def _make_state(machine: MachineConfig) -> _SimState:
    l1i = SetAssociativeCache(
        "l1i", machine.l1i.size_bytes, machine.l1i.line_bytes, machine.l1i.assoc
    )
    l1d = SetAssociativeCache(
        "l1d",
        machine.l1d.size_bytes,
        machine.l1d.line_bytes,
        machine.l1d.assoc,
        write_streaming=machine.l1d.write_streaming,
    )
    l2 = SetAssociativeCache(
        "l2", machine.l2.size_bytes, machine.l2.line_bytes, machine.l2.assoc
    )
    return _SimState(
        machine=machine,
        l1i=l1i,
        l1d=l1d,
        l2=l2,
        l2_prefetcher=StridePrefetcher(l2, machine.l2.prefetch_degree),
        tlb=TlbHierarchy(machine.tlb),
        predictor=make_predictor(
            machine.predictor,
            machine.predictor_table_bits,
            machine.predictor_history_bits,
        ),
        ras=ReturnAddressStack(),
        shadow_stack=deque(maxlen=_SHADOW_STACK_DEPTH),
        indirect=IndirectPredictor(),
    )


#: Engine names accepted by :func:`simulate`.
ENGINES = ("columnar", "scalar")


def simulate(
    trace: SyntheticTrace,
    machine: MachineConfig,
    engine: str = "columnar",
    tracer: Tracer = NULL_TRACER,
) -> SimResult:
    """Simulate ``trace`` on ``machine``; see :class:`SimResult`.

    ``engine`` selects the replay implementation: ``"columnar"`` (the
    vectorized engine, the default) or ``"scalar"`` (the per-block
    reference loop).  Both engines produce bit-identical results;
    the golden and randomized equivalence suites enforce it.  ``tracer``
    (columnar engine only) records per-pass spans and the deterministic
    replay-profile attribution; results never depend on it.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "scalar":
        return _simulate(trace, machine)
    from repro.sim.columnar import simulate_columnar

    return simulate_columnar(trace, machine, tracer)


def _simulate(trace: SyntheticTrace, machine: MachineConfig) -> SimResult:
    state = _make_state(machine)
    l1i = state.l1i
    l1d = state.l1d
    l2 = state.l2
    l2_prefetcher = state.l2_prefetcher
    tlb = state.tlb
    predictor = state.predictor
    ras = state.ras
    shadow_stack = state.shadow_stack
    indirect = state.indirect

    _prewarm(trace, l1i, l1d, l2, tlb)

    # --- local bindings for the hot loop -------------------------------------
    # The per-block replay tables (flat parallel lists, no dataclass
    # attribute access per dynamic block) and the dynamic sequences as
    # lists are machine-independent and memoised on the trace: every trace
    # is simulated on at least two machines, so the flattening cost is
    # paid once.
    blocks = trace.blocks
    tables = trace.replay_tables()
    block_seq, taken_seq, target_seq, mem_lines, mem_pages = (
        tables.dynamic_lists(trace)
    )
    block_pages = tables.block_pages
    block_lines = tables.block_lines
    page_tails = tables.page_tails
    line_tails = tables.line_tails
    block_last_page = tables.block_last_page
    block_last_line = tables.block_last_line
    block_addr = tables.block_addr
    block_class = tables.block_class
    block_backward = tables.block_backward
    block_n_mem = tables.block_n_mem
    wp_near_page = tables.wp_near_page
    mem_write_per_block = tables.mem_write_per_block
    code_pages = tables.code_pages
    n_code_pages = len(code_pages)

    # Bound-method hoists: attribute resolution out of the hot loop.
    translate_inst = tlb.translate_inst
    translate_data = tlb.translate_data
    probe_inst = tlb.probe_inst
    l2_itlb_lookup = tlb.l2_itlb.lookup
    l1i_access = l1i.access
    l1d_access = l1d.access
    l2_access = l2.access
    prefetch_train = l2_prefetcher.train
    predictor_predict = predictor.predict
    predictor_update = predictor.update
    ras_push = ras.push
    ras_pop = ras.pop
    ras_corrupt = ras.corrupt
    shadow_push = shadow_stack.append
    shadow_pop = shadow_stack.pop
    indirect_predict = indirect.predict_and_update

    # Deterministic LCG for the model's stochastic decisions (wrong-path
    # targets, RAS/indirect pollution); seeded per (trace, machine).
    lcg = (trace.seed ^ (zlib.crc32(machine.name.encode()) & _LCG_MASK)) or 1

    # Counters.
    branch_mispredicts = 0
    cond_branches = 0
    cond_mispredicts = 0
    returns = 0
    calls = 0
    indirect_branches = 0
    indirect_mispredicts = 0
    wrongpath_instructions = 0
    itlb_wrongpath_misses = 0
    l1i_fetch_accesses = 0
    dram_reads = 0.0
    dram_writes = 0.0

    # Timing accumulators (core cycles) and DRAM exposure weight.
    stall_branch = 0.0
    stall_icache = 0.0
    stall_itlb = 0.0
    stall_dcache = 0.0
    stall_dtlb = 0.0
    dram_weight = 0.0

    l2_lat = machine.l2.latency
    l2tlb_lat = machine.tlb.l2_latency
    walk_cycles = machine.tlb.walk_cycles
    mem_overlap = machine.mem_overlap
    store_exposure = machine.store_miss_exposure
    dram_exposure = 1.0 - machine.dram_overlap
    mispredict_penalty = machine.mispredict_penalty
    wrongpath_fetch = machine.wrongpath_fetch
    far_fraction = machine.wrongpath_far_fraction
    ras_corruption = machine.ras_corruption
    indirect_corruption = machine.indirect_corruption
    lines_per_page = PAGE_BYTES // CACHE_LINE_BYTES

    pending_indirect_corrupt = False
    last_ipage = -1
    last_iline = -1
    mem_cursor = 0

    for block_id, taken_raw, target in zip(block_seq, taken_seq, target_seq):
        # ---------------- instruction side ----------------
        pages = block_pages[block_id]
        if pages[0] == last_ipage:
            pages = page_tails[block_id]
        last_ipage = block_last_page[block_id]
        for page in pages:
            result = translate_inst(page)
            if not result.l1_hit:
                stall_itlb += l2tlb_lat
                if result.walked:
                    stall_itlb += walk_cycles
                    hit, _, _ = l2_access(page * lines_per_page)
                    if not hit:
                        dram_reads += 1
                        dram_weight += 0.5
        lines = block_lines[block_id]
        if lines[0] == last_iline:
            lines = line_tails[block_id]
        last_iline = block_last_line[block_id]
        for line in lines:
            l1i_fetch_accesses += 1
            hit, _, _ = l1i_access(line)
            if not hit:
                stall_icache += l2_lat * 0.8
                l2_hit, wrote_back, _ = l2_access(line)
                if wrote_back:
                    dram_writes += 1
                if not l2_hit:
                    dram_reads += 1
                    dram_weight += 0.9
                    prefetch_train(line)

        # ---------------- data side ----------------
        n_mem = block_n_mem[block_id]
        if n_mem:
            writes = mem_write_per_block[block_id]
            for slot_index in range(n_mem):
                is_write = writes[slot_index]
                line = mem_lines[mem_cursor]
                page = mem_pages[mem_cursor]
                mem_cursor += 1

                result = translate_data(page)
                if not result.l1_hit:
                    stall_dtlb += l2tlb_lat * (1.0 - mem_overlap)
                    if result.walked:
                        stall_dtlb += walk_cycles * (1.0 - 0.5 * mem_overlap)
                        hit, _, _ = l2_access(page * lines_per_page)
                        if not hit:
                            dram_reads += 1
                            dram_weight += 0.4

                hit, wrote_back, allocated = l1d_access(line, is_write)
                if wrote_back:
                    # L1D dirty victim written back into the L2.
                    l2_hit, l2_wb, _ = l2_access(line ^ 0x1, True)
                    if l2_wb:
                        dram_writes += 1
                if not hit:
                    if not allocated and is_write:
                        # Streaming store: write around L1D straight to L2.
                        # Cheaper than a write-allocate round trip, but the
                        # store stream still consumes L2/DRAM write
                        # bandwidth.
                        stall_dcache += l2_lat * 0.05
                        l2_hit, l2_wb, _ = l2_access(line, True)
                        if l2_wb:
                            dram_writes += 1
                        if not l2_hit:
                            dram_writes += 1
                            dram_weight += 0.12
                        continue
                    if is_write:
                        stall_dcache += l2_lat * store_exposure
                    else:
                        stall_dcache += l2_lat * (1.0 - mem_overlap)
                    l2_hit, l2_wb, _ = l2_access(line, is_write)
                    if l2_wb:
                        dram_writes += 1
                    if not l2_hit:
                        dram_reads += 1
                        dram_weight += (
                            store_exposure * 0.5 if is_write else dram_exposure
                        )
                        prefetch_train(line)

        # ---------------- branch at block end ----------------
        branch_class = block_class[block_id]
        mispredicted = False
        if branch_class <= _CLS_RANDOM:  # conditional classes
            cond_branches += 1
            taken = bool(taken_raw)
            pc = block_addr[block_id]
            backward = block_backward[block_id]
            prediction = predictor_predict(pc, backward)
            predictor_update(pc, taken, backward)
            if prediction != taken:
                cond_mispredicts += 1
                mispredicted = True
        elif branch_class == _CLS_CALL:
            calls += 1
            addr = block_addr[block_id]
            ras_push(addr)
            # The deque's maxlen discards the deepest frame once the shadow
            # stack exceeds the modelled depth, in O(1).
            shadow_push(addr)
        elif branch_class == _CLS_RETURN:
            returns += 1
            expected = shadow_pop() if shadow_stack else -1
            if not ras_pop(expected):
                mispredicted = True
        else:  # INDIRECT
            indirect_branches += 1
            correct = indirect_predict(block_addr[block_id], target)
            if pending_indirect_corrupt:
                correct = False
                pending_indirect_corrupt = False
            if not correct:
                indirect_mispredicts += 1
                mispredicted = True

        if mispredicted:
            branch_mispredicts += 1
            stall_branch += mispredict_penalty
            wrongpath_instructions += wrongpath_fetch

            # Wrong-path fetch: pick a target page and probe the front end.
            lcg = (lcg * _LCG_MULT + _LCG_ADD) & _LCG_MASK
            uniform = lcg / _LCG_MASK
            if uniform < far_fraction and n_code_pages > 1:
                lcg = (lcg * _LCG_MULT + _LCG_ADD) & _LCG_MASK
                wp_page = code_pages[lcg % n_code_pages] + 1 + (lcg % 7)
            else:
                wp_page = wp_near_page[block_id]

            if not probe_inst(wp_page):
                # Squashed translation: walker/L2-TLB traffic, no L1 fill.
                itlb_wrongpath_misses += 1
                wp_l2_hit = l2_itlb_lookup(wp_page)
                stall_itlb += l2tlb_lat
                if not wp_l2_hit:
                    stall_itlb += walk_cycles * 0.5
            wp_line = wp_page * lines_per_page + (lcg % 8)
            l1i_fetch_accesses += 1
            wp_hit, _, _ = l1i_access(wp_line)
            if not wp_hit:
                l2_hit, _, _ = l2_access(wp_line)
                if not l2_hit:
                    dram_reads += 1

            lcg = (lcg * _LCG_MULT + _LCG_ADD) & _LCG_MASK
            if lcg / _LCG_MASK < ras_corruption:
                ras_corrupt()
            lcg = (lcg * _LCG_MULT + _LCG_ADD) & _LCG_MASK
            if lcg / _LCG_MASK < indirect_corruption:
                pending_indirect_corrupt = True

    return _finalise(
        trace,
        machine,
        l1i_stats=l1i.stats,
        l1d_stats=l1d.stats,
        l2_stats=l2.stats,
        itlb_stats=tlb.itlb.stats,
        dtlb_stats=tlb.dtlb.stats,
        l2_itlb_stats=tlb.l2_itlb.stats,
        l2_dtlb_stats=tlb.l2_dtlb.stats,
        walks_inst=tlb.walks_inst,
        walks_data=tlb.walks_data,
        ras_incorrect=ras.incorrect,
        branch_mispredicts=branch_mispredicts,
        cond_branches=cond_branches,
        cond_mispredicts=cond_mispredicts,
        returns=returns,
        calls=calls,
        indirect_branches=indirect_branches,
        indirect_mispredicts=indirect_mispredicts,
        wrongpath_instructions=wrongpath_instructions,
        itlb_wrongpath_misses=itlb_wrongpath_misses,
        l1i_fetch_accesses=l1i_fetch_accesses,
        dram_reads=dram_reads,
        dram_writes=dram_writes,
        stalls={
            "branch": stall_branch,
            "icache": stall_icache,
            "itlb": stall_itlb,
            "dcache": stall_dcache,
            "dtlb": stall_dtlb,
        },
        dram_weight=dram_weight,
    )


def _prewarm(
    trace: SyntheticTrace,
    l1i: SetAssociativeCache,
    l1d: SetAssociativeCache,
    l2: SetAssociativeCache,
    tlb: TlbHierarchy,
) -> None:
    """Establish steady-state cache/TLB residency before measurement.

    The traces are short relative to the multi-second runs they represent;
    without pre-warming, cold misses on large footprints would swamp the
    steady-state behaviour the paper measures over >=30 s windows.  Code
    lines/pages and a capacity-bounded, evenly-sampled subset of each data
    stream's lines/pages are inserted silently (no counters).
    """
    line_bytes = CACHE_LINE_BYTES

    # Instruction side: hot code is L2-resident; the L1I and the TLBs keep
    # whatever fits (LRU retains the most recently inserted).  Each
    # structure receives its fill sequence in one bulk call; on a unified
    # L2 TLB the instruction-side fills land first, exactly as the
    # per-page loop ordered them.
    tables = trace.replay_tables()
    code_lines = tables.code_lines
    code_pages = tables.code_pages
    l2.warm_fill_many(code_lines)
    l1i.warm_fill_many(code_lines)
    tlb.l2_itlb.fill_many(code_pages)
    tlb.itlb.fill_many(code_pages)

    # Data side: streams that fit in the L2 are warmed completely (they are
    # L2-resident in steady state); oversized streams get an evenly-sampled
    # subset so pathological spans cannot make pre-warming slower than
    # simulation itself.  Per-stream footprints are generated as arange
    # ramps and concatenated so each cache/TLB again sees a single bulk
    # fill in the original stream order.
    l2_warm, l1d_warm, data_pages = _data_warm_arrays(trace, l2.size_bytes)
    l2.warm_fill_many(l2_warm)
    l1d.warm_fill_many(l1d_warm)
    tlb.l2_dtlb.fill_many(data_pages)
    tlb.dtlb.fill_many(data_pages)


def _data_warm_arrays(trace: SyntheticTrace, l2_size_bytes: int):
    """Data-side warm sequences shared by both engines.

    Returns ``(l2_warm, l1d_warm, data_pages)`` line/page arrays in the
    original stream order (every fourth warmed line — offset
    ``% (step * 4) == 0`` — also lands in the L1D); a trace without data
    streams warms nothing.
    """
    line_bytes = CACHE_LINE_BYTES
    l2_capacity_lines = l2_size_bytes // line_bytes
    warm_budget = 2 * l2_capacity_lines
    empty = np.empty(0, dtype=np.int64)
    l2_warm: list[np.ndarray] = [empty]
    l1d_warm: list[np.ndarray] = [empty]
    page_warm: list[np.ndarray] = [empty]
    for stream in trace.streams:
        span_lines = max(1, stream.span // line_bytes)
        if span_lines <= l2_capacity_lines and span_lines <= warm_budget:
            step = 1
        else:
            step = max(1, span_lines // max(min(warm_budget, l2_capacity_lines), 1))
        warm_budget = max(warm_budget - span_lines // step, 256)
        base_line = stream.base // line_bytes
        l2_warm.append(base_line + np.arange(0, span_lines, step, dtype=np.int64))
        l1d_warm.append(base_line + np.arange(0, span_lines, step * 4, dtype=np.int64))
        span_pages = max(1, stream.span // PAGE_BYTES)
        page_step = max(1, span_pages // 1024)
        base_page = stream.base // PAGE_BYTES
        page_warm.append(base_page + np.arange(0, span_pages, page_step, dtype=np.int64))
    return (
        np.concatenate(l2_warm),
        np.concatenate(l1d_warm),
        np.concatenate(page_warm),
    )


def _finalise(
    trace: SyntheticTrace,
    machine: MachineConfig,
    *,
    l1i_stats,
    l1d_stats,
    l2_stats,
    itlb_stats,
    dtlb_stats,
    l2_itlb_stats,
    l2_dtlb_stats,
    walks_inst: int,
    walks_data: int,
    ras_incorrect: int,
    branch_mispredicts: int,
    cond_branches: int,
    cond_mispredicts: int,
    returns: int,
    calls: int,
    indirect_branches: int,
    indirect_mispredicts: int,
    wrongpath_instructions: int,
    itlb_wrongpath_misses: int,
    l1i_fetch_accesses: int,
    dram_reads: float,
    dram_writes: float,
    stalls: dict[str, float],
    dram_weight: float,
) -> SimResult:
    totals = trace.totals
    n_instrs = trace.n_instrs
    profile = trace.profile

    # Static unaligned slots weighted by block execution counts: a single
    # integer dot product of the per-block unaligned-slot counts against the
    # np.bincount occurrence vector.
    occurrences = trace.block_occurrences()
    unaligned_per_block = np.fromiter(
        (sum(slot.unaligned for slot in block.mem_slots) for block in trace.blocks),
        dtype=np.int64,
        count=len(trace.blocks),
    )
    unaligned = int(unaligned_per_block @ occurrences)

    # Base pipeline cycles.
    effective_width = min(float(machine.issue_width), profile.ilp)
    if not machine.out_of_order:
        effective_width *= machine.inorder_efficiency
    base_cycles = n_instrs / max(effective_width, 0.1)

    op_stalls = (
        totals["div"] * machine.div_penalty
        + totals["mul"] * machine.mul_penalty
        + totals["fp"] * machine.fp_penalty
        + totals["simd"] * machine.simd_penalty
    )
    sync_stalls = (
        totals["barrier"] * machine.barrier_cycles
        + totals["ldrex"] * machine.ldrex_cycles
        + totals["strex"] * machine.strex_cycles
    )
    load_use = (
        totals["load"] * max(machine.l1d.latency - 1, 0) * machine.load_use_exposure
    )
    misc_stalls = unaligned * machine.unaligned_penalty

    components = {
        "base": base_cycles,
        "ops": op_stalls,
        "load_use": load_use,
        "sync": sync_stalls,
        "misc": misc_stalls,
        **stalls,
    }
    core_cycles = sum(components.values())

    branches = int(trace.n_branches)
    spec_inflation = 1.0 + 0.6 * wrongpath_instructions / max(n_instrs, 1)

    counts: dict[str, float] = {
        "instructions": float(n_instrs),
        "branches": float(branches),
        "cond_branches": float(cond_branches),
        "branch_mispredicts": float(branch_mispredicts),
        "cond_mispredicts": float(cond_mispredicts),
        "returns": float(returns),
        "calls": float(calls),
        "indirect_branches": float(indirect_branches),
        "indirect_mispredicts": float(indirect_mispredicts),
        "ras_incorrect": float(ras_incorrect),
        "spec_instructions": float(n_instrs) * spec_inflation,
        "wrongpath_instructions": float(wrongpath_instructions),
        "unaligned_accesses": float(unaligned),
        # Instruction side.
        "l1i_fetch_accesses": float(l1i_fetch_accesses),
        "l1i_instr_accesses": float(n_instrs + wrongpath_instructions),
        "l1i_misses": float(l1i_stats.read_misses),
        "itlb_lookups": float(itlb_stats.lookups),
        "itlb_misses": float(itlb_stats.misses),
        "itlb_wrongpath_misses": float(itlb_wrongpath_misses),
        "l2tlb_i_accesses": float(l2_itlb_stats.lookups),
        "l2tlb_i_hits": float(l2_itlb_stats.hits),
        "l2tlb_i_misses": float(l2_itlb_stats.misses),
        "itlb_walks": float(walks_inst),
        # Data side.
        "dtlb_lookups": float(dtlb_stats.lookups),
        "dtlb_misses": float(dtlb_stats.misses),
        "l2tlb_d_accesses": float(l2_dtlb_stats.lookups),
        "l2tlb_d_misses": float(l2_dtlb_stats.misses),
        "dtlb_walks": float(walks_data),
        "l1d_rd_accesses": float(l1d_stats.read_accesses),
        "l1d_wr_accesses": float(l1d_stats.write_accesses),
        "l1d_rd_misses": float(l1d_stats.read_misses),
        "l1d_wr_misses": float(l1d_stats.write_misses),
        "l1d_wr_refills": float(l1d_stats.write_refills),
        "l1d_writebacks": float(l1d_stats.writebacks),
        "l1d_streaming_stores": float(l1d_stats.streaming_stores),
        # Shared L2 and memory.
        "l2_rd_accesses": float(l2_stats.read_accesses),
        "l2_wr_accesses": float(l2_stats.write_accesses),
        "l2_rd_misses": float(l2_stats.read_misses),
        "l2_wr_misses": float(l2_stats.write_misses),
        "l2_writebacks": float(l2_stats.writebacks),
        "l2_prefetches": float(l2_stats.prefetches_issued),
        "dram_reads": float(dram_reads),
        "dram_writes": float(dram_writes),
    }
    for kind in KIND_NAMES:
        counts[f"inst_{kind}"] = float(totals[kind])

    return SimResult(
        machine=machine,
        trace_name=trace.name,
        threads=profile.threads,
        counts=counts,
        core_cycles=core_cycles,
        dram_stall_weight=dram_weight,
        components=components,
    )
