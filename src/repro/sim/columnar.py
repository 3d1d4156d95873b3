"""Columnar replay engine: vectorized trace replay, bit-identical results.

The scalar engine in :mod:`repro.sim.cpu` dispatches one Python iteration
per dynamic block.  This module replays the same trace as a handful of
whole-trace passes instead:

1. **Branch pass** — every conditional branch is resolved at once
   (:func:`repro.uarch.branch.predict_conditional_batch`): the 2-bit
   counter tables become segmented clamp-scans, gshare history a bit
   convolution.  The conditional predictor is a closed subsystem — its
   state is touched by conditional branches only — so this pass is exact.
2. **Control pass** — a sparse scalar walk over just the control-flow
   blocks that interact with shared speculative state (calls, returns,
   indirect branches, plus the mispredicted conditionals): RAS, shadow
   stack, indirect predictor, and the LCG that picks wrong-path targets.
3. **L1 passes** — the L1I, L1D, ITLB and DTLB access streams are fully
   known once the control pass has fixed the wrong-path fetches, so each
   structure is replayed on its own, op by op from empty after its
   compressed warm rows, by the ``lru_replay`` entry of the C kernel in
   :mod:`repro.sim.kernel`: exact LRU with the ITLB's non-mutating
   wrong-path probes, the L1D's dirty write-backs and the A15's
   streaming-store detector, one outcome byte per op.
4. **Merged L2 walk** — only the events that reach the shared L2 /
   L2 TLB / prefetcher (a few percent of all accesses) are replayed in
   exact program order, after the silent warm fills, by the kernel's
   ``l2_walk``.  All order-sensitive float accumulation (stall terms with
   inexact weights, DRAM exposure weights) happens there, in the scalar
   engine's order, which is what keeps `SimResult` *bit-identical* rather
   than merely close.

If the kernel cannot be built, the replay raises and the guard replays
on the scalar engine.  The golden suite and the randomized equivalence
suite assert bit-identity against the scalar engine, which remains the
reference.
"""

from __future__ import annotations

import zlib
from collections import deque

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.cpu import (
    _CLS_CALL,
    _CLS_RANDOM,
    _CLS_RETURN,
    _LCG_ADD,
    _LCG_MASK,
    _LCG_MULT,
    _SHADOW_STACK_DEPTH,
    _data_warm_arrays,
    _finalise,
)
# The L1 passes and the merged L2 walk: their C kernel is built and loaded
# on the first call.
from repro.sim.kernel import OP_MUTATE, OP_WRITE, OUT_HIT, OUT_STREAMED, OUT_WROTE_BACK
from repro.sim.kernel import l2_walk as _l2_walk
from repro.sim.kernel import lru_replay as _lru_replay
from repro.sim.machine import MachineConfig
from repro.uarch.branch import (
    IndirectPredictor,
    ReturnAddressStack,
    predict_conditional_batch,
)
from repro.uarch.cache import CacheStats, lru_geometry, warm_content_rows
from repro.uarch.tlb import TlbStats
from repro.workloads.trace import (
    CACHE_LINE_BYTES,
    PAGE_BYTES,
    SyntheticTrace,
)

# Merged-walk event kinds, ordered roughly by expected frequency.
_EV_L1D_MISS = 0
_EV_DTLB_MISS = 1
_EV_L1D_WB = 2
_EV_L1I_MISS = 3
_EV_L1D_STREAM = 4
_EV_WP_TLB = 5
_EV_WP_L1I = 6
_EV_ITLB_MISS = 7

# Phase order of events inside one dynamic block, matching the scalar
# engine: instruction pages, instruction lines, data slots, wrong path.
_PH_IPAGE = 0
_PH_ILINE = 1
_PH_DATA = 2
_PH_WP = 3


def _merge_order(pos, phase, intra, sub):
    """Sort events into scalar program order: (pos, phase, intra, sub)."""
    return np.lexsort((sub, intra, phase, pos))


def _repeated_sum(value: float, n: int) -> float:
    """``n`` sequential float additions of ``value`` onto 0.0.

    Matches the scalar engine's accumulation rounding exactly.  For the
    integer-valued penalties of the stock machine configurations this
    equals ``n * value``, but custom configurations may use penalties
    where sequential addition rounds differently.
    """
    total = 0.0
    for _ in range(n):
        total += value
    return total


def simulate_columnar(
    trace: SyntheticTrace,
    machine: MachineConfig,
    tracer: Tracer = NULL_TRACER,
):
    """Replay ``trace`` on ``machine`` with the columnar engine.

    Returns a `SimResult` bit-identical to ``repro.sim.cpu._simulate``.
    The RAS and the indirect predictor are the only scalar state driven
    here; every cache and TLB is replayed by the kernel.
    """
    ras = ReturnAddressStack()
    shadow_stack: deque[int] = deque(maxlen=_SHADOW_STACK_DEPTH)
    indirect = IndirectPredictor()
    l2_bytes = machine.l2.size_bytes
    itlb_geo = lru_geometry(machine.tlb.itlb_entries, machine.tlb.itlb_assoc)
    dtlb_geo = lru_geometry(machine.tlb.dtlb_entries, machine.tlb.dtlb_assoc)
    l1i_geo = lru_geometry(machine.l1i.lines, machine.l1i.assoc)
    l1d_geo = lru_geometry(machine.l1d.lines, machine.l1d.assoc)
    l1d_streaming = machine.l1d.write_streaming

    with tracer.span("replay/decode", kind="replay"):
        tables = trace.replay_tables()
        cols = tables.columnar(trace)

    # ---------------------------------------------------------------- warm
    # Each L1 pass replays its structure from empty, so its warm sequence
    # becomes (compressed) mutating rows at the head of its stream.  The
    # L2-side structures are warmed by the merged walk below.
    code_lines = np.asarray(tables.code_lines, dtype=np.int64)
    code_pages = np.asarray(tables.code_pages, dtype=np.int64)
    memo = cols.memo
    dw_key = ("data_warm", l2_bytes)
    if dw_key in memo:
        l2_warm, l1d_warm, data_pages = memo[dw_key]
    else:
        l2_warm, l1d_warm, data_pages = _data_warm_arrays(trace, l2_bytes)
        memo[dw_key] = (l2_warm, l1d_warm, data_pages)

    # ---------------------------------------------------------- branch pass
    with tracer.span("replay/branch_pass", kind="replay"):
        cond_prediction = predict_conditional_batch(
            machine.predictor,
            machine.predictor_table_bits,
            machine.predictor_history_bits,
            cols.cond_pc,
            cols.cond_taken,
            cols.cond_backward,
        )
        cond_taken_b = cols.cond_taken.astype(bool)
        cond_miss = cond_prediction != cond_taken_b

    # ---------------------------------------------------------- control pass
    with tracer.span("replay/control_pass", kind="replay"):
        ctrl = _control_pass(
            trace, machine, cols, code_pages, cond_miss, ras, shadow_stack, indirect
        )
    (
        wp_pos,
        wp_page,
        wp_line,
        calls,
        returns,
        indirect_branches,
        indirect_mispredicts,
        branch_mispredicts,
    ) = ctrl
    n_mispredicts = len(wp_pos)

    # ------------------------------------------------------------- L1 passes
    lines_per_page = PAGE_BYTES // CACHE_LINE_BYTES

    with tracer.span("replay/itlb_pass", kind="replay"):
        # ITLB stream: warm code pages, then translate_inst lookups (one per
        # deduplicated instruction-page event) interleaved with the
        # non-mutating wrong-path probes, in program order.
        n_ipage = len(cols.ipage_pos)
        ev_pos = np.concatenate([cols.ipage_pos.astype(np.int64), wp_pos])
        ev_phase = np.concatenate(
            [np.zeros(n_ipage, np.int8), np.full(n_mispredicts, _PH_WP, np.int8)]
        )
        ev_intra = np.concatenate(
            [cols.ipage_intra.astype(np.int64), np.zeros(n_mispredicts, np.int64)]
        )
        order = _merge_order(ev_pos, ev_phase, ev_intra, np.zeros(len(ev_pos), np.int8))
        itlb_pages = np.concatenate([cols.ipage_page, wp_page])[order]
        itlb_mut = np.concatenate(
            [np.ones(n_ipage, bool), np.zeros(n_mispredicts, bool)]
        )[order]
        itlb_warm = _warm_memo(memo, "itlb", code_pages, *itlb_geo)
        n_warm = len(itlb_warm)
        itlb_keys = np.concatenate([itlb_warm, itlb_pages])
        itlb_mut_full = np.concatenate([np.ones(n_warm, bool), itlb_mut])
        out = _replay_memo(
            memo,
            ("itlb_replay", *itlb_geo),
            (itlb_keys, itlb_mut_full),
            lambda: _lru_replay(itlb_keys, *itlb_geo, itlb_mut_full),
        )
        hits = (out[n_warm:] & OUT_HIT) != 0
        unsorted_hits = np.empty(len(hits), dtype=bool)
        unsorted_hits[order] = hits
        ipage_hit = unsorted_hits[:n_ipage]
        wp_probe_hit = unsorted_hits[n_ipage:]
        itlb_misses = int(np.count_nonzero(~ipage_hit))

    with tracer.span("replay/l1i_pass", kind="replay"):
        # L1I stream: warm code lines, then fetch accesses (deduplicated
        # instruction-line events) interleaved with wrong-path fetches.
        n_iline = len(cols.iline_pos)
        ev_pos = np.concatenate([cols.iline_pos.astype(np.int64), wp_pos])
        ev_phase = np.concatenate(
            [np.full(n_iline, _PH_ILINE, np.int8), np.full(n_mispredicts, _PH_WP, np.int8)]
        )
        ev_intra = np.concatenate(
            [cols.iline_intra.astype(np.int64), np.zeros(n_mispredicts, np.int64)]
        )
        order = _merge_order(ev_pos, ev_phase, ev_intra, np.zeros(len(ev_pos), np.int8))
        l1i_lines = np.concatenate([cols.iline_line, wp_line])[order]
        l1i_warm = _warm_memo(memo, "l1i", code_lines, *l1i_geo)
        n_warm = len(l1i_warm)
        l1i_keys = np.concatenate([l1i_warm, l1i_lines])
        out = _replay_memo(
            memo,
            ("l1i_replay", *l1i_geo),
            (l1i_keys,),
            lambda: _lru_replay(l1i_keys, *l1i_geo),
        )
        hits = (out[n_warm:] & OUT_HIT) != 0
        unsorted_hits = np.empty(len(hits), dtype=bool)
        unsorted_hits[order] = hits
        iline_hit = unsorted_hits[:n_iline]
        wp_l1i_hit = unsorted_hits[n_iline:]
        l1i_read_misses = int(np.count_nonzero(~hits))

    with tracer.span("replay/dtlb_pass", kind="replay"):
        dtlb_warm = _warm_memo(memo, ("dtlb", l2_bytes), data_pages, *dtlb_geo)
        n_warm = len(dtlb_warm)
        dtlb_keys = np.concatenate([dtlb_warm, cols.mem_page])
        out = _replay_memo(
            memo,
            ("dtlb_replay", *dtlb_geo, l2_bytes),
            (dtlb_keys,),
            lambda: _lru_replay(dtlb_keys, *dtlb_geo),
        )
        dtlb_hit = (out[n_warm:] & OUT_HIT) != 0
        dtlb_misses = int(np.count_nonzero(~dtlb_hit))

    with tracer.span("replay/l1d_pass", kind="replay"):
        l1d_warm_c = _warm_memo(memo, ("l1d", l2_bytes), l1d_warm, *l1d_geo)
        n_warm = len(l1d_warm_c)
        l1d_keys = np.concatenate([l1d_warm_c, cols.mem_line])
        l1d_writes = np.concatenate([np.zeros(n_warm, bool), cols.mem_write])
        # The stream depends on the trace and on the L2 capacity that sized
        # the warm prefix.
        out = _replay_memo(
            memo,
            ("l1d_replay", *l1d_geo, l1d_streaming, l2_bytes),
            (l1d_keys, l1d_writes, n_warm),
            lambda: _lru_replay(
                l1d_keys, *l1d_geo,
                np.where(l1d_writes, OP_MUTATE | OP_WRITE, OP_MUTATE),
                l1d_streaming,
            ),
        )[n_warm:]
        mem_hit = (out & OUT_HIT) != 0
        mem_streamed = (out & OUT_STREAMED) != 0
        mem_wb = (out & OUT_WROTE_BACK) != 0

    # --------------------------------------------------------- merged events
    with tracer.span("replay/merge_events", kind="replay"):
        merged = _build_merged_events(
            cols, lines_per_page,
            ipage_hit, iline_hit, dtlb_hit, mem_hit, mem_streamed, mem_wb,
            wp_pos, wp_page, wp_line, wp_probe_hit, wp_l1i_hit,
        )

    # ------------------------------------------------------------ merged walk
    warm = (code_lines, code_pages, l2_warm, data_pages)
    with tracer.span("replay/l2_walk", kind="replay", events=len(merged[0])):
        walk, l2_stats, l2_itlb_stats, l2_dtlb_stats = _replay_memo(
            memo, ("l2walk",), (merged[0], merged[1], merged[2], machine),
            lambda: _l2_walk(merged, machine, warm),
        )
    (
        stall_icache,
        stall_itlb,
        stall_dcache,
        stall_dtlb,
        dram_reads,
        dram_writes,
        dram_weight,
        walks_inst,
        walks_data,
    ) = walk

    # ---------------------------------------------------------------- stats
    n_mem = len(cols.mem_line)
    mem_write = cols.mem_write
    write_misses = int(np.count_nonzero(~mem_hit & mem_write))
    streaming_stores = int(np.count_nonzero(mem_streamed))
    l1d_stats = CacheStats(
        read_accesses=int(np.count_nonzero(~mem_write)),
        write_accesses=int(np.count_nonzero(mem_write)),
        read_misses=int(np.count_nonzero(~mem_hit & ~mem_write)),
        write_misses=write_misses,
        write_refills=write_misses - streaming_stores,
        writebacks=int(np.count_nonzero(mem_wb)),
        streaming_stores=streaming_stores,
    )
    l1i_stats = CacheStats(
        read_accesses=n_iline + n_mispredicts, read_misses=l1i_read_misses
    )
    itlb_stats = TlbStats(
        lookups=n_ipage, hits=n_ipage - itlb_misses, misses=itlb_misses
    )
    dtlb_stats = TlbStats(
        lookups=n_mem, hits=n_mem - dtlb_misses, misses=dtlb_misses
    )

    cond_mispredicts = int(np.count_nonzero(cond_miss))

    result = _finalise(
        trace,
        machine,
        l1i_stats=l1i_stats,
        l1d_stats=l1d_stats,
        l2_stats=l2_stats,
        itlb_stats=itlb_stats,
        dtlb_stats=dtlb_stats,
        l2_itlb_stats=l2_itlb_stats,
        l2_dtlb_stats=l2_dtlb_stats,
        walks_inst=walks_inst,
        walks_data=walks_data,
        ras_incorrect=ras.incorrect,
        branch_mispredicts=branch_mispredicts,
        cond_branches=len(cols.cond_pos),
        cond_mispredicts=cond_mispredicts,
        returns=returns,
        calls=calls,
        indirect_branches=indirect_branches,
        indirect_mispredicts=indirect_mispredicts,
        wrongpath_instructions=machine.wrongpath_fetch * n_mispredicts,
        itlb_wrongpath_misses=int(np.count_nonzero(~wp_probe_hit)),
        l1i_fetch_accesses=n_iline + n_mispredicts,
        dram_reads=dram_reads,
        dram_writes=dram_writes,
        stalls={
            "branch": _repeated_sum(machine.mispredict_penalty, n_mispredicts),
            "icache": stall_icache,
            "itlb": stall_itlb,
            "dcache": stall_dcache,
            "dtlb": stall_dtlb,
        },
        dram_weight=dram_weight,
    )
    if tracer.enabled:
        # Deterministic per-pass cycle attribution: every attribute is a
        # pure function of (trace, machine), so traced replays keep
        # deterministic span shapes (no wall-clock in the identity).
        from repro.obs.prof import attribute_cycles

        tracer.event(
            "replay-profile",
            kind="profile",
            workload=trace.name,
            machine=machine.name,
            core_cycles=result.core_cycles,
            cycles_by_pass=attribute_cycles(result.components),
        )
    return result


def _control_pass(
    trace, machine, cols, code_pages, cond_miss, ras, shadow_stack, indirect
):
    """Sparse scalar walk over control blocks that share speculative state.

    Only calls, returns, indirect branches and mispredicted conditionals
    touch the RAS / shadow stack / indirect predictor / LCG, so the walk
    visits a small fraction of the dynamic blocks.  Produces the
    wrong-path fetch schedule (position, page, line per misprediction)
    plus the control-flow counters.
    """
    class_seq = cols.class_seq
    ctrl_mask = class_seq > _CLS_RANDOM
    is_cond_ctrl = np.zeros(len(ctrl_mask), dtype=bool)
    mis_pos = cols.cond_pos[cond_miss]
    is_cond_ctrl[mis_pos] = True
    walk_positions = np.flatnonzero(ctrl_mask | is_cond_ctrl)

    lcg = (trace.seed ^ (zlib.crc32(machine.name.encode()) & _LCG_MASK)) or 1
    far_fraction = machine.wrongpath_far_fraction
    ras_corruption = machine.ras_corruption
    indirect_corruption = machine.indirect_corruption
    n_code_pages = len(code_pages)
    lines_per_page = PAGE_BYTES // CACHE_LINE_BYTES

    # Gather every walked column into python lists up front: the loop is
    # pure-python state tracking, and per-iteration numpy scalar indexing
    # would dominate it.
    pos_walk = walk_positions.tolist()
    cls_walk = class_seq[walk_positions].tolist()
    addr_walk = cols.addr_seq[walk_positions].tolist()
    target_walk = cols.target_seq[walk_positions].tolist()
    wp_near_walk = cols.wp_near_seq[walk_positions].tolist()
    code_pages_l = code_pages.tolist()

    ras_push = ras.push
    ras_pop = ras.pop
    ras_corrupt = ras.corrupt
    shadow_push = shadow_stack.append
    shadow_pop = shadow_stack.pop
    indirect_predict = indirect.predict_and_update

    calls = returns = indirect_branches = indirect_mispredicts = 0
    branch_mispredicts = 0
    pending_indirect_corrupt = False
    wp_pos: list[int] = []
    wp_page: list[int] = []
    wp_line: list[int] = []

    for pos, cls, addr, target, wp_near in zip(
        pos_walk, cls_walk, addr_walk, target_walk, wp_near_walk
    ):
        if cls <= _CLS_RANDOM:
            mispredicted = True  # walk only visits mispredicted conditionals
        elif cls == _CLS_CALL:
            calls += 1
            ras_push(addr)
            shadow_push(addr)
            continue
        elif cls == _CLS_RETURN:
            returns += 1
            expected = shadow_pop() if shadow_stack else -1
            mispredicted = not ras_pop(expected)
            if not mispredicted:
                continue
        else:  # INDIRECT
            indirect_branches += 1
            correct = indirect_predict(addr, target)
            if pending_indirect_corrupt:
                correct = False
                pending_indirect_corrupt = False
            if correct:
                continue
            indirect_mispredicts += 1
            mispredicted = True

        branch_mispredicts += 1
        lcg = (lcg * _LCG_MULT + _LCG_ADD) & _LCG_MASK
        uniform = lcg / _LCG_MASK
        if uniform < far_fraction and n_code_pages > 1:
            lcg = (lcg * _LCG_MULT + _LCG_ADD) & _LCG_MASK
            page = code_pages_l[lcg % n_code_pages] + 1 + (lcg % 7)
        else:
            page = wp_near
        wp_pos.append(pos)
        wp_page.append(page)
        wp_line.append(page * lines_per_page + (lcg % 8))

        lcg = (lcg * _LCG_MULT + _LCG_ADD) & _LCG_MASK
        if lcg / _LCG_MASK < ras_corruption:
            ras_corrupt()
        lcg = (lcg * _LCG_MULT + _LCG_ADD) & _LCG_MASK
        if lcg / _LCG_MASK < indirect_corruption:
            pending_indirect_corrupt = True

    return (
        np.asarray(wp_pos, dtype=np.int64),
        np.asarray(wp_page, dtype=np.int64),
        np.asarray(wp_line, dtype=np.int64),
        calls,
        returns,
        indirect_branches,
        indirect_mispredicts,
        branch_mispredicts,
    )


def _build_merged_events(
    cols, lines_per_page,
    ipage_hit, iline_hit, dtlb_hit, mem_hit, mem_streamed, mem_wb,
    wp_pos, wp_page, wp_line, wp_probe_hit, wp_l1i_hit,
):
    """Assemble the ordered L2-facing event stream for the merged walk.

    Every event that can touch the L2, the L2 TLBs or the prefetcher — or
    that accumulates an order-sensitive float — becomes one row, keyed by
    (dynamic position, phase, intra-phase index, sub-step) so the walk
    visits them in exactly the scalar engine's order.
    """
    kinds, poss, phases, intras, subs, arg0s, arg1s = [], [], [], [], [], [], []

    def add(kind, pos, phase, intra, sub, arg0, arg1=None):
        n = len(pos)
        kinds.append(np.full(n, kind, np.int8))
        poss.append(pos.astype(np.int64))
        phases.append(np.full(n, phase, np.int8))
        intras.append(intra.astype(np.int64))
        subs.append(np.full(n, sub, np.int8))
        arg0s.append(arg0.astype(np.int64))
        arg1s.append(
            np.zeros(n, np.int64) if arg1 is None else arg1.astype(np.int64)
        )

    m = ~ipage_hit
    add(_EV_ITLB_MISS, cols.ipage_pos[m], _PH_IPAGE, cols.ipage_intra[m], 0,
        cols.ipage_page[m])
    m = ~iline_hit
    add(_EV_L1I_MISS, cols.iline_pos[m], _PH_ILINE, cols.iline_intra[m], 0,
        cols.iline_line[m])
    m = ~dtlb_hit
    add(_EV_DTLB_MISS, cols.mem_pos[m], _PH_DATA, cols.mem_intra[m], 0,
        cols.mem_page[m])
    m = mem_wb
    add(_EV_L1D_WB, cols.mem_pos[m], _PH_DATA, cols.mem_intra[m], 1,
        cols.mem_line[m])
    m = mem_streamed
    add(_EV_L1D_STREAM, cols.mem_pos[m], _PH_DATA, cols.mem_intra[m], 2,
        cols.mem_line[m])
    m = ~mem_hit & ~mem_streamed
    add(_EV_L1D_MISS, cols.mem_pos[m], _PH_DATA, cols.mem_intra[m], 2,
        cols.mem_line[m], cols.mem_write[m])
    m = ~wp_probe_hit
    zeros = np.zeros(int(np.count_nonzero(m)), np.int64)
    add(_EV_WP_TLB, wp_pos[m], _PH_WP, zeros, 0, wp_page[m])
    m = ~wp_l1i_hit
    zeros = np.zeros(int(np.count_nonzero(m)), np.int64)
    add(_EV_WP_L1I, wp_pos[m], _PH_WP, zeros, 1, wp_line[m])

    kind = np.concatenate(kinds)
    pos = np.concatenate(poss)
    phase = np.concatenate(phases)
    intra = np.concatenate(intras)
    sub = np.concatenate(subs)
    arg0 = np.concatenate(arg0s)
    arg1 = np.concatenate(arg1s)
    order = _merge_order(pos, phase, intra, sub)
    return kind[order], arg0[order], arg1[order]


def _replay_memo(memo, tag, inputs, compute):
    """Verified single-entry memo for a pure replay computation.

    ``inputs`` is a tuple of ndarrays (or plain comparable values, e.g. a
    frozen :class:`MachineConfig`) that fully determine ``compute()``'s
    result.  The cached result is only reused after an element-wise
    equality check of every input against the cached copy, so a stale or
    colliding entry can never alter results — it just recomputes.  Repeat
    replays of one trace (and sibling configurations whose hit streams are
    identical) skip the heavy LRU and walk work entirely.
    """
    if memo is None:
        return compute()
    entry = memo.get(tag)
    if entry is not None:
        cached, result = entry
        if len(cached) == len(inputs) and all(
            np.array_equal(a, b)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
            else a == b
            for a, b in zip(cached, inputs)
        ):
            return result
    result = compute()
    memo[tag] = (inputs, result)
    return result


def _warm_memo(memo, tag, seq, n_sets, assoc):
    """Memoised :func:`warm_content_rows` keyed on the trace's columnar memo.

    The compressed warm prefix is a pure function of the decoded trace and
    the structure geometry, so repeat replays (and sibling configs with the
    same geometry) reuse it instead of re-sorting the warm sequence.
    """
    key = ("warm", tag, n_sets, assoc)
    rows = memo.get(key)
    if rows is None:
        rows = warm_content_rows(seq, n_sets, assoc)
        memo[key] = rows
    return rows
