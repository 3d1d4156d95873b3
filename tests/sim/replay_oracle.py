"""The columnar engine's former Python passes, kept as oracles of the kernel.

Until the control pass and the event merge moved into
:mod:`repro.sim.kernel`, :mod:`repro.sim.columnar` ran them in Python:
``_control_pass`` walked the RAS, the shadow stack, the indirect predictor
and the LCG over the control blocks, and ``_build_merged_events``
concatenated the L2-facing event streams and lexsorted them into program
order.  Both are kept here verbatim as :func:`_control_pass` and
:func:`_build_merged_events`; ``tests/sim/test_replay_kernels.py`` checks
the kernel's ``control_pass`` and ``merge_events`` against them.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.sim.columnar import (
    _EV_DTLB_MISS,
    _EV_ITLB_MISS,
    _EV_L1D_MISS,
    _EV_L1D_STREAM,
    _EV_L1D_WB,
    _EV_L1I_MISS,
    _EV_WP_L1I,
    _EV_WP_TLB,
)
from repro.sim.cpu import (
    _CLS_CALL,
    _CLS_RANDOM,
    _CLS_RETURN,
    _LCG_ADD,
    _LCG_MASK,
    _LCG_MULT,
)
from repro.workloads.trace import CACHE_LINE_BYTES, PAGE_BYTES

# Phase order of events inside one dynamic block, matching the scalar
# engine: instruction pages, instruction lines, data slots, wrong path.
_PH_IPAGE = 0
_PH_ILINE = 1
_PH_DATA = 2
_PH_WP = 3


def _merge_order(pos, phase, intra, sub):
    """Sort events into scalar program order: (pos, phase, intra, sub)."""
    return np.lexsort((sub, intra, phase, pos))


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
