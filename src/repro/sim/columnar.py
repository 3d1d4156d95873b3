"""Columnar replay engine: vectorized trace replay, bit-identical results.

The scalar engine in :mod:`repro.sim.cpu` dispatches one Python iteration
per dynamic block.  This module replays the same trace as a handful of
whole-trace passes instead:

1. **Branch pass** — every conditional branch runs through the
   predictor in one loop of the C kernel in :mod:`repro.sim.kernel`
   (``branch_pass``: the bimodal, gshare and chooser tables and the
   global history).  The conditional predictor is a closed subsystem —
   its state is touched by conditional branches only — so it runs before
   anything else.
2. **Control pass** — the kernel's ``control_pass`` walks the blocks
   that share speculative state (calls, returns, indirect branches, plus
   the mispredicted conditionals): the RAS, the shadow stack, the
   indirect predictor, and the LCG that picks the wrong-path targets.
   It emits each misprediction's wrong-path fetch in program order.
3. **L1 passes** — the L1I, L1D, ITLB and DTLB access streams are fully
   known once the control pass has fixed the wrong-path fetches (each
   one is inserted after its block's own fetches), so each structure is
   replayed on its own, op by op from empty after its compressed warm
   rows, by the kernel's ``lru_replay``: exact LRU with the ITLB's
   non-mutating wrong-path probes, the L1D's dirty write-backs and the
   A15's streaming-store detector, one outcome byte per op.
4. **Event merge** — the kernel's ``merge_events`` walks the
   instruction-page, instruction-line, memory-op and wrong-path streams,
   each already in program order, with one cursor each, reads their L1
   outcome bytes and emits the events that reach the L2 side in the
   scalar engine's order; their counts are the L1 and TLB miss counters.
5. **Merged L2 walk** — only the events that reach the shared L2 /
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

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.cpu import _LCG_MASK, _data_warm_arrays, _finalise
# Every pass but the decode runs in the C kernel, built and loaded on the
# first call.
from repro.sim.kernel import N_EVENT_COUNTS, OP_MUTATE, OP_WRITE
from repro.sim.kernel import branch_pass as _branch_pass
from repro.sim.kernel import control_pass as _control_pass
from repro.sim.kernel import l2_walk as _l2_walk
from repro.sim.kernel import lru_replay as _lru_replay
from repro.sim.kernel import merge_events as _merge_events
from repro.sim.machine import MachineConfig
from repro.uarch.cache import CacheStats, lru_geometry, warm_content_rows
from repro.uarch.tlb import TlbStats
from repro.workloads.trace import SyntheticTrace

# Merged-walk event kinds, ordered roughly by expected frequency.
_EV_L1D_MISS = 0
_EV_DTLB_MISS = 1
_EV_L1D_WB = 2
_EV_L1I_MISS = 3
_EV_L1D_STREAM = 4
_EV_WP_TLB = 5
_EV_WP_L1I = 6
_EV_ITLB_MISS = 7


def _repeated_sum(value: float, n: int) -> float:
    """``n`` sequential float additions of ``value`` onto 0.0.

    Matches the scalar engine's accumulation rounding exactly.  When
    ``value`` is a whole number and ``n * value`` stays below 2**53, every
    partial sum is exact, so the sum is ``n * value`` (the stock machine
    configurations' penalties); any other value is added ``n`` times.
    """
    if float(value).is_integer() and abs(value) * n < 2**53:
        return 0.0 + n * value
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
    No scalar model is driven here: the predictors, the RAS, every cache
    and every TLB are replayed by the kernel.
    """
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
        cond_miss = _branch_pass(
            cols.cond_pc,
            cols.cond_taken,
            cols.cond_backward,
            machine.predictor,
            machine.predictor_table_bits,
            machine.predictor_history_bits,
        )

    # ---------------------------------------------------------- control pass
    with tracer.span("replay/control_pass", kind="replay"):
        lcg = (trace.seed ^ (zlib.crc32(machine.name.encode()) & _LCG_MASK)) or 1
        wrong_path, control = _control_pass(cols, cond_miss, code_pages, lcg, machine)
    wp_pos, wp_page, wp_line = wrong_path
    calls, returns, indirect_branches, indirect_mispredicts, ras_incorrect = control
    n_mispredicts = len(wp_pos)

    # ------------------------------------------------------------- L1 passes
    # The wrong path of a block comes after its instruction pages and
    # lines, and the control pass emits it in program order, so each
    # wrong-path fetch is inserted after the last fetch of its block.
    with tracer.span("replay/itlb_pass", kind="replay"):
        # ITLB stream: warm code pages, then translate_inst lookups (one per
        # deduplicated instruction-page event) interleaved with the
        # non-mutating wrong-path probes, in program order.
        itlb_warm = _warm_memo(memo, "itlb", code_pages, *itlb_geo)
        n_warm = len(itlb_warm)
        probes_at = n_warm + np.searchsorted(cols.ipage_pos, wp_pos, side="right")
        itlb_keys = np.insert(
            np.concatenate([itlb_warm, cols.ipage_page]), probes_at, wp_page
        )
        itlb_flags = np.insert(
            np.full(n_warm + len(cols.ipage_pos), OP_MUTATE, np.uint8), probes_at, 0
        )
        itlb_out = _replay_memo(
            memo,
            ("itlb_replay", *itlb_geo),
            (itlb_keys, itlb_flags),
            lambda: _lru_replay(itlb_keys, *itlb_geo, itlb_flags),
        )[n_warm:]

    with tracer.span("replay/l1i_pass", kind="replay"):
        # L1I stream: warm code lines, then fetch accesses (deduplicated
        # instruction-line events) interleaved with wrong-path fetches.
        l1i_warm = _warm_memo(memo, "l1i", code_lines, *l1i_geo)
        n_warm = len(l1i_warm)
        l1i_keys = np.insert(
            np.concatenate([l1i_warm, cols.iline_line]),
            n_warm + np.searchsorted(cols.iline_pos, wp_pos, side="right"),
            wp_line,
        )
        l1i_out = _replay_memo(
            memo,
            ("l1i_replay", *l1i_geo),
            (l1i_keys,),
            lambda: _lru_replay(l1i_keys, *l1i_geo),
        )[n_warm:]

    with tracer.span("replay/dtlb_pass", kind="replay"):
        dtlb_warm = _warm_memo(memo, ("dtlb", l2_bytes), data_pages, *dtlb_geo)
        n_warm = len(dtlb_warm)
        dtlb_keys = np.concatenate([dtlb_warm, cols.mem_page])
        dtlb_out = _replay_memo(
            memo,
            ("dtlb_replay", *dtlb_geo, l2_bytes),
            (dtlb_keys,),
            lambda: _lru_replay(dtlb_keys, *dtlb_geo),
        )[n_warm:]

    with tracer.span("replay/l1d_pass", kind="replay"):
        l1d_warm_c = _warm_memo(memo, ("l1d", l2_bytes), l1d_warm, *l1d_geo)
        n_warm = len(l1d_warm_c)
        l1d_keys = np.concatenate([l1d_warm_c, cols.mem_line])
        l1d_writes = np.concatenate([np.zeros(n_warm, bool), cols.mem_write])
        # The stream depends on the trace and on the L2 capacity that sized
        # the warm prefix.
        l1d_out = _replay_memo(
            memo,
            ("l1d_replay", *l1d_geo, l1d_streaming, l2_bytes),
            (l1d_keys, l1d_writes, n_warm),
            lambda: _lru_replay(
                l1d_keys, *l1d_geo,
                np.where(l1d_writes, OP_MUTATE | OP_WRITE, OP_MUTATE),
                l1d_streaming,
            ),
        )[n_warm:]

    # --------------------------------------------------------- merged events
    with tracer.span("replay/merge_events", kind="replay"):
        merged, counts = _merge_events(
            cols, wrong_path, (itlb_out, l1i_out, dtlb_out, l1d_out)
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
    # Every L1 and TLB miss is an event of the merged stream.
    n_ipage = len(cols.ipage_pos)
    n_iline = len(cols.iline_pos)
    n_mem = len(cols.mem_line)
    n_writes = int(np.count_nonzero(cols.mem_write))
    write_refills = counts[N_EVENT_COUNTS - 1]
    streaming_stores = counts[_EV_L1D_STREAM]
    l1d_stats = CacheStats(
        read_accesses=n_mem - n_writes,
        write_accesses=n_writes,
        read_misses=counts[_EV_L1D_MISS] - write_refills,
        write_misses=write_refills + streaming_stores,
        write_refills=write_refills,
        writebacks=counts[_EV_L1D_WB],
        streaming_stores=streaming_stores,
    )
    l1i_stats = CacheStats(
        read_accesses=n_iline + n_mispredicts,
        read_misses=counts[_EV_L1I_MISS] + counts[_EV_WP_L1I],
    )
    itlb_misses = counts[_EV_ITLB_MISS]
    itlb_stats = TlbStats(
        lookups=n_ipage, hits=n_ipage - itlb_misses, misses=itlb_misses
    )
    dtlb_misses = counts[_EV_DTLB_MISS]
    dtlb_stats = TlbStats(
        lookups=n_mem, hits=n_mem - dtlb_misses, misses=dtlb_misses
    )

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
        ras_incorrect=ras_incorrect,
        branch_mispredicts=n_mispredicts,
        cond_branches=len(cols.cond_pos),
        cond_mispredicts=int(np.count_nonzero(cond_miss)),
        returns=returns,
        calls=calls,
        indirect_branches=indirect_branches,
        indirect_mispredicts=indirect_mispredicts,
        wrongpath_instructions=machine.wrongpath_fetch * n_mispredicts,
        itlb_wrongpath_misses=counts[_EV_WP_TLB],
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
