"""The kernel's branch pass, control pass and event merge against oracles.

``branch_pass`` is checked branch by branch against the scalar predictors
of :func:`repro.uarch.branch.make_predictor`; ``control_pass`` and
``merge_events`` against the Python passes they replaced, kept verbatim in
``tests/sim/replay_oracle.py``.  Each entry point has a Hypothesis test
over random streams and a hand-built stream on which every path of its C
is taken, with the paths counted on the oracle side.
"""

from __future__ import annotations

import zlib
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import columnar as columnar_mod
from repro.sim import kernel as kernel_mod
from repro.sim.cpu import _LCG_MASK, _SHADOW_STACK_DEPTH
from repro.uarch.branch import (
    IndirectPredictor,
    ReturnAddressStack,
    TournamentPredictor,
    make_predictor,
)
from repro.workloads.trace import CACHE_LINE_BYTES, PAGE_BYTES, BranchClass

from tests.sim.replay_oracle import _build_merged_events, _control_pass

OUT_HIT = kernel_mod.OUT_HIT
OUT_STREAMED = kernel_mod.OUT_STREAMED
OUT_WROTE_BACK = kernel_mod.OUT_WROTE_BACK

_EV_KINDS = {
    name: getattr(columnar_mod, f"_EV_{name}")
    for name in ("L1D_MISS", "DTLB_MISS", "L1D_WB", "L1I_MISS", "L1D_STREAM",
                 "WP_TLB", "WP_L1I", "ITLB_MISS")
}


# ---------------------------------------------------------------- branch


def scalar_misses(kind, table_bits, history_bits, pc, taken, backward):
    """Per branch, whether the scalar predictor mispredicts it."""
    predictor = make_predictor(kind, table_bits, history_bits)
    misses = []
    for p, t, b in zip(pc.tolist(), taken.tolist(), backward.tolist()):
        misses.append(predictor.predict(p, b) != t)
        predictor.update(p, t, b)
    return misses


def tournament_paths(table_bits, history_bits, pc, taken, backward) -> set:
    """The paths a tournament predictor takes on a stream: counter steps
    that move and that saturate, chooser reads, moves up and down, and
    backward branches."""
    predictor = TournamentPredictor(table_bits, history_bits)
    paths = set()
    for p, t, b in zip(pc.tolist(), taken.tolist(), backward.tolist()):
        local, global_, index = predictor._components(p, b)
        counter = predictor.bimodal._table[predictor.bimodal._index(p)]
        if (t and counter == 3) or (not t and counter == 0):
            paths.add("saturated")
        else:
            paths.add("counted")
        if local == global_:
            paths.add("chooser read")
        else:
            paths.add("chooser up" if global_ == t else "chooser down")
        paths.add("backward" if b else "forward")
        predictor.update(p, t, b)
    return paths


def _branch_stream(seed, n, n_pcs, bias):
    rng = np.random.default_rng(seed)
    pc = 0x10000 + rng.integers(0, 4 * n_pcs, n)
    return pc, rng.random(n) < bias, rng.random(n) < 0.5


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(kernel_mod.PREDICTOR_KINDS),
    table_bits=st.integers(1, 10),
    history_bits=st.integers(1, 70),
    n=st.integers(0, 400),
    n_pcs=st.integers(1, 300),
    bias=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_branch_pass_matches_the_scalar_predictors(
    kind, table_bits, history_bits, n, n_pcs, bias, seed
):
    pc, taken, backward = _branch_stream(seed, n, n_pcs, bias)
    miss = kernel_mod.branch_pass(
        pc, taken.astype(np.int8), backward, kind, table_bits, history_bits
    )
    assert miss.dtype == np.bool_
    assert miss.tolist() == scalar_misses(
        kind, table_bits, history_bits, pc, taken, backward
    )


@pytest.mark.parametrize("history_bits", [3, 12, 64, 80])
@pytest.mark.parametrize("kind", kernel_mod.PREDICTOR_KINDS)
def test_every_branch_pass_path_is_taken(kind, history_bits):
    """Runs of one outcome saturate the counters, mixed PCs make the
    components disagree both ways, half the branches are backward, and
    the history is shorter, as long as and longer than 64 bits."""
    pc, taken, backward = _branch_stream(7, 600, 6, 0.7)
    pc = np.concatenate([pc, np.full(16, 0x2000)])
    taken = np.concatenate([taken, np.repeat([True, False], 8)])
    backward = np.concatenate([backward, np.zeros(16, bool)])
    assert tournament_paths(4, history_bits, pc, taken, backward) == {
        "saturated", "counted", "chooser read", "chooser up", "chooser down",
        "backward", "forward",
    }
    miss = kernel_mod.branch_pass(pc, taken, backward, kind, 4, history_bits)
    expected = scalar_misses(kind, 4, history_bits, pc, taken, backward)
    assert miss.tolist() == expected
    assert 0 < sum(expected) < len(expected)


def test_branch_pass_rejects_what_the_scalar_predictors_reject():
    args = ([0x1000], [1], [False])
    with pytest.raises(ValueError, match="unknown predictor kind"):
        kernel_mod.branch_pass(*args, "perceptron", 12, 10)
    with pytest.raises(ValueError, match="table_bits"):
        kernel_mod.branch_pass(*args, "bimodal", 0, 10)
    with pytest.raises(ValueError, match="history_bits"):
        kernel_mod.branch_pass(*args, "gshare", 12, 0)
    with pytest.raises(ValueError, match="one outcome"):
        kernel_mod.branch_pass([0x1000, 0x1004], [1], [False], "gshare", 12, 4)
    # The bimodal predictor has no history.
    assert kernel_mod.branch_pass(*args, "bimodal", 12, 0).tolist() == [False]


# --------------------------------------------------------------- control

_CALL, _RETURN, _INDIRECT = (
    int(BranchClass.CALL), int(BranchClass.RETURN), int(BranchClass.INDIRECT)
)


def _blocks(rows, wp_near=None):
    """A decode of ``(class, address, target)`` blocks."""
    cls, addr, target = (np.array(c) for c in zip(*rows)) if rows else ([], [], [])
    cols = SimpleNamespace(
        class_seq=np.asarray(cls, np.int8),
        addr_seq=np.asarray(addr, np.int64),
        target_seq=np.asarray(target, np.int16),
        wp_near_seq=(
            np.asarray(wp_near, np.int64) if wp_near is not None
            else 1000 + np.arange(len(rows), dtype=np.int64)
        ),
    )
    cols.cond_pos = np.flatnonzero(cols.class_seq <= int(BranchClass.RANDOM))
    return cols


def _machine(far, ras, indirect, name="m"):
    return SimpleNamespace(
        name=name, wrongpath_far_fraction=far, ras_corruption=ras,
        indirect_corruption=indirect,
    )


def _control_both(cols, cond_miss, code_pages, seed, machine):
    """(kernel, oracle) control passes, each as ``(wp, counters)``."""
    cond_miss = np.asarray(cond_miss, bool)
    code_pages = np.asarray(code_pages, np.int64)
    lcg = (seed ^ (zlib.crc32(machine.name.encode()) & _LCG_MASK)) or 1
    kernel = kernel_mod.control_pass(cols, cond_miss, code_pages, lcg, machine)
    ras = ReturnAddressStack()
    (*wp, calls, returns, indirect_branches, indirect_mispredicts,
     branch_mispredicts) = _control_pass(
        SimpleNamespace(seed=seed), machine, cols, code_pages, cond_miss, ras,
        deque(maxlen=_SHADOW_STACK_DEPTH), IndirectPredictor(),
    )
    assert branch_mispredicts == len(wp[0])
    oracle = (
        tuple(wp),
        (calls, returns, indirect_branches, indirect_mispredicts, ras.incorrect),
    )
    return kernel, oracle


def _assert_same_control(kernel, oracle):
    (k_wp, k_counters), (o_wp, o_counters) = kernel, oracle
    for k, o in zip(k_wp, o_wp):
        assert k.dtype == np.int64
        assert k.tolist() == o.tolist()
    assert k_counters == o_counters


@st.composite
def control_streams(draw):
    """Random blocks: conditionals, calls and returns in runs that nest,
    and indirect branches over few targets, on addresses that alias in
    the indirect predictor's 256 entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 300))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4)))
    kinds = rng.choice(4, n, p=weights / weights.sum())
    cls = np.where(kinds == 0, rng.integers(0, 4, n), kinds + 3)
    n_addr = draw(st.integers(1, 600))
    rows = list(zip(
        cls.tolist(),
        (0x10000 + 4 * rng.integers(0, n_addr, n)).tolist(),
        rng.integers(-3, 4, n).tolist(),
    ))
    cols = _blocks(rows, rng.integers(0, 60, n))
    cond_miss = rng.random(len(cols.cond_pos)) < draw(st.floats(0.0, 1.0))
    code_pages = rng.integers(0, 100, draw(st.integers(0, 5)))
    return cols, cond_miss, code_pages


@settings(max_examples=200, deadline=None)
@given(
    stream=control_streams(),
    seed=st.integers(-2**40, 2**40),
    far=st.floats(0.0, 1.0),
    ras=st.floats(0.0, 1.0),
    indirect=st.floats(0.0, 1.0),
    name=st.sampled_from(["hw-a15", "gem5-ex5-big", ""]),
)
def test_control_pass_matches_the_oracle(stream, seed, far, ras, indirect, name):
    cols, cond_miss, code_pages = stream
    _assert_same_control(*_control_both(
        cols, cond_miss, code_pages, seed, _machine(far, ras, indirect, name)
    ))


def test_every_control_pass_path_is_taken():
    """70 nested calls overflow the RAS (8) and the shadow stack (64), so
    their returns are right, then wrong, then right again on two empty
    stacks; an indirect branch misses cold, hits, misses on a new target
    and aliases another PC; conditionals hit and miss; wrong paths go near
    and far.  Then, with every corruption certain and one code page, each
    misprediction poisons the RAS (empty or not) and the next indirect
    prediction, and every wrong path goes near."""
    calls = [(_CALL, 0x1000 + 4 * k, 0) for k in range(70)]
    returns = [(_RETURN, 0x9000, 0)] * 72
    indirect = [(_INDIRECT, 0x4000, t) for t in (1, 1, 2, 2)]
    indirect += [(_INDIRECT, 0x4000 + 4 * 256, 2)]
    conditionals = [(cls, 0x5000, 0) for cls in (0, 1, 2, 3) * 10]
    cols = _blocks(calls + returns + indirect + conditionals)
    cond_miss = np.arange(40) % 3 == 0
    kernel, oracle = _control_both(cols, cond_miss, [3, 50, 90], 11,
                                   _machine(0.5, 0.0, 0.0))
    _assert_same_control(kernel, oracle)
    (wp_pos, wp_page, _), counters = kernel
    assert counters == (70, 72, 5, 2, 56)
    assert len(wp_pos) == 56 + 2 + 14
    near = wp_page >= 1000
    assert near.any() and not near.all()
    assert set(wp_page[near].tolist()) <= set(cols.wp_near_seq.tolist())

    cols = _blocks([(0, 0x5000, 0), (_CALL, 0x1000, 0), (0, 0x5000, 0),
                    (_RETURN, 0x9000, 0), (_INDIRECT, 0x4000, 1),
                    (_INDIRECT, 0x4000, 1), (_INDIRECT, 0x4000, 1)])
    kernel, oracle = _control_both(cols, [True, True], [3], 5,
                                   _machine(1.0, 1.0, 1.0))
    _assert_same_control(kernel, oracle)
    (wp_pos, wp_page, _), counters = kernel
    # The poisoned return and the cold indirect miss, then the forced ones.
    assert counters == (1, 1, 3, 3, 1)
    assert wp_page.tolist() == cols.wp_near_seq[wp_pos].tolist()


def test_control_pass_needs_one_outcome_per_conditional():
    cols = _blocks([(0, 0x5000, 0), (_CALL, 0x1000, 0), (3, 0x5000, 0)])
    machine = _machine(0.1, 0.1, 0.1)
    for cond_miss in ([True], [True, False, True]):
        with pytest.raises(ValueError, match="one branch outcome"):
            kernel_mod.control_pass(cols, np.array(cond_miss), [1], 1, machine)
    cols.addr_seq = cols.addr_seq[:2]
    with pytest.raises(ValueError, match="per block"):
        kernel_mod.control_pass(cols, np.array([True, True]), [1], 1, machine)


# ----------------------------------------------------------------- merge


def _intra(counts):
    """Each event's ordinal inside its block."""
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(int(np.sum(counts))) - starts


def _interleave_at(pos, wp_pos):
    """The indices of the wrong-path accesses in a fetch stream."""
    return np.searchsorted(pos, wp_pos, side="right") + np.arange(len(wp_pos))


def _fetch_stream(rng, counts, keys):
    pos = np.repeat(np.arange(len(counts)), counts).astype(np.int32)
    return pos, _intra(counts).astype(np.int32), rng.integers(*keys, len(pos))


def _merge_case(counts_ipage, counts_iline, counts_mem, wp_blocks, outcomes,
                rng):
    """A decode with the given accesses per block and outcome bytes."""
    ipage_pos, ipage_intra, ipage_page = _fetch_stream(rng, counts_ipage, (-5, 40))
    iline_pos, iline_intra, iline_line = _fetch_stream(rng, counts_iline, (-5, 400))
    mem_pos = np.repeat(np.arange(len(counts_mem)), counts_mem).astype(np.int32)
    n_mem = len(mem_pos)
    cols = SimpleNamespace(
        ipage_pos=ipage_pos, ipage_intra=ipage_intra, ipage_page=ipage_page,
        iline_pos=iline_pos, iline_intra=iline_intra, iline_line=iline_line,
        mem_pos=mem_pos, mem_intra=_intra(counts_mem).astype(np.int32),
        mem_page=rng.integers(-5, 40, n_mem),
        mem_line=rng.integers(-5, 400, n_mem),
        mem_write=rng.random(n_mem) < 0.5,
    )
    wp_pos = np.asarray(wp_blocks, np.int64)
    wrong_path = (wp_pos, rng.integers(0, 40, len(wp_pos)),
                  rng.integers(0, 400, len(wp_pos)))
    return cols, wrong_path, outcomes(len(ipage_pos) + len(wp_pos),
                                      len(iline_pos) + len(wp_pos), n_mem)


def _merge_both(cols, wrong_path, outcomes):
    """(kernel, oracle) merged streams; the oracle's from the outcome bits
    split back into its per-stream hit masks."""
    kernel = kernel_mod.merge_events(cols, wrong_path, outcomes)
    itlb, l1i, dtlb, l1d = (np.asarray(a, np.uint8) for a in outcomes)
    wp_pos = wrong_path[0]
    hits = []
    for out, pos in ((itlb, cols.ipage_pos), (l1i, cols.iline_pos)):
        at = _interleave_at(pos, wp_pos)
        fetch = np.ones(len(out), bool)
        fetch[at] = False
        hits.append(((out[fetch] & OUT_HIT) != 0, (out[at] & OUT_HIT) != 0))
    (ipage_hit, wp_probe_hit), (iline_hit, wp_l1i_hit) = hits
    oracle = _build_merged_events(
        cols, PAGE_BYTES // CACHE_LINE_BYTES,
        ipage_hit, iline_hit, (dtlb & OUT_HIT) != 0, (l1d & OUT_HIT) != 0,
        (l1d & OUT_STREAMED) != 0, (l1d & OUT_WROTE_BACK) != 0,
        *wrong_path, wp_probe_hit, wp_l1i_hit,
    )
    return kernel, oracle


def _assert_same_merge(kernel, oracle):
    merged, counts = kernel
    for k, o, dtype in zip(merged, oracle, (np.int8, np.int64, np.int64)):
        assert k.dtype == dtype
        assert k.tolist() == o.tolist()
    kind, _, arg1 = oracle
    writes = int(np.count_nonzero(arg1[kind == _EV_KINDS["L1D_MISS"]]))
    assert counts == [*np.bincount(kind, minlength=8).tolist(), writes]
    assert len(counts) == kernel_mod.N_EVENT_COUNTS


def _random_outcomes(rng, p_hit):
    """Outcome bytes: the ITLB's, L1I's and DTLB's hit with ``p_hit``, the
    L1D's any combination of bits."""
    def hits(n, misses=0):
        return np.where(rng.random(n) < p_hit, OUT_HIT, misses).astype(np.uint8)

    def outcomes(n_itlb, n_l1i, n_mem):
        return (hits(n_itlb), hits(n_l1i), hits(n_mem),
                hits(n_mem, rng.integers(0, 8, n_mem)))
    return outcomes


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_dyn=st.integers(0, 80),
    most=st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 5)),
    p_wp=st.floats(0.0, 1.0),
    p_hit=st.floats(0.0, 1.0),
)
def test_merge_events_matches_the_lexsort(seed, n_dyn, most, p_wp, p_hit):
    rng = np.random.default_rng(seed)
    counts = [rng.integers(0, m + 1, n_dyn) for m in most]
    wp_blocks = np.flatnonzero(rng.random(n_dyn) < p_wp)
    case = _merge_case(*counts, wp_blocks, _random_outcomes(rng, p_hit), rng)
    _assert_same_merge(*_merge_both(*case))


def test_every_merge_events_path_is_taken():
    """Every event kind and L1D outcome; blocks with memory operations
    only, with every stream, with a wrong path and nothing else, with
    nothing, and with fetches only; runs of quiet memory operations; and
    the fetch streams ending after the memory operations, then before."""
    rng = np.random.default_rng(3)
    # Blocks 0-9: memory operations only, then all streams; block 10 only
    # a wrong path, 11 nothing, 12-14 instruction fetches only.
    ipage = [0] * 5 + [2] * 5 + [0, 0, 1, 1, 1]
    iline = [0] * 5 + [3] * 5 + [0, 0, 2, 2, 2]
    mem = [4] * 10 + [0] * 5
    wp_blocks = [5, 7, 9, 10, 14]
    l1d_bytes = [OUT_HIT, 0, OUT_STREAMED, OUT_WROTE_BACK,
                 OUT_WROTE_BACK | OUT_STREAMED]

    def outcomes(n_itlb, n_l1i, n_mem):
        return (
            np.arange(n_itlb) % 3 != 0,
            (np.arange(n_l1i) % 4 != 1).astype(np.uint8),
            (np.arange(n_mem) % 5 != 2).astype(np.uint8),
            np.array([l1d_bytes[k % 5] if k % 7 else OUT_HIT
                      for k in range(n_mem)], np.uint8),
        )

    cols, wrong_path, outs = _merge_case(
        ipage, iline, mem, wp_blocks, outcomes, rng
    )
    kernel, oracle = _merge_both(cols, wrong_path, outs)
    _assert_same_merge(kernel, oracle)
    assert all(kernel[1]), kernel[1]
    # One more block of memory operations: they outlast the fetches.
    case = _merge_case(ipage + [0], iline + [0], mem + [3], wp_blocks,
                       outcomes, rng)
    _assert_same_merge(*_merge_both(*case))


def test_merge_events_rejects_streams_of_other_lengths():
    rng = np.random.default_rng(0)
    cols, wrong_path, outs = _merge_case(
        [1, 1], [1, 1], [2, 2], [1], _random_outcomes(rng, 0.5), rng
    )
    with pytest.raises(ValueError, match="disagree in length"):
        kernel_mod.merge_events(cols, wrong_path, (outs[0][:-1], *outs[1:]))
    with pytest.raises(ValueError, match="disagree in length"):
        kernel_mod.merge_events(cols, (wrong_path[0][:0], *wrong_path[1:]), outs)
