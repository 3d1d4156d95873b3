"""Branch predictor models, including the pre-fix gem5 predictor.

The hardware Cortex-A15 reference uses a tournament predictor (bimodal +
gshare + chooser) that reaches the ~96 % mean accuracy the paper measures on
real silicon.  The gem5 ``ex5_big`` model before the bug fix is represented
by :class:`BuggyTournamentPredictor`: identical structure, but the direction
logic inverts the final prediction for *backward* conditional branches.

That synthetic bug is a stand-in chosen to reproduce the phenomenology the
paper documents rather than the literal gem5 patch: loop back-edges — the
most predictable branches on hardware — become systematically anti-predicted,
so the workload with the *highest* hardware accuracy (99.9 %,
``par-basicmath-rad2deg``) becomes the one with the *lowest* model accuracy
(0.86 %), mean accuracy collapses from ~96 % to ~65 %, and mispredictions
inflate by 20x on average and by three orders of magnitude for the
pathological cluster (Fig. 6 and Section IV-E).
"""

from __future__ import annotations

import numpy as np


def _saturate_up(counter: int) -> int:
    return counter + 1 if counter < 3 else 3


def _saturate_down(counter: int) -> int:
    return counter - 1 if counter > 0 else 0


class BranchPredictor:
    """Base class: 2-bit-counter predictors over word-aligned PCs."""

    def predict(self, pc: int, backward: bool) -> bool:
        raise NotImplementedError

    def update(self, pc: int, taken: bool, backward: bool) -> None:
        raise NotImplementedError


class BimodalPredictor(BranchPredictor):
    """PC-indexed table of 2-bit saturating counters."""

    def __init__(self, table_bits: int = 12):
        if table_bits < 1:
            raise ValueError("table_bits must be >= 1")
        self._mask = (1 << table_bits) - 1
        self._table = bytearray([2]) * (1 << table_bits)

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def predict(self, pc: int, backward: bool) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool, backward: bool) -> None:
        index = self._index(pc)
        counter = self._table[index]
        self._table[index] = _saturate_up(counter) if taken else _saturate_down(counter)


class GsharePredictor(BranchPredictor):
    """Global-history predictor: table indexed by ``pc XOR history``."""

    def __init__(self, table_bits: int = 12, history_bits: int = 10):
        if table_bits < 1 or history_bits < 1:
            raise ValueError("table_bits and history_bits must be >= 1")
        self._mask = (1 << table_bits) - 1
        self._hist_mask = (1 << history_bits) - 1
        self._table = bytearray([2]) * (1 << table_bits)
        self.history = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & self._mask

    def predict(self, pc: int, backward: bool) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool, backward: bool) -> None:
        index = self._index(pc)
        counter = self._table[index]
        self._table[index] = _saturate_up(counter) if taken else _saturate_down(counter)
        self.history = ((self.history << 1) | int(taken)) & self._hist_mask


class TournamentPredictor(BranchPredictor):
    """Bimodal + gshare with a per-PC chooser, like the Cortex-A15."""

    def __init__(self, table_bits: int = 12, history_bits: int = 10):
        self.bimodal = BimodalPredictor(table_bits)
        self.gshare = GsharePredictor(table_bits, history_bits)
        self._choice_mask = (1 << table_bits) - 1
        self._choice = bytearray([2]) * (1 << table_bits)

    def _components(self, pc: int, backward: bool) -> tuple[bool, bool, int]:
        local = self.bimodal.predict(pc, backward)
        global_ = self.gshare.predict(pc, backward)
        choice_index = (pc >> 2) & self._choice_mask
        return local, global_, choice_index

    def predict(self, pc: int, backward: bool) -> bool:
        local, global_, choice_index = self._components(pc, backward)
        return global_ if self._choice[choice_index] >= 2 else local

    def update(self, pc: int, taken: bool, backward: bool) -> None:
        local, global_, choice_index = self._components(pc, backward)
        if local != global_:
            counter = self._choice[choice_index]
            if global_ == taken:
                self._choice[choice_index] = _saturate_up(counter)
            else:
                self._choice[choice_index] = _saturate_down(counter)
        self.bimodal.update(pc, taken, backward)
        self.gshare.update(pc, taken, backward)


class BuggyTournamentPredictor(TournamentPredictor):
    """The pre-fix gem5 ``ex5_big`` predictor.

    Structurally identical to :class:`TournamentPredictor`, but the direction
    logic inverts the muxed prediction for backward conditional branches
    while training proceeds on the un-inverted outcome.  A saturated
    always-taken loop back-edge is therefore predicted not-taken essentially
    forever — the anti-learning behaviour behind the paper's Cluster 16.
    """

    def predict(self, pc: int, backward: bool) -> bool:
        prediction = super().predict(pc, backward)
        if backward:
            return not prediction
        return prediction


class ReturnAddressStack:
    """A bounded return-address stack with explicit corruption support.

    Matched call/return traces predict perfectly; simulators model
    wrong-path pollution by calling :meth:`corrupt`, after which the next
    pop mispredicts (gem5's ``branchPred.RASInCorrect``).
    """

    def __init__(self, depth: int = 8):
        if depth < 1:
            raise ValueError("RAS depth must be >= 1")
        self.depth = depth
        self._stack: list[int] = []
        self.pushes = 0
        self.pops = 0
        self.incorrect = 0

    def push(self, address: int) -> None:
        self.pushes += 1
        self._stack.append(address)
        if len(self._stack) > self.depth:
            self._stack.pop(0)

    def corrupt(self) -> None:
        """Wrong-path pollution: poison the top-of-stack entry."""
        if self._stack:
            self._stack[-1] ^= 0x4

    def pop(self, expected: int) -> bool:
        """Pop and compare; returns True when the prediction was correct."""
        self.pops += 1
        predicted = self._stack.pop() if self._stack else -1
        correct = predicted == expected
        if not correct:
            self.incorrect += 1
        return correct


class IndirectPredictor:
    """Last-target indirect branch predictor (per-PC target cache)."""

    def __init__(self, table_bits: int = 8):
        self._mask = (1 << table_bits) - 1
        self._targets: dict[int, int] = {}
        self.lookups = 0
        self.hits = 0

    def predict_and_update(self, pc: int, target: int) -> bool:
        """One lookup+train step; returns True on a correct prediction."""
        self.lookups += 1
        index = (pc >> 2) & self._mask
        correct = self._targets.get(index) == target
        if correct:
            self.hits += 1
        self._targets[index] = target
        return correct

    @property
    def misses(self) -> int:
        return self.lookups - self.hits


# --------------------------------------------------------------------------
# Vectorized batch prediction (columnar replay engine)
# --------------------------------------------------------------------------
#
# A 2-bit saturating counter updates as x -> min(3, max(0, x +- 1)): a
# *clamp-affine* map min(hi, max(lo, x + a)).  Such maps are closed under
# composition —
#
#     g(f(x)) = min(hi_g, max(lo_g, min(hi_f, max(lo_f, x + a_f)) + a_g))
#             = min(min(hi_g, max(lo_g, hi_f + a_g)),
#                   max(max(lo_g, lo_f + a_g), x + a_f + a_g))
#
# — and composition is associative, so the per-table-entry sequential
# counter evolution collapses to a segmented prefix scan: sort the update
# events by (table index, time), and Hillis-Steele-scan the maps within
# each segment.  The counter state *before* event i is the exclusive
# prefix composition applied to the initial value 2.  log2(n) vector
# passes replace n Python-level bytearray updates.

_CLAMP_BIG = 1 << 20


def _segmented_clamp_scan(
    seg_id: np.ndarray,
    add: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    init: int,
) -> np.ndarray:
    """State before each event of a segmented clamped-counter evolution.

    Events must be grouped by segment (sorted so equal ``seg_id`` values
    are contiguous and in time order).  Each event applies
    ``x -> min(hi, max(lo, x + add))``; returns the pre-update state per
    event starting from ``init`` at each segment head.
    """
    n = len(seg_id)
    if n == 0:
        return np.empty(0, dtype=np.int32)
    a = add.astype(np.int32).copy()
    l = lo.astype(np.int32).copy()
    h = hi.astype(np.int32).copy()
    d = 1
    while d < n:
        prev_a = a[:-d]
        prev_l = l[:-d]
        prev_h = h[:-d]
        ok = seg_id[d:] == seg_id[:-d]
        new_a = np.where(ok, prev_a + a[d:], a[d:])
        new_l = np.where(ok, np.minimum(h[d:], np.maximum(l[d:], prev_l + a[d:])), l[d:])
        new_h = np.where(ok, np.minimum(h[d:], np.maximum(l[d:], prev_h + a[d:])), h[d:])
        a[d:] = new_a
        l[d:] = new_l
        h[d:] = new_h
        d *= 2
    state = np.full(n, init, dtype=np.int32)
    same_seg = seg_id[1:] == seg_id[:-1]
    inner = np.minimum(h[:-1], np.maximum(l[:-1], init + a[:-1]))
    state[1:] = np.where(same_seg, inner, init)
    return state


def _counter_states_before(
    index: np.ndarray, step: np.ndarray, update: np.ndarray | None = None
) -> np.ndarray:
    """Pre-update 2-bit counter states for a stream of table events.

    Args:
        index: Table entry touched by each event, in time order.
        step: +1 (increment) or -1 (decrement) per event.
        update: Optional mask; False rows read the entry without updating
            (identity map), as tournament chooser reads do when local and
            global agree.

    Returns:
        The counter value seen by each event before its own update,
        with every entry initialised to 2 (weakly taken).
    """
    n = len(index)
    if n == 0:
        return np.empty(0, dtype=np.int32)
    order = np.argsort(index, kind="stable")
    seg = index[order]
    add = step[order].astype(np.int32)
    lo = np.where(add > 0, -_CLAMP_BIG, 0).astype(np.int32)
    hi = np.where(add > 0, 3, _CLAMP_BIG).astype(np.int32)
    if update is not None:
        upd = update[order]
        add = np.where(upd, add, 0)
        lo = np.where(upd, lo, -_CLAMP_BIG)
        hi = np.where(upd, hi, _CLAMP_BIG)
    states_sorted = _segmented_clamp_scan(seg, add, lo, hi, init=2)
    states = np.empty(n, dtype=np.int32)
    states[order] = states_sorted
    return states


def _gshare_history(taken: np.ndarray, history_bits: int) -> np.ndarray:
    """Global history register value before each conditional branch.

    ``history`` shifts in one taken bit per conditional update, so the
    register before branch j packs the previous ``history_bits`` outcomes
    with the most recent in bit 0.
    """
    n = len(taken)
    hist = np.zeros(n, dtype=np.int64)
    bits = taken.astype(np.int64)
    for k in range(1, history_bits + 1):
        if k > n:
            break
        hist[k:] += bits[:-k] << (k - 1)
    return hist


def predict_conditional_batch(
    kind: str,
    table_bits: int,
    history_bits: int,
    pcs: np.ndarray,
    taken: np.ndarray,
    backward: np.ndarray,
) -> np.ndarray:
    """Vectorized predictions for a conditional-branch stream.

    Produces, for each branch in time order, exactly the prediction the
    corresponding scalar predictor from :func:`make_predictor` would make
    (each branch predicts, then trains on its outcome).  Used by the
    columnar replay engine; the scalar predictors remain the reference
    implementation.
    """
    n = len(pcs)
    if n == 0:
        return np.empty(0, dtype=bool)
    mask = (1 << table_bits) - 1
    pc_idx = (pcs >> 2) & mask
    taken_b = taken.astype(bool)
    step = np.where(taken_b, 1, -1).astype(np.int32)

    if kind == "bimodal":
        return _counter_states_before(pc_idx, step) >= 2
    if kind == "gshare":
        hist = _gshare_history(taken, history_bits)
        return _counter_states_before((pc_idx ^ hist) & mask, step) >= 2
    if kind not in ("tournament", "buggy_tournament"):
        raise ValueError(f"unknown predictor kind {kind!r}")

    local = _counter_states_before(pc_idx, step) >= 2
    hist = _gshare_history(taken, history_bits)
    global_ = _counter_states_before((pc_idx ^ hist) & mask, step) >= 2
    # Chooser: trained toward whichever component was right, only when they
    # disagree; read (identity map) by every conditional branch.
    choice_update = local != global_
    choice_step = np.where(global_ == taken_b, 1, -1).astype(np.int32)
    choice = _counter_states_before(pc_idx, choice_step, update=choice_update)
    prediction = np.where(choice >= 2, global_, local)
    if kind == "buggy_tournament":
        prediction = np.where(backward, ~prediction, prediction)
    return prediction.astype(bool)


def make_predictor(kind: str, table_bits: int = 12, history_bits: int = 10) -> BranchPredictor:
    """Factory for the predictor kinds used by machine configurations.

    Args:
        kind: ``"tournament"`` (hardware reference), ``"buggy_tournament"``
            (pre-fix gem5), ``"gshare"`` or ``"bimodal"``.
    """
    if kind == "tournament":
        return TournamentPredictor(table_bits, history_bits)
    if kind == "buggy_tournament":
        return BuggyTournamentPredictor(table_bits, history_bits)
    if kind == "gshare":
        return GsharePredictor(table_bits, history_bits)
    if kind == "bimodal":
        return BimodalPredictor(table_bits)
    raise ValueError(f"unknown predictor kind {kind!r}")
