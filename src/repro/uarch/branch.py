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
