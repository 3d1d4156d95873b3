"""Tests for the branch predictors, including the buggy gem5 predictor."""

import numpy as np
import pytest

from repro.uarch.branch import (
    BimodalPredictor,
    BuggyTournamentPredictor,
    GsharePredictor,
    IndirectPredictor,
    ReturnAddressStack,
    TournamentPredictor,
    make_predictor,
)


def accuracy(predictor, outcomes, pc=0x1000, backward=False):
    correct = 0
    for taken in outcomes:
        if predictor.predict(pc, backward) == taken:
            correct += 1
        predictor.update(pc, taken, backward)
    return correct / len(outcomes)


class TestBimodal:
    def test_learns_always_taken(self):
        predictor = BimodalPredictor()
        assert accuracy(predictor, [True] * 100) > 0.97

    def test_learns_always_not_taken(self):
        predictor = BimodalPredictor()
        assert accuracy(predictor, [False] * 100) > 0.95

    def test_cannot_learn_alternation(self):
        predictor = BimodalPredictor()
        outcomes = [bool(i % 2) for i in range(200)]
        assert accuracy(predictor, outcomes) < 0.7

    def test_invalid_table_bits(self):
        with pytest.raises(ValueError):
            BimodalPredictor(table_bits=0)


class TestGshare:
    def test_learns_periodic_pattern(self):
        predictor = GsharePredictor(history_bits=8)
        pattern = [True, True, False, True] * 100
        assert accuracy(predictor, pattern) > 0.9

    def test_history_updates(self):
        predictor = GsharePredictor()
        predictor.update(0x1000, True, False)
        assert predictor.history == 1
        predictor.update(0x1000, False, False)
        assert predictor.history == 2


class TestTournament:
    def test_beats_components_on_mixed_population(self):
        rng = np.random.default_rng(1)
        branches = []
        for pc in range(0x1000, 0x1040, 4):
            if pc % 8 == 0:
                outcomes = [True, False] * 100  # needs history
            else:
                outcomes = list(rng.random(200) < 0.9)  # biased
            branches.append((pc, outcomes))

        def run(predictor):
            correct = total = 0
            for step in range(200):
                for pc, outcomes in branches:
                    taken = outcomes[step]
                    if predictor.predict(pc, False) == taken:
                        correct += 1
                    predictor.update(pc, taken, False)
                    total += 1
            return correct / total

        tournament = run(TournamentPredictor())
        bimodal = run(BimodalPredictor())
        assert tournament > 0.80
        assert tournament > bimodal + 0.10

    def test_loop_branch_high_accuracy(self):
        """A trip-12 loop back-edge is ~92 % predictable by saturation."""
        predictor = TournamentPredictor()
        outcomes = ([True] * 11 + [False]) * 40
        assert accuracy(predictor, outcomes, backward=True) > 0.85


class TestBuggyTournament:
    def test_anti_predicts_backward_always_taken(self):
        """The paper's Cluster-16 signature: the most predictable hardware
        branch becomes near-0 % in the model."""
        predictor = BuggyTournamentPredictor()
        assert accuracy(predictor, [True] * 500, backward=True) < 0.05

    def test_forward_branches_unaffected(self):
        buggy = BuggyTournamentPredictor()
        good = TournamentPredictor()
        outcomes = ([True] * 9 + [False]) * 50
        assert accuracy(buggy, outcomes, backward=False) == pytest.approx(
            accuracy(good, outcomes, backward=False)
        )

    def test_factory_kinds(self):
        assert isinstance(make_predictor("tournament"), TournamentPredictor)
        assert isinstance(
            make_predictor("buggy_tournament"), BuggyTournamentPredictor
        )
        assert isinstance(make_predictor("gshare"), GsharePredictor)
        assert isinstance(make_predictor("bimodal"), BimodalPredictor)
        with pytest.raises(ValueError):
            make_predictor("perceptron")


class TestReturnAddressStack:
    def test_matched_push_pop_predicts(self):
        ras = ReturnAddressStack()
        ras.push(0x100)
        assert ras.pop(0x100)
        assert ras.incorrect == 0

    def test_corruption_breaks_next_pop(self):
        ras = ReturnAddressStack()
        ras.push(0x100)
        ras.corrupt()
        assert not ras.pop(0x100)
        assert ras.incorrect == 1

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(depth=2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.pop(3)
        assert ras.pop(2)
        assert not ras.pop(1)  # dropped by overflow

    def test_pop_empty_mispredicts(self):
        ras = ReturnAddressStack()
        assert not ras.pop(0x42)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            ReturnAddressStack(depth=0)

    def test_nested_calls(self):
        ras = ReturnAddressStack(depth=8)
        for addr in (1, 2, 3, 4):
            ras.push(addr)
        for addr in (4, 3, 2, 1):
            assert ras.pop(addr)


class TestIndirectPredictor:
    def test_stable_target_predicted(self):
        predictor = IndirectPredictor()
        predictor.predict_and_update(0x100, 5)  # cold miss
        assert predictor.predict_and_update(0x100, 5)

    def test_target_change_mispredicts_once(self):
        predictor = IndirectPredictor()
        predictor.predict_and_update(0x100, 5)
        assert not predictor.predict_and_update(0x100, 6)
        assert predictor.predict_and_update(0x100, 6)

    def test_misses_property(self):
        predictor = IndirectPredictor()
        predictor.predict_and_update(0x100, 1)
        predictor.predict_and_update(0x100, 1)
        assert predictor.misses == 1
        assert predictor.hits == 1
