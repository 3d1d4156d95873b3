"""Tests for trace compilation."""

import numpy as np
import pytest

from repro.workloads.profile import WorkloadProfile
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import (
    BranchClass,
    SyntheticTrace,
    compile_trace,
    recipe_digest,
    workload_seed,
)


@pytest.fixture(scope="module")
def trace():
    return compile_trace(workload_by_name("mi-qsort"), 12_000)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        profile = workload_by_name("mi-sha")
        a = compile_trace(profile, 8_000)
        b = compile_trace(profile, 8_000)
        assert np.array_equal(a.block_seq, b.block_seq)
        assert np.array_equal(a.taken_seq, b.taken_seq)
        assert np.array_equal(a.mem_addrs, b.mem_addrs)

    def test_different_seed_different_trace(self):
        profile = workload_by_name("mi-sha")
        a = compile_trace(profile, 8_000, seed=1)
        b = compile_trace(profile, 8_000, seed=2)
        assert not np.array_equal(a.mem_addrs, b.mem_addrs)

    def test_trace_stamped_with_recipe_digest(self):
        profile = workload_by_name("mi-sha")
        trace = compile_trace(profile, 8_000)
        assert trace.digest == recipe_digest(profile, 8_000)
        assert trace.digest == recipe_digest(
            profile, 8_000, workload_seed("mi-sha")
        )
        assert trace.digest != recipe_digest(profile, 8_000, seed=1)
        assert trace.digest != recipe_digest(profile, 9_000)

    def test_workload_seed_stable(self):
        assert workload_seed("mi-sha") == workload_seed("mi-sha")
        assert workload_seed("mi-sha") != workload_seed("mi-crc32")
        assert workload_seed("mi-sha", "power") != workload_seed("mi-sha", "trace")


class TestStructure:
    def test_length_near_target(self, trace):
        assert 12_000 <= trace.n_instrs <= 12_000 * 1.4

    def test_too_short_target_rejected(self):
        with pytest.raises(ValueError):
            compile_trace(workload_by_name("mi-sha"), 100)

    def test_totals_match_block_composition(self, trace):
        occurrences = trace.block_occurrences()
        recomputed = {}
        for block in trace.blocks:
            for kind_index, count in enumerate(block.kind_counts):
                from repro.workloads.trace import KIND_NAMES
                name = KIND_NAMES[kind_index]
                recomputed[name] = recomputed.get(name, 0) + count * int(
                    occurrences[block.index]
                )
        assert recomputed == trace.totals

    def test_every_block_ends_in_one_branch(self, trace):
        for block in trace.blocks:
            assert block.kind_counts[-1] == 1

    def test_branch_count_equals_dynamic_blocks(self, trace):
        assert trace.totals["branch"] == len(trace.block_seq)

    def test_mem_addrs_cover_all_dynamic_mem_ops(self, trace):
        expected = sum(
            trace.blocks[b].n_mem for b in trace.block_seq.tolist()
        )
        assert len(trace.mem_addrs) == expected

    def test_indirect_targets_only_for_indirect_blocks(self, trace):
        for seq_index, block_id in enumerate(trace.block_seq.tolist()):
            block = trace.blocks[block_id]
            target = trace.indirect_target_seq[seq_index]
            if block.branch_class == BranchClass.INDIRECT:
                assert 0 <= target < len(block.indirect_targets)
            else:
                assert target == -1

    def test_block_addresses_within_code_footprint(self, trace):
        from repro.workloads.trace import CODE_BASE
        code_bytes = trace.profile.code_kb * 1024
        for block in trace.blocks:
            assert CODE_BASE <= block.addr < CODE_BASE + code_bytes + 4096


class TestMixFidelity:
    @pytest.mark.parametrize("name", ["mi-qsort", "parsec-canneal-4", "mi-sha"])
    def test_realised_mix_close_to_profile(self, name):
        profile = workload_by_name(name)
        trace = compile_trace(profile, 40_000)
        n = trace.n_instrs
        for kind, target in profile.iter_mix():
            if target < 0.05:
                continue  # rare kinds are granular on purpose
            realised = trace.totals[kind] / n
            assert realised == pytest.approx(target, rel=0.35), (kind, realised)

    def test_loop_fraction_close_to_target(self):
        profile = workload_by_name("mi-sha")
        trace = compile_trace(profile, 40_000)
        counts = trace.branch_class_counts
        conditional = sum(
            counts[c]
            for c in (BranchClass.LOOP, BranchClass.PATTERN,
                      BranchClass.BIASED, BranchClass.RANDOM)
        )
        realised = counts[BranchClass.LOOP] / conditional
        assert realised == pytest.approx(profile.loop_branch_frac, abs=0.15)

    def test_backward_fraction_tracks_profile(self):
        profile = workload_by_name("par-basicmath-rad2deg")
        trace = compile_trace(profile, 20_000)
        loops = [b for b in trace.blocks if b.branch_class == BranchClass.LOOP]
        backward = sum(1 for b in loops if b.branch_backward)
        assert backward / len(loops) >= 0.8

    def test_threads_recorded(self):
        trace = compile_trace(workload_by_name("parsec-canneal-4"), 8_000)
        assert trace.profile.threads == 4


class TestLoopBehaviour:
    def test_loop_outcomes_mostly_taken_for_long_trips(self):
        profile = workload_by_name("mi-crc32")  # trip mean 120
        trace = compile_trace(profile, 20_000)
        loop_taken = 0
        loop_total = 0
        for seq_index, block_id in enumerate(trace.block_seq.tolist()):
            if trace.blocks[block_id].branch_class == BranchClass.LOOP:
                loop_total += 1
                loop_taken += int(trace.taken_seq[seq_index])
        assert loop_taken / loop_total > 0.9

    def test_calls_and_returns_balanced(self, trace):
        counts = trace.branch_class_counts
        calls = counts[BranchClass.CALL]
        returns = counts[BranchClass.RETURN]
        assert calls == returns
