"""Tests for the trace-driven CPU simulator."""

from dataclasses import replace

import pytest

from repro.sim.cpu import simulate
from repro.sim.machine import (
    gem5_ex5_big,
    gem5_ex5_big_fixed_bp,
    hardware_a7,
    hardware_a15,
)
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import compile_trace


class TestDeterminism:
    def test_same_inputs_same_result(self, qsort_trace):
        a = simulate(qsort_trace, hardware_a15())
        b = simulate(qsort_trace, hardware_a15())
        assert a.counts == b.counts
        assert a.core_cycles == b.core_cycles
        assert a.dram_stall_weight == b.dram_stall_weight


    def test_decode_memo_never_serves_another_recipe(self):
        """A profile edited under a catalog name compiles to a trace with
        the same name, seed and realised length; its replay must still use
        its own decode, not the catalog trace's, in the same process."""
        machine = hardware_a15()
        catalog = workload_by_name("mi-sha")
        first = compile_trace(catalog, 60_000)
        assert simulate(first, machine).core_cycles == pytest.approx(43_606.0)
        edited = compile_trace(replace(catalog, data_kb=catalog.data_kb * 8),
                               60_000)
        assert (edited.name, edited.seed, len(edited.block_seq)) == (
            first.name, first.seed, len(first.block_seq)
        )
        assert simulate(edited, machine).core_cycles == pytest.approx(
            59_759.15
        )


class TestCountConsistency:
    def test_instruction_totals_match_trace(self, qsort_trace, hw_a15_result):
        assert hw_a15_result.counts["instructions"] == qsort_trace.n_instrs

    def test_branches_match_trace(self, qsort_trace, hw_a15_result):
        assert hw_a15_result.counts["branches"] == qsort_trace.n_branches

    def test_mispredicts_bounded_by_branches(self, hw_a15_result):
        counts = hw_a15_result.counts
        assert 0 <= counts["branch_mispredicts"] <= counts["branches"]
        assert counts["cond_mispredicts"] <= counts["cond_branches"]

    def test_cache_hierarchy_sandwich(self, hw_a15_result):
        counts = hw_a15_result.counts
        l1d_misses = counts["l1d_rd_misses"] + counts["l1d_wr_misses"]
        l1d_accesses = counts["l1d_rd_accesses"] + counts["l1d_wr_accesses"]
        assert l1d_misses <= l1d_accesses
        l2_accesses = counts["l2_rd_accesses"] + counts["l2_wr_accesses"]
        l2_misses = counts["l2_rd_misses"] + counts["l2_wr_misses"]
        assert l2_misses <= l2_accesses

    def test_mem_ops_reach_l1d(self, qsort_trace, hw_a15_result):
        counts = hw_a15_result.counts
        expected = qsort_trace.n_mem_ops
        seen = counts["l1d_rd_accesses"] + counts["l1d_wr_accesses"]
        assert seen == pytest.approx(expected, rel=0.01)

    def test_tlb_lookups_match_mem_ops(self, qsort_trace, hw_a15_result):
        assert hw_a15_result.counts["dtlb_lookups"] == qsort_trace.n_mem_ops

    def test_spec_instructions_exceed_committed(self, gem5_a15_result):
        counts = gem5_a15_result.counts
        assert counts["spec_instructions"] >= counts["instructions"]

    def test_l2tlb_hits_plus_misses(self, hw_a15_result):
        counts = hw_a15_result.counts
        assert counts["l2tlb_i_hits"] + counts["l2tlb_i_misses"] == pytest.approx(
            counts["l2tlb_i_accesses"]
        )


class TestTiming:
    def test_time_decreases_with_frequency(self, hw_a15_result):
        assert hw_a15_result.time_seconds(1.8e9) < hw_a15_result.time_seconds(0.6e9)

    def test_speedup_is_sublinear(self, canneal_trace):
        """Memory-bound work scales worse than clock (fixed-ns DRAM)."""
        result = simulate(canneal_trace, hardware_a15())
        speedup = result.time_seconds(0.6e9) / result.time_seconds(1.8e9)
        assert 1.0 < speedup < 3.0

    def test_cpu_bound_scales_nearly_linearly(self):
        trace = compile_trace(workload_by_name("mi-sha"), 12_000)
        result = simulate(trace, hardware_a15())
        speedup = result.time_seconds(0.6e9) / result.time_seconds(1.8e9)
        assert speedup > 2.6

    def test_invalid_frequency(self, hw_a15_result):
        with pytest.raises(ValueError):
            hw_a15_result.time_seconds(0.0)

    def test_cycles_equal_time_times_frequency(self, hw_a15_result):
        freq = 1.4e9
        assert hw_a15_result.cycles(freq) == pytest.approx(
            hw_a15_result.time_seconds(freq) * freq
        )

    def test_components_sum_to_core_cycles(self, hw_a15_result):
        assert sum(hw_a15_result.components.values()) == pytest.approx(
            hw_a15_result.core_cycles
        )

    def test_sync_factor_single_thread(self, hw_a15_result):
        assert hw_a15_result.sync_factor == 1.0

    def test_sync_factor_multithreaded(self, canneal_trace):
        trace = compile_trace(workload_by_name("parsec-canneal-4"), 12_000)
        result = simulate(trace, hardware_a15())
        assert result.sync_factor > 1.0

    def test_cpi_positive(self, hw_a15_result):
        assert hw_a15_result.cpi(1e9) > 0.3


class TestHardwareVsGem5Divergence:
    """The headline behavioural differences must emerge from configs."""

    def test_buggy_bp_much_worse_on_loopy_workload(self, rad2deg_trace):
        hw = simulate(rad2deg_trace, hardware_a15())
        gem5 = simulate(rad2deg_trace, gem5_ex5_big())
        assert hw.branch_predictor_accuracy() > 0.97
        assert gem5.branch_predictor_accuracy() < 0.35

    def test_buggy_model_overestimates_time_on_loopy_workload(self, rad2deg_trace):
        hw = simulate(rad2deg_trace, hardware_a15())
        gem5 = simulate(rad2deg_trace, gem5_ex5_big())
        assert gem5.time_seconds(1e9) > 1.8 * hw.time_seconds(1e9)

    def test_fixed_bp_restores_accuracy(self, rad2deg_trace):
        fixed = simulate(rad2deg_trace, gem5_ex5_big_fixed_bp())
        assert fixed.branch_predictor_accuracy() > 0.9

    def test_gem5_fewer_right_path_itlb_misses(self):
        """64-entry model ITLB vs 32-entry hardware (Fig. 6's 0.06x)."""
        trace = compile_trace(workload_by_name("mi-typeset"), 12_000)
        hw = simulate(trace, hardware_a15())
        gem5 = simulate(trace, gem5_ex5_big())
        assert gem5.counts["itlb_misses"] < hw.counts["itlb_misses"]

    def test_gem5_more_walker_traffic_under_mispredicts(self, rad2deg_trace):
        hw = simulate(rad2deg_trace, hardware_a15())
        gem5 = simulate(rad2deg_trace, gem5_ex5_big())
        assert gem5.counts["itlb_wrongpath_misses"] > hw.counts["itlb_wrongpath_misses"]

    def test_gem5_more_writebacks_on_streaming_stores(self):
        """No write-streaming in the model (Fig. 6's 19x L1D_WB)."""
        trace = compile_trace(workload_by_name("lm-bw-mem-wr"), 12_000)
        hw = simulate(trace, hardware_a15())
        gem5 = simulate(trace, gem5_ex5_big())
        assert hw.counts["l1d_streaming_stores"] > 0
        assert gem5.counts["l1d_streaming_stores"] == 0
        assert gem5.counts["l1d_writebacks"] > 2 * max(hw.counts["l1d_writebacks"], 1)

    def test_gem5_more_prefetches(self, canneal_trace):
        hw = simulate(canneal_trace, hardware_a15())
        gem5 = simulate(canneal_trace, gem5_ex5_big())
        assert gem5.counts["l2_prefetches"] > hw.counts["l2_prefetches"]

    def test_a7_model_underestimates_memory_time(self, canneal_trace):
        """DRAM latency too low: the model runs memory-bound work faster."""
        hw = simulate(canneal_trace, hardware_a7())
        from repro.sim.machine import gem5_ex5_little
        gem5 = simulate(canneal_trace, gem5_ex5_little())
        assert gem5.time_seconds(1e9) < hw.time_seconds(1e9)


class TestEngineNames:
    def test_columnar_and_scalar_only(self, qsort_trace):
        from repro.core.pipeline import GemStoneConfig
        from repro.sim.cpu import ENGINES

        assert ENGINES == ("columnar", "scalar")
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(qsort_trace, hardware_a15(), engine="auto")
        with pytest.raises(ValueError, match="engine must be one of"):
            GemStoneConfig(engine="auto")
        assert GemStoneConfig().engine == "columnar"
