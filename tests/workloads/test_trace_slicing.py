"""Tests for trace windowing (run-time power analysis support)."""

import numpy as np
import pytest

from repro.workloads.suites import workload_by_name
from repro.workloads.trace import compile_trace, slice_trace


@pytest.fixture(scope="module")
def trace():
    return compile_trace(workload_by_name("mi-qsort"), 8_000)


class TestSliceTrace:
    def test_slice_digest_follows_parent_and_bounds(self, trace):
        window = slice_trace(trace, 0, 10)
        assert window.digest == slice_trace(trace, 0, 10).digest
        assert window.digest not in ("", trace.digest)
        assert window.digest != slice_trace(trace, 0, 11).digest
        other = compile_trace(workload_by_name("mi-sha"), 8_000)
        assert window.digest != slice_trace(other, 0, 10).digest

    def test_full_slice_preserves_totals(self, trace):
        window = slice_trace(trace, 0, len(trace.block_seq))
        assert window.totals == trace.totals
        assert window.n_instrs == trace.n_instrs
        assert np.array_equal(window.mem_addrs, trace.mem_addrs)

    def test_windows_partition_instructions(self, trace):
        n = len(trace.block_seq)
        mid = n // 2
        first = slice_trace(trace, 0, mid)
        second = slice_trace(trace, mid, n)
        assert first.n_instrs + second.n_instrs == trace.n_instrs
        for kind in trace.totals:
            assert first.totals[kind] + second.totals[kind] == trace.totals[kind]

    def test_windows_partition_mem_ops(self, trace):
        n = len(trace.block_seq)
        thirds = [slice_trace(trace, round(i * n / 3), round((i + 1) * n / 3))
                  for i in range(3)]
        assert sum(w.n_mem_ops for w in thirds) == trace.n_mem_ops

    def test_mem_addresses_are_the_right_segment(self, trace):
        mid = len(trace.block_seq) // 2
        second = slice_trace(trace, mid, len(trace.block_seq))
        assert np.array_equal(
            second.mem_addrs, trace.mem_addrs[-second.n_mem_ops:]
            if second.n_mem_ops else second.mem_addrs,
        )

    def test_shares_static_program(self, trace):
        window = slice_trace(trace, 0, 10)
        assert window.blocks is trace.blocks
        assert window.streams is trace.streams

    def test_name_records_window(self, trace):
        assert slice_trace(trace, 3, 9).name.endswith("[3:9]")

    def test_invalid_windows_rejected(self, trace):
        n = len(trace.block_seq)
        with pytest.raises(ValueError):
            slice_trace(trace, 5, 5)
        with pytest.raises(ValueError):
            slice_trace(trace, -1, 5)
        with pytest.raises(ValueError):
            slice_trace(trace, 0, n + 1)

    def test_sliced_trace_simulates(self, trace):
        from repro.sim.cpu import simulate
        from repro.sim.machine import hardware_a15

        window = slice_trace(trace, 0, len(trace.block_seq) // 4)
        result = simulate(window, hardware_a15())
        assert result.counts["instructions"] == window.n_instrs
        assert result.time_seconds(1e9) > 0
