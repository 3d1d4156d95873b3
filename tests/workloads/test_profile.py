"""Tests for WorkloadProfile validation and derived properties."""

import pytest

from repro.workloads.profile import WorkloadProfile


def make(**kwargs):
    defaults = dict(name="wl", suite="test")
    defaults.update(kwargs)
    return WorkloadProfile(**defaults)


class TestValidation:
    def test_default_profile_valid(self):
        profile = make()
        assert profile.frac_int_alu > 0

    def test_mix_over_one_rejected(self):
        with pytest.raises(ValueError, match="instruction mix"):
            make(frac_load=0.6, frac_store=0.3, frac_branch=0.2)

    def test_branch_classes_must_sum_to_one(self):
        with pytest.raises(ValueError, match="branch classes"):
            make(loop_branch_frac=0.5, pattern_branch_frac=0.5,
                 biased_branch_frac=0.5, random_branch_frac=0.5)

    def test_locality_must_sum_to_one(self):
        with pytest.raises(ValueError, match="locality"):
            make(frac_seq=0.5, frac_stride=0.1, frac_rand=0.1)

    def test_negative_threads_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            make(threads=0)

    def test_tiny_loop_trip_rejected(self):
        with pytest.raises(ValueError, match="loop_trip_mean"):
            make(loop_trip_mean=1)

    def test_zero_ilp_rejected(self):
        with pytest.raises(ValueError, match="ilp"):
            make(ilp=0.0)

    def test_zero_footprint_rejected(self):
        with pytest.raises(ValueError, match="footprints"):
            make(code_kb=0)

    def test_bias_bounds(self):
        with pytest.raises(ValueError, match="branch_bias"):
            make(branch_bias=1.5)

    def test_backward_loop_frac_bounds(self):
        with pytest.raises(ValueError, match="backward_loop_frac"):
            make(backward_loop_frac=1.2)

    def test_excess_indirect_plus_return_rejected(self):
        with pytest.raises(ValueError, match="indirect"):
            make(indirect_frac=0.5, return_frac=0.4)

    def test_return_frac_below_a_third(self):
        with pytest.raises(ValueError, match="return_frac=0.34 must be below 1/3"):
            make(indirect_frac=0.0, return_frac=0.34)
        with pytest.raises(ValueError, match="below 1/3"):
            make(indirect_frac=0.0, return_frac=1.0 / 3.0)
        assert make(indirect_frac=0.0, return_frac=0.33).return_frac == 0.33


class TestDerived:
    def test_int_alu_is_remainder(self):
        profile = make(frac_load=0.2, frac_store=0.1, frac_branch=0.1,
                       frac_mul=0.0)
        assert profile.frac_int_alu == pytest.approx(0.6, abs=1e-9)

    def test_frac_mem_includes_exclusives(self):
        profile = make(frac_load=0.2, frac_store=0.1, frac_ldrex=0.01,
                       frac_strex=0.01)
        assert profile.frac_mem == pytest.approx(0.32)

    def test_code_pages(self):
        assert make(code_kb=4.0).code_pages == 1
        assert make(code_kb=128.0).code_pages == 32

    def test_backward_frac_explicit_override(self):
        assert make(backward_loop_frac=0.5).effective_backward_loop_frac == 0.5

    def test_backward_frac_grows_with_trip_count(self):
        short = make(loop_trip_mean=5).effective_backward_loop_frac
        long = make(loop_trip_mean=300).effective_backward_loop_frac
        assert long > short
        assert long <= 0.92

    def test_iter_mix_sums_to_one(self):
        profile = make(frac_load=0.2, frac_fp=0.1)
        assert sum(frac for _, frac in profile.iter_mix()) == pytest.approx(1.0)


class TestWithThreads:
    def test_renames_with_suffix(self):
        assert make(name="parsec-x-1").with_threads(4).name == "parsec-x-4"

    def test_adds_sync_operations(self):
        threaded = make().with_threads(4)
        assert threaded.frac_ldrex > 0
        assert threaded.frac_barrier > 0

    def test_same_thread_count_is_identity(self):
        profile = make()
        assert profile.with_threads(1) is profile

    def test_result_still_valid(self):
        # Must not blow the instruction-mix budget.
        threaded = make(frac_load=0.3, frac_store=0.2, frac_branch=0.2,
                        frac_fp=0.25).with_threads(4)
        assert threaded.instruction_mix_sum() <= 1.0
