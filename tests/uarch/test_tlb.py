"""Tests for the TLB models and the two hierarchy shapes."""

import pytest

from repro.uarch.tlb import Tlb, TlbHierarchy, TlbHierarchyConfig


class TestTlb:
    def test_first_lookup_misses_then_hits(self):
        tlb = Tlb("t", 8)
        assert not tlb.lookup(1)
        assert tlb.lookup(1)

    def test_capacity_eviction(self):
        tlb = Tlb("t", 2)
        tlb.lookup(1)
        tlb.lookup(2)
        tlb.lookup(3)  # evicts 1 (LRU)
        assert not tlb.contains(1)
        assert tlb.contains(2) and tlb.contains(3)

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            Tlb("t", 0)

    def test_set_associative_geometry(self):
        tlb = Tlb("t", 512, assoc=4)
        assert tlb.n_sets == 128

    def test_fully_associative_default(self):
        tlb = Tlb("t", 32)
        assert tlb.n_sets == 1

    def test_fill_does_not_count(self):
        tlb = Tlb("t", 8)
        tlb.fill(5)
        assert tlb.stats.lookups == 0
        assert tlb.lookup(5)

    def test_miss_rate(self):
        tlb = Tlb("t", 8)
        tlb.lookup(1)
        tlb.lookup(1)
        assert tlb.stats.miss_rate == 0.5


class TestHardwareShape:
    """Shared 512-entry L2 TLB, 32-entry L1s — the real Cortex-A15."""

    def make(self):
        return TlbHierarchy(TlbHierarchyConfig(
            itlb_entries=32, dtlb_entries=32, unified_l2=True,
            l2_entries=512, l2_assoc=4, l2_latency=2,
        ))

    def test_l2_shared_between_sides(self):
        hierarchy = self.make()
        assert hierarchy.l2_itlb is hierarchy.l2_dtlb

    def test_data_fill_serves_instruction_side(self):
        hierarchy = self.make()
        hierarchy.translate_data(7)          # fills shared L2
        result = hierarchy.translate_inst(7)  # L1I miss, L2 hit
        assert not result.l1_hit
        assert result.l2_hit
        assert not result.walked

    def test_l1_hit_skips_l2(self):
        hierarchy = self.make()
        hierarchy.translate_inst(3)
        result = hierarchy.translate_inst(3)
        assert result.l1_hit and not result.l2_accessed

    def test_cold_miss_walks(self):
        hierarchy = self.make()
        result = hierarchy.translate_inst(9)
        assert result.walked
        assert hierarchy.walks_inst == 1

    def test_probe_inst_non_mutating(self):
        hierarchy = self.make()
        hierarchy.translate_inst(3)
        lookups = hierarchy.itlb.stats.lookups
        assert hierarchy.probe_inst(3)
        assert not hierarchy.probe_inst(999)
        assert hierarchy.itlb.stats.lookups == lookups


class TestGem5Shape:
    """Split walker caches, 64-entry L1s — the ex5_big model."""

    def make(self):
        return TlbHierarchy(TlbHierarchyConfig(
            itlb_entries=64, dtlb_entries=64, unified_l2=False,
            l2_entries=128, l2_assoc=8, l2_latency=4,
        ))

    def test_l2_split(self):
        hierarchy = self.make()
        assert hierarchy.l2_itlb is not hierarchy.l2_dtlb

    def test_data_fill_does_not_serve_instruction_side(self):
        hierarchy = self.make()
        hierarchy.translate_data(7)
        result = hierarchy.translate_inst(7)
        assert not result.l2_hit
        assert result.walked


class TestCapacityContrast:
    def test_32_entry_itlb_thrashes_where_64_holds(self):
        """The paper's 0.06x ITLB-refill divergence: ~48 hot pages thrash a
        32-entry ITLB but (mostly) fit the 64-entry model ITLB."""
        hw = TlbHierarchy(TlbHierarchyConfig(itlb_entries=32))
        gem5 = TlbHierarchy(TlbHierarchyConfig(itlb_entries=64))
        pages = list(range(48))
        for _ in range(20):  # cyclic revisits, LRU worst case
            for page in pages:
                hw.translate_inst(page)
                gem5.translate_inst(page)
        hw_misses = hw.itlb.stats.misses
        gem5_misses = gem5.itlb.stats.misses
        assert gem5_misses < hw_misses / 10
