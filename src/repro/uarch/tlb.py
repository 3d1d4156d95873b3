"""TLB models: single level and the two hierarchy styles the paper contrasts.

Section IV-F of the paper pins down the specification mismatch: the hardware
Cortex-A15 has a 32-entry L1 ITLB backed by a *shared* 512-entry 4-way L2
TLB, whereas the gem5 model has a 64-entry L1 ITLB backed by two *split*
1 KB 8-way walker caches with a 4-cycle latency.  :class:`TlbHierarchy`
expresses both shapes through :class:`TlbHierarchyConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.uarch.cache import lru_geometry


@dataclass
class TlbStats:
    """Counters for one TLB level."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.lookups if self.lookups else 0.0


class Tlb:
    """A set-associative, LRU TLB over 4 KiB page identifiers."""

    def __init__(self, name: str, entries: int, assoc: int | None = None):
        if entries <= 0:
            raise ValueError("TLB must have at least one entry")
        self.name = name
        self.entries = entries
        self.n_sets, self.assoc = lru_geometry(entries, assoc)
        self.stats = TlbStats()
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]

    def lookup(self, page: int) -> bool:
        """Translate one page; fills on miss.  Returns hit/miss."""
        stats = self.stats
        stats.lookups += 1
        set_index = page % self.n_sets
        tag = page // self.n_sets
        ways = self._sets[set_index]
        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            stats.hits += 1
            return True
        stats.misses += 1
        ways.insert(0, tag)
        if len(ways) > self.assoc:
            ways.pop()
        return False

    def contains(self, page: int) -> bool:
        """Non-mutating presence check."""
        set_index = page % self.n_sets
        return page // self.n_sets in self._sets[set_index]

    def fill(self, page: int) -> None:
        """Insert a translation without counting (TLB pre-warming)."""
        set_index = page % self.n_sets
        tag = page // self.n_sets
        ways = self._sets[set_index]
        if tag in ways:
            ways.remove(tag)
        ways.insert(0, tag)
        if len(ways) > self.assoc:
            ways.pop()

    def fill_many(self, pages) -> None:
        """:meth:`fill` each page in turn (TLB pre-warming)."""
        fill = self.fill
        for page in np.asarray(pages, dtype=np.int64).tolist():
            fill(page)


@dataclass(frozen=True)
class TlbHierarchyConfig:
    """Shape of a two-level TLB hierarchy.

    Attributes:
        itlb_entries / itlb_assoc: L1 instruction TLB geometry.
        dtlb_entries / dtlb_assoc: L1 data TLB geometry.
        unified_l2: True for the hardware shape (one shared L2 TLB), False
            for the gem5 shape (split instruction/data walker caches).
        l2_entries / l2_assoc: Geometry of the L2 TLB (per side when split).
        l2_latency: Core cycles to access the L2 TLB / walker cache.
        walk_cycles: Core cycles for a full page-table walk on L2 miss.
    """

    itlb_entries: int = 32
    itlb_assoc: int | None = None
    dtlb_entries: int = 32
    dtlb_assoc: int | None = None
    unified_l2: bool = True
    l2_entries: int = 512
    l2_assoc: int = 4
    l2_latency: int = 2
    walk_cycles: int = 30


@dataclass(slots=True)
class TlbAccessResult:
    """Outcome of a translation through the hierarchy."""

    l1_hit: bool
    l2_accessed: bool
    l2_hit: bool
    walked: bool


class TlbHierarchy:
    """Two-level TLB hierarchy (L1 I/D TLBs plus unified or split L2)."""

    def __init__(self, config: TlbHierarchyConfig):
        self.config = config
        self.itlb = Tlb("itlb", config.itlb_entries, config.itlb_assoc)
        self.dtlb = Tlb("dtlb", config.dtlb_entries, config.dtlb_assoc)
        if config.unified_l2:
            shared = Tlb("l2tlb", config.l2_entries, config.l2_assoc)
            self.l2_itlb = shared
            self.l2_dtlb = shared
        else:
            self.l2_itlb = Tlb("itb_walker", config.l2_entries, config.l2_assoc)
            self.l2_dtlb = Tlb("dtb_walker", config.l2_entries, config.l2_assoc)
        self.walks_inst = 0
        self.walks_data = 0

    def translate_inst(self, page: int) -> TlbAccessResult:
        """Instruction-side translation."""
        if self.itlb.lookup(page):
            return TlbAccessResult(True, False, False, False)
        l2_hit = self.l2_itlb.lookup(page)
        if not l2_hit:
            self.walks_inst += 1
        return TlbAccessResult(False, True, l2_hit, not l2_hit)

    def translate_data(self, page: int) -> TlbAccessResult:
        """Data-side translation."""
        if self.dtlb.lookup(page):
            return TlbAccessResult(True, False, False, False)
        l2_hit = self.l2_dtlb.lookup(page)
        if not l2_hit:
            self.walks_data += 1
        return TlbAccessResult(False, True, l2_hit, not l2_hit)

    def probe_inst(self, page: int) -> bool:
        """Non-mutating L1 ITLB presence check (used for wrong-path fetch)."""
        return self.itlb.contains(page)
