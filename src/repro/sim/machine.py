"""Machine configurations for the reference hardware and the gem5 models.

The two *hardware* configurations encode the true ODROID-XU3 parameters (as
documented in the Cortex-A7/A15 TRMs the paper cites); the *gem5*
configurations encode the specification errors that Section IV identifies in
``ex5_LITTLE.py`` / ``ex5_big.py``:

==========================  =======================  =========================
Parameter                   Hardware (A15)           gem5 ``ex5_big``
==========================  =======================  =========================
Branch predictor            tournament (~96 %)       buggy tournament (~65 %)
L1 ITLB                     32 entries               64 entries
L2 TLB                      shared 512-entry 4-way,  split 1 KB 8-way walker
                            2-cycle                  caches, 4-cycle
DRAM latency                ~105 ns                  ~65 ns (too low)
L1D write streaming         yes                      no (inflates WBs 19x)
L2 prefetcher degree        1                        4 (over-aggressive)
Barrier / exclusive cost    expensive                too cheap
VFP event classification    correct                  counted as SIMD
==========================  =======================  =========================

and for the A7 pair additionally: gem5 L2 hit latency 21 cycles vs 8 on
hardware ("Cortex-A7 L2 cache latency was too high", Fig. 4) and DRAM again
too low.  ``gem5_ex5_big_fixed_bp`` is the post-bug-fix model of Section VII:
identical to ``ex5_big`` except for the repaired predictor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.uarch.tlb import TlbHierarchyConfig


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry and timing of one cache level.

    Attributes:
        size_kb: Capacity in KiB.
        assoc: Associativity.
        latency: Hit latency in core cycles (exposed on the miss path of the
            level above).
        line_bytes: Line size.
        write_streaming: Cortex-A15 streaming-store detection (no-allocate
            for long sequential store streams).
        prefetch_degree: Stride-prefetcher degree at this level (0 = off).
    """

    size_kb: int
    assoc: int
    latency: int
    line_bytes: int = 64
    write_streaming: bool = False
    prefetch_degree: int = 0

    @property
    def size_bytes(self) -> int:
        return self.size_kb * 1024

    @property
    def lines(self) -> int:
        """Capacity in lines (the ways of :func:`repro.uarch.cache.lru_geometry`)."""
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class MachineConfig:
    """Every micro-architectural parameter of one simulated machine.

    ``flavour`` distinguishes the reference hardware semantics from the gem5
    model semantics; a handful of *accounting* flags (not timing) depend on
    it, e.g. gem5 counting one L1I access per instruction where the hardware
    PMU counts one per fetched line (the paper's 2x L1I divergence).
    """

    name: str
    core: str                       # "A7" | "A15"
    flavour: str                    # "hardware" | "gem5"
    # Pipeline shape.
    issue_width: int
    out_of_order: bool
    mispredict_penalty: float
    mem_overlap: float              # fraction of L2-hit latency hidden (MLP)
    dram_overlap: float             # fraction of DRAM latency hidden
    inorder_efficiency: float = 1.0  # <1 adds in-order issue inefficiency
    # Branch prediction.
    predictor: str = "tournament"
    predictor_table_bits: int = 12
    predictor_history_bits: int = 10
    wrongpath_fetch: int = 8        # instructions fetched past a mispredict
    ras_corruption: float = 0.05    # P(RAS poisoned | mispredict)
    indirect_corruption: float = 0.10
    wrongpath_far_fraction: float = 0.10  # P(wrong-path target on a far page)
    # Memory hierarchy.
    l1i: CacheGeometry = CacheGeometry(32, 2, 4)
    l1d: CacheGeometry = CacheGeometry(32, 4, 4)
    l2: CacheGeometry = CacheGeometry(2048, 16, 21)
    tlb: TlbHierarchyConfig = TlbHierarchyConfig()
    dram_latency_ns: float = 100.0
    # Exposed per-operation stall cycles.
    mul_penalty: float = 0.0
    div_penalty: float = 6.0
    fp_penalty: float = 0.0
    simd_penalty: float = 0.0
    # Synchronisation and misc costs.
    barrier_cycles: float = 30.0
    ldrex_cycles: float = 3.0
    strex_cycles: float = 5.0
    unaligned_penalty: float = 1.0
    store_miss_exposure: float = 0.2
    load_use_exposure: float = 0.0  # exposed fraction of L1D hit latency
    # Accounting semantics.
    l1i_access_per_instruction: bool = False
    vfp_counted_as_simd: bool = False
    # Multithreading.
    sync_slowdown_per_thread: float = 0.04

    def describe(self) -> str:
        """One-line summary used in reports."""
        return (
            f"{self.name} ({self.core}, {self.flavour}): "
            f"{'OoO' if self.out_of_order else 'in-order'} width {self.issue_width}, "
            f"BP {self.predictor}, L1I TLB {self.tlb.itlb_entries}e, "
            f"L2 {self.l2.size_kb} KiB @{self.l2.latency}cy, "
            f"DRAM {self.dram_latency_ns:.0f} ns"
        )


def hardware_a15() -> MachineConfig:
    """The real Cortex-A15 cluster of the ODROID-XU3 (reference truth)."""
    return MachineConfig(
        name="hw-a15",
        core="A15",
        flavour="hardware",
        issue_width=3,
        out_of_order=True,
        mispredict_penalty=15.0,
        mem_overlap=0.60,
        dram_overlap=0.35,
        predictor="tournament",
        wrongpath_fetch=8,
        ras_corruption=0.05,
        indirect_corruption=0.10,
        wrongpath_far_fraction=0.10,
        l1i=CacheGeometry(32, 2, 4),
        l1d=CacheGeometry(32, 4, 4, write_streaming=True),
        l2=CacheGeometry(2048, 16, 21, prefetch_degree=1),
        tlb=TlbHierarchyConfig(
            itlb_entries=32,
            dtlb_entries=32,
            unified_l2=True,
            l2_entries=512,
            l2_assoc=4,
            l2_latency=2,
            walk_cycles=28,
        ),
        dram_latency_ns=105.0,
        div_penalty=6.0,
        barrier_cycles=55.0,
        ldrex_cycles=10.0,
        strex_cycles=16.0,
        unaligned_penalty=1.0,
        store_miss_exposure=0.2,
        sync_slowdown_per_thread=0.04,
    )


def gem5_ex5_big() -> MachineConfig:
    """The pre-fix ``ex5_big.py`` gem5 model, with its specification errors."""
    hw = hardware_a15()
    return replace(
        hw,
        name="gem5-ex5-big",
        flavour="gem5",
        # The o3 model squashes deeper than the hardware recovers: fetch
        # redirect plus re-fill costs more cycles than the A15's checkpointed
        # recovery, independent of the direction-logic bug.
        mispredict_penalty=21.0,
        predictor="buggy_tournament",
        wrongpath_fetch=12,
        ras_corruption=0.40,
        indirect_corruption=0.50,
        wrongpath_far_fraction=0.15,
        l1d=CacheGeometry(32, 4, 4, write_streaming=False),
        l2=CacheGeometry(2048, 16, 21, prefetch_degree=4),
        tlb=TlbHierarchyConfig(
            itlb_entries=64,
            dtlb_entries=64,
            unified_l2=False,
            l2_entries=128,   # 1 KiB walker cache of 8 B descriptors
            l2_assoc=8,
            l2_latency=4,
            walk_cycles=32,
        ),
        dram_latency_ns=65.0,
        barrier_cycles=12.0,
        ldrex_cycles=1.0,
        strex_cycles=1.0,
        unaligned_penalty=0.0,
        l1i_access_per_instruction=True,
        vfp_counted_as_simd=True,
        sync_slowdown_per_thread=0.015,
    )


def gem5_ex5_big_fixed_bp() -> MachineConfig:
    """``ex5_big.py`` after the branch-predictor bug fix (Section VII)."""
    return replace(
        gem5_ex5_big(),
        name="gem5-ex5-big-fixed",
        predictor="tournament",
        ras_corruption=0.10,
        indirect_corruption=0.15,
    )


def hardware_a7() -> MachineConfig:
    """The real Cortex-A7 cluster (in-order, energy-optimised)."""
    return MachineConfig(
        name="hw-a7",
        core="A7",
        flavour="hardware",
        issue_width=2,
        out_of_order=False,
        inorder_efficiency=0.85,
        mispredict_penalty=8.0,
        mem_overlap=0.10,
        dram_overlap=0.10,
        predictor="tournament",
        predictor_table_bits=10,
        predictor_history_bits=8,
        wrongpath_fetch=4,
        ras_corruption=0.05,
        indirect_corruption=0.10,
        wrongpath_far_fraction=0.08,
        l1i=CacheGeometry(32, 2, 2),
        l1d=CacheGeometry(32, 4, 3),
        l2=CacheGeometry(512, 8, 8, prefetch_degree=1),
        tlb=TlbHierarchyConfig(
            itlb_entries=10,
            dtlb_entries=10,
            unified_l2=True,
            l2_entries=256,
            l2_assoc=2,
            l2_latency=2,
            walk_cycles=35,
        ),
        dram_latency_ns=120.0,
        mul_penalty=0.5,
        div_penalty=20.0,
        fp_penalty=1.2,
        simd_penalty=0.8,
        barrier_cycles=18.0,
        ldrex_cycles=2.0,
        strex_cycles=3.0,
        unaligned_penalty=1.0,
        store_miss_exposure=0.5,
        load_use_exposure=0.35,
        sync_slowdown_per_thread=0.05,
    )


def gem5_ex5_little() -> MachineConfig:
    """The ``ex5_LITTLE.py`` gem5 model: accurate BP, but DRAM latency too
    low and L2 hit latency too high (the paper's Fig. 4 findings)."""
    hw = hardware_a7()
    return replace(
        hw,
        name="gem5-ex5-little",
        flavour="gem5",
        l2=CacheGeometry(512, 8, 18, prefetch_degree=2),
        tlb=TlbHierarchyConfig(
            itlb_entries=64,
            dtlb_entries=64,
            unified_l2=False,
            l2_entries=128,
            l2_assoc=8,
            l2_latency=2,
            walk_cycles=35,
        ),
        dram_latency_ns=62.0,
        barrier_cycles=8.0,
        ldrex_cycles=1.0,
        strex_cycles=1.0,
        unaligned_penalty=0.0,
        l1i_access_per_instruction=True,
        vfp_counted_as_simd=True,
        sync_slowdown_per_thread=0.02,
    )


_FACTORIES = {
    "hw-a15": hardware_a15,
    "hw-a7": hardware_a7,
    "gem5-ex5-big": gem5_ex5_big,
    "gem5-ex5-big-fixed": gem5_ex5_big_fixed_bp,
    "gem5-ex5-little": gem5_ex5_little,
}


def machine_by_name(name: str) -> MachineConfig:
    """Instantiate a machine configuration by its canonical name.

    Raises:
        KeyError: For unknown names; known names are the keys of the
            internal factory table (``hw-a15``, ``gem5-ex5-big``, ...).
    """
    return _FACTORIES[name]()
