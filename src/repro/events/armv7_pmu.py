"""ARMv7 PMU event catalog for the Cortex-A7 and Cortex-A15.

The catalog covers the architectural events (``0x00``-``0x1D``) plus the
Cortex-A15 implementation-defined events (``0x40``-``0x7E``) referenced by the
paper: the 68 events captured in Experiment 1 and the events used by the power
models (Section V) and the error analysis (Section IV).

Event identifiers follow the ARM Architecture Reference Manual and the
Cortex-A15 TRM (r3p3), the same documents the paper cites as [23].  Each event
carries a *category* used by the reporting layer to group correlation-analysis
output the way Fig. 5 does (memory barriers, branches, cache refills, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class EventCategory(Enum):
    """Coarse grouping of PMU events, used when narrating analysis output."""

    INSTRUCTION = "instruction"
    CYCLES = "cycles"
    BRANCH = "branch"
    L1I = "l1i_cache"
    L1D = "l1d_cache"
    L2 = "l2_cache"
    ITLB = "itlb"
    DTLB = "dtlb"
    BUS = "bus"
    SYNC = "synchronisation"
    EXCEPTION = "exception"
    UNALIGNED = "unaligned"
    SPECULATION = "speculation"


@dataclass(frozen=True)
class PmuEvent:
    """A single PMU event definition.

    Attributes:
        number: The hardware event number (e.g. ``0x08``).
        mnemonic: The ARM event mnemonic (e.g. ``INST_RETIRED``).
        description: Human-readable description from the TRM.
        category: Coarse category for report grouping.
        cores: Which CPU cores implement the event.  The Cortex-A7 PMU
            implements only a subset of the Cortex-A15 event space.
        speculative: True when the event counts speculatively executed
            operations rather than architecturally retired ones.
    """

    number: int
    mnemonic: str
    description: str
    category: EventCategory
    cores: tuple[str, ...] = ("A7", "A15")
    speculative: bool = False

    @property
    def hex_id(self) -> str:
        """The conventional hexadecimal spelling, e.g. ``"0x08"``."""
        return f"0x{self.number:02X}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.hex_id} {self.mnemonic}"


def _ev(
    number: int,
    mnemonic: str,
    description: str,
    category: EventCategory,
    cores: tuple[str, ...] = ("A7", "A15"),
    speculative: bool = False,
) -> PmuEvent:
    return PmuEvent(number, mnemonic, description, category, cores, speculative)


_A15 = ("A15",)

#: The full event catalog, keyed by event number.
PMU_EVENTS: dict[int, PmuEvent] = {
    e.number: e
    for e in [
        _ev(0x00, "SW_INCR", "Software increment", EventCategory.INSTRUCTION),
        _ev(0x01, "L1I_CACHE_REFILL", "L1 instruction cache refill", EventCategory.L1I),
        _ev(0x02, "L1I_TLB_REFILL", "L1 instruction TLB refill", EventCategory.ITLB),
        _ev(0x03, "L1D_CACHE_REFILL", "L1 data cache refill", EventCategory.L1D),
        _ev(0x04, "L1D_CACHE", "L1 data cache access", EventCategory.L1D),
        _ev(0x05, "L1D_TLB_REFILL", "L1 data TLB refill", EventCategory.DTLB),
        _ev(0x06, "LD_RETIRED", "Load instruction architecturally executed", EventCategory.INSTRUCTION),
        _ev(0x07, "ST_RETIRED", "Store instruction architecturally executed", EventCategory.INSTRUCTION),
        _ev(0x08, "INST_RETIRED", "Instruction architecturally executed", EventCategory.INSTRUCTION),
        _ev(0x09, "EXC_TAKEN", "Exception taken", EventCategory.EXCEPTION),
        _ev(0x0A, "EXC_RETURN", "Exception return", EventCategory.EXCEPTION),
        _ev(0x0B, "CID_WRITE_RETIRED", "Context ID register write", EventCategory.EXCEPTION),
        _ev(0x0C, "PC_WRITE_RETIRED", "Software change of PC", EventCategory.BRANCH),
        _ev(0x0D, "BR_IMMED_RETIRED", "Immediate branch architecturally executed", EventCategory.BRANCH),
        _ev(0x0E, "BR_RETURN_RETIRED", "Procedure return architecturally executed", EventCategory.BRANCH),
        _ev(0x0F, "UNALIGNED_LDST_RETIRED", "Unaligned load or store", EventCategory.UNALIGNED),
        _ev(0x10, "BR_MIS_PRED", "Mispredicted or not predicted branch", EventCategory.BRANCH),
        _ev(0x11, "CPU_CYCLES", "CPU cycle", EventCategory.CYCLES),
        _ev(0x12, "BR_PRED", "Predictable branch speculatively executed", EventCategory.BRANCH),
        _ev(0x13, "MEM_ACCESS", "Data memory access", EventCategory.L1D),
        _ev(0x14, "L1I_CACHE", "L1 instruction cache access", EventCategory.L1I),
        _ev(0x15, "L1D_CACHE_WB", "L1 data cache write-back", EventCategory.L1D),
        _ev(0x16, "L2D_CACHE", "L2 data cache access", EventCategory.L2),
        _ev(0x17, "L2D_CACHE_REFILL", "L2 data cache refill", EventCategory.L2),
        _ev(0x18, "L2D_CACHE_WB", "L2 data cache write-back", EventCategory.L2),
        _ev(0x19, "BUS_ACCESS", "Bus access", EventCategory.BUS),
        _ev(0x1B, "INST_SPEC", "Instruction speculatively executed", EventCategory.SPECULATION, speculative=True),
        _ev(0x1C, "TTBR_WRITE_RETIRED", "TTBR write", EventCategory.EXCEPTION),
        _ev(0x1D, "BUS_CYCLES", "Bus cycle", EventCategory.BUS),
        # Cortex-A15 implementation-defined events.
        _ev(0x40, "L1D_CACHE_LD", "L1 data cache access, read", EventCategory.L1D, _A15),
        _ev(0x41, "L1D_CACHE_ST", "L1 data cache access, write", EventCategory.L1D, _A15),
        _ev(0x42, "L1D_CACHE_REFILL_LD", "L1 data cache refill, read", EventCategory.L1D, _A15),
        _ev(0x43, "L1D_CACHE_REFILL_WR", "L1 data cache refill, write", EventCategory.L1D, _A15),
        _ev(0x4C, "L1D_TLB_REFILL_LD", "L1 data TLB refill, read", EventCategory.DTLB, _A15),
        _ev(0x4D, "L1D_TLB_REFILL_ST", "L1 data TLB refill, write", EventCategory.DTLB, _A15),
        _ev(0x50, "L2D_CACHE_LD", "L2 data cache access, read", EventCategory.L2, _A15),
        _ev(0x51, "L2D_CACHE_ST", "L2 data cache access, write", EventCategory.L2, _A15),
        _ev(0x52, "L2D_CACHE_REFILL_LD", "L2 data cache refill, read", EventCategory.L2, _A15),
        _ev(0x53, "L2D_CACHE_REFILL_ST", "L2 data cache refill, write", EventCategory.L2, _A15),
        _ev(0x60, "BUS_ACCESS_LD", "Bus access, read", EventCategory.BUS, _A15),
        _ev(0x61, "BUS_ACCESS_ST", "Bus access, write", EventCategory.BUS, _A15),
        _ev(0x62, "BUS_ACCESS_SHARED", "Bus access, normal, cacheable, shareable", EventCategory.BUS, _A15),
        _ev(0x63, "BUS_ACCESS_NOT_SHARED", "Bus access, not shareable", EventCategory.BUS, _A15),
        _ev(0x64, "BUS_ACCESS_NORMAL", "Bus access, normal", EventCategory.BUS, _A15),
        _ev(0x65, "BUS_ACCESS_PERIPH", "Bus access, peripheral", EventCategory.BUS, _A15),
        _ev(0x66, "MEM_ACCESS_LD", "Data memory access, read", EventCategory.L1D, _A15),
        _ev(0x67, "MEM_ACCESS_ST", "Data memory access, write", EventCategory.L1D, _A15),
        _ev(0x68, "UNALIGNED_LD_SPEC", "Unaligned access, read", EventCategory.UNALIGNED, _A15, True),
        _ev(0x69, "UNALIGNED_ST_SPEC", "Unaligned access, write", EventCategory.UNALIGNED, _A15, True),
        _ev(0x6A, "UNALIGNED_LDST_SPEC", "Unaligned access", EventCategory.UNALIGNED, _A15, True),
        _ev(0x6C, "LDREX_SPEC", "Exclusive load speculatively executed", EventCategory.SYNC, _A15, True),
        _ev(0x6D, "STREX_PASS_SPEC", "Exclusive store pass speculatively executed", EventCategory.SYNC, _A15, True),
        _ev(0x6E, "STREX_FAIL_SPEC", "Exclusive store fail speculatively executed", EventCategory.SYNC, _A15, True),
        _ev(0x70, "LD_SPEC", "Load speculatively executed", EventCategory.SPECULATION, _A15, True),
        _ev(0x71, "ST_SPEC", "Store speculatively executed", EventCategory.SPECULATION, _A15, True),
        _ev(0x72, "LDST_SPEC", "Load or store speculatively executed", EventCategory.SPECULATION, _A15, True),
        _ev(0x73, "DP_SPEC", "Integer data processing speculatively executed", EventCategory.SPECULATION, _A15, True),
        _ev(0x74, "ASE_SPEC", "Advanced SIMD speculatively executed", EventCategory.SPECULATION, _A15, True),
        _ev(0x75, "VFP_SPEC", "VFP floating-point speculatively executed", EventCategory.SPECULATION, _A15, True),
        _ev(0x76, "PC_WRITE_SPEC", "Software change of PC speculatively executed", EventCategory.BRANCH, _A15, True),
        _ev(0x78, "BR_IMMED_SPEC", "Immediate branch speculatively executed", EventCategory.BRANCH, _A15, True),
        _ev(0x79, "BR_RETURN_SPEC", "Procedure return speculatively executed", EventCategory.BRANCH, _A15, True),
        _ev(0x7A, "BR_INDIRECT_SPEC", "Indirect branch speculatively executed", EventCategory.BRANCH, _A15, True),
        _ev(0x7C, "ISB_SPEC", "ISB barrier speculatively executed", EventCategory.SYNC, _A15, True),
        _ev(0x7D, "DSB_SPEC", "DSB barrier speculatively executed", EventCategory.SYNC, _A15, True),
        _ev(0x7E, "DMB_SPEC", "DMB barrier speculatively executed", EventCategory.SYNC, _A15, True),
    ]
}

_BY_MNEMONIC: dict[str, PmuEvent] = {e.mnemonic: e for e in PMU_EVENTS.values()}


def event_by_mnemonic(mnemonic: str) -> PmuEvent:
    """Look up an event by its ARM mnemonic.

    Raises:
        KeyError: If the mnemonic is not in the catalog.
    """
    return _BY_MNEMONIC[mnemonic]


def event_name(number: int) -> str:
    """Return ``"0xNN MNEMONIC"`` for a known event, or ``"0xNN"`` otherwise."""
    event = PMU_EVENTS.get(number)
    if event is None:
        return f"0x{number:02X}"
    return f"{event.hex_id} {event.mnemonic}"


def events_for_core(core: str) -> list[PmuEvent]:
    """All catalog events implemented by ``core`` (``"A7"`` or ``"A15"``).

    The list is sorted by event number, matching PMU enumeration order.
    """
    if core not in ("A7", "A15"):
        raise ValueError(f"unknown core {core!r}; expected 'A7' or 'A15'")
    return sorted(
        (e for e in PMU_EVENTS.values() if core in e.cores),
        key=lambda e: e.number,
    )


def mnemonics(numbers: Iterable[int]) -> list[str]:
    """Map event numbers to mnemonics, preserving order."""
    return [PMU_EVENTS[n].mnemonic for n in numbers]
