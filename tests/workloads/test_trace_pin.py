"""Every paper trace, pinned byte for byte.

One sha256 per recipe over everything a compiled trace hands the
simulators: the dynamic ``block_seq``, ``taken_seq`` and
``indirect_target_seq``, the ``mem_addrs`` (bytes and dtype), the
per-kind ``totals``, the ``branch_class_counts`` and ``n_instrs``.  It
covers the 65 power-modelling workloads (the 45 validation workloads
are a subset) at the paper's 60 000 instructions and at a short 4 000,
each with its default seed.

Any change to the compiler's output for an unchanged recipe fails here;
such a change must also bump ``TRACE_COMPILER_VERSION``, since the
result cache keys every replay by the recipe.  To record new pins after
a deliberate change, run ``PYTHONPATH=src python -m
tests.workloads.test_trace_pin``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.suites import power_modelling_workloads
from repro.workloads.trace import (
    TRACE_COMPILER_VERSION,
    SyntheticTrace,
    compile_trace,
)

PIN_FILE = Path(__file__).with_name("trace_pins.json")
LENGTHS = (60_000, 4_000)


def trace_sha256(trace: SyntheticTrace) -> str:
    """sha256 over a trace's dynamic arrays and its dynamic counts."""
    h = hashlib.sha256()
    for name in ("block_seq", "taken_seq", "indirect_target_seq", "mem_addrs"):
        arr = np.ascontiguousarray(getattr(trace, name))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    counts = {
        "totals": trace.totals,
        "branch_class_counts": {
            str(int(cls)): n for cls, n in trace.branch_class_counts.items()
        },
        "n_instrs": trace.n_instrs,
    }
    h.update(json.dumps(counts, sort_keys=True).encode())
    return h.hexdigest()


def current_pins() -> dict[str, str]:
    return {
        f"{profile.name}@{n}": trace_sha256(compile_trace(profile, n))
        for n in LENGTHS
        for profile in power_modelling_workloads()
    }


def _recorded() -> dict:
    return json.loads(PIN_FILE.read_text())


def test_pins_cover_every_paper_recipe():
    recorded = _recorded()
    assert recorded["trace_compiler_version"] == TRACE_COMPILER_VERSION
    expected = {
        f"{profile.name}@{n}"
        for n in LENGTHS
        for profile in power_modelling_workloads()
    }
    assert set(recorded["sha256"]) == expected
    assert len(expected) == 130


@pytest.mark.parametrize("n_instrs", LENGTHS)
def test_every_paper_trace_matches_its_pin(n_instrs):
    pins = _recorded()["sha256"]
    moved = [
        profile.name
        for profile in power_modelling_workloads()
        if trace_sha256(compile_trace(profile, n_instrs))
        != pins[f"{profile.name}@{n_instrs}"]
    ]
    assert moved == []


if __name__ == "__main__":
    PIN_FILE.write_text(
        json.dumps(
            {
                "trace_compiler_version": TRACE_COMPILER_VERSION,
                "sha256": current_pins(),
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
