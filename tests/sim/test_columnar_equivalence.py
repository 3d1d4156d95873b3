"""Randomized scalar-vs-columnar equivalence tests.

The columnar replay engine must be *bit-identical* to the scalar model —
not approximately equal — for every trace and machine.  The golden suite
pins a handful of exact values; this module sweeps the space: ~50 seeded
randomized traces (workload profile, thread count, trace seed and length
all drawn from one fixed-seed RNG) crossed with randomized machine
configurations (all four hardware/gem5 configs, both branch predictors).

It also pins that a repeat replay of the same trace (which exercises the
verified memos on the decoded columnar form) is bit-identical to the
first, and that a DVFS operating point is a projection of one replay.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.sim.cpu import simulate
from repro.sim.dvfs import experiment_frequencies
from repro.sim.machine import machine_by_name
from repro.workloads.suites import all_workloads
from repro.workloads.trace import compile_trace

MACHINE_NAMES = ("hw-a15", "gem5-ex5-big", "hw-a7", "gem5-ex5-little")
PREDICTORS = ("tournament", "buggy_tournament")
N_CASES = 50


def _assert_bit_identical(a, b) -> None:
    """Full SimResult equality — floats compared with ``==``."""
    assert set(a.counts) == set(b.counts)
    for name in a.counts:
        assert a.counts[name] == b.counts[name], name
    assert a.core_cycles == b.core_cycles
    assert a.dram_stall_weight == b.dram_stall_weight
    assert a.components == b.components
    assert a.sync_factor == b.sync_factor
    assert a.threads == b.threads


def _cases():
    """~50 seeded random (profile, n_instrs, seed, machine) draws."""
    rng = random.Random(0x5EED_2026)
    profiles = list(all_workloads())
    cases = []
    for i in range(N_CASES):
        profile = dataclasses.replace(
            rng.choice(profiles), threads=rng.choice((1, 2, 4))
        )
        machine = dataclasses.replace(
            machine_by_name(rng.choice(MACHINE_NAMES)),
            predictor=rng.choice(PREDICTORS),
        )
        cases.append(
            pytest.param(
                profile,
                rng.randint(4_000, 8_000),  # n_instrs
                rng.randint(0, 2**31),  # trace seed
                machine,
                id=f"{i:02d}-{profile.name}-t{profile.threads}"
                f"-{machine.name}-{machine.predictor}",
            )
        )
    return cases


@pytest.mark.parametrize(
    ("profile", "n_instrs", "seed", "machine"), _cases()
)
def test_columnar_matches_scalar(profile, n_instrs, seed, machine):
    trace = compile_trace(profile, n_instrs, seed=seed)
    scalar = simulate(trace, machine, engine="scalar")
    columnar = simulate(trace, machine, engine="columnar")
    _assert_bit_identical(scalar, columnar)

    # A repeat replay hits the verified memos on the decoded columnar
    # form; it must reproduce the first run exactly.
    again = simulate(trace, machine, engine="columnar")
    _assert_bit_identical(columnar, again)


@pytest.mark.parametrize(
    "machine_name",
    ["hw-a7", "hw-a15", "gem5-ex5-big", "gem5-ex5-big-fixed", "gem5-ex5-little"],
)
def test_dvfs_projection_matches_scalar(machine_name):
    """A replay takes no frequency: every operating point is a projection
    of one columnar replay, equal to the scalar engine's projection."""
    machine = machine_by_name(machine_name)
    trace = compile_trace(list(all_workloads())[7], 6_000)
    columnar = simulate(trace, machine)
    reference = simulate(trace, machine, engine="scalar")
    _assert_bit_identical(columnar, reference)
    freqs = experiment_frequencies(machine.core)
    assert len(freqs) == 4  # the paper's per-cluster sweep
    for freq_hz in freqs:
        assert columnar.time_seconds(freq_hz) == reference.time_seconds(freq_hz)
        assert columnar.cycles(freq_hz) == reference.cycles(freq_hz)
