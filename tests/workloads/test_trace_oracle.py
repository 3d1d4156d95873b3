"""The batched trace builder against the per-block one, array for array.

:class:`repro.workloads.trace._TraceBuilder` fills each loop visit with
whole-array numpy and groups the address streams with one stable sort.
Its oracle is the builder as it was before, one Python round-trip per
dynamic block, kept verbatim in ``tests/workloads/trace_oracle.py``.  For
every profile, seed and length both must build the same trace: the same
static program, dynamic sequences, addresses and counts.  Because both
draw from one seeded generator, any draw made out of order shows up as a
mismatch.

The profile strategy must reach the cases the batched builder handles
apart: INDIRECT-heavy bodies (drawn block by block), functions whose
entry block is INDIRECT (pairs drawn one by one), a single function (no
pairs), ``return_frac == 0`` and a length target that stops a loop
visit part way through.  The property test asserts it reached each.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.workloads.profile import WorkloadProfile
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import BranchClass, _TraceBuilder, workload_seed

from tests.workloads.trace_oracle import ReferenceTraceBuilder

_ARRAYS = ("block_seq", "taken_seq", "indirect_target_seq", "mem_addrs")
_COUNTS = ("totals", "branch_class_counts", "n_instrs", "digest")

CASES = frozenset(
    {
        "indirect-heavy body",
        "indirect entry pair",
        "single function",
        "no returns",
        "visit stopped part way",
    }
)


@st.composite
def profiles(draw):
    """Valid profiles, weighted towards the builder's separate paths.

    The instruction mix stays under 0.95 (with the default ``frac_mul``).
    """
    frac_load = draw(st.floats(0.0, 0.3))
    frac_store = draw(st.floats(0.0, 0.15))
    frac_branch = draw(st.floats(0.02, 0.3))
    exclusive = draw(st.one_of(st.just(0.0), st.floats(0.001, 0.03)))
    loop = draw(st.floats(0.12, 1.0))
    pattern = draw(st.floats(0.0, 1.0 - loop))
    biased = draw(st.floats(0.0, 1.0 - loop - pattern))
    seq = draw(st.floats(0.0, 1.0))
    stride = draw(st.floats(0.0, 1.0 - seq))
    indirect = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.55)))
    # Past a third the pair rate return_frac / (1 - 3 return_frac) explodes.
    returns = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.25)))
    return WorkloadProfile(
        name="oracle",
        suite="hypothesis",
        frac_load=frac_load,
        frac_store=frac_store,
        frac_branch=frac_branch,
        frac_fp=draw(st.floats(0.0, 0.1)),
        frac_ldrex=exclusive,
        frac_strex=exclusive,
        frac_barrier=exclusive,
        loop_branch_frac=loop,
        pattern_branch_frac=pattern,
        biased_branch_frac=biased,
        random_branch_frac=1.0 - loop - pattern - biased,
        branch_bias=draw(st.floats(0.0, 1.0)),
        pattern_period=draw(st.integers(1, 9)),
        indirect_frac=indirect,
        return_frac=returns,
        loop_trip_mean=draw(st.floats(2.0, 400.0)),
        n_functions=draw(st.one_of(st.just(1), st.integers(2, 16))),
        code_kb=draw(st.floats(0.5, 256.0)),
        data_kb=draw(st.floats(0.01, 4096.0)),
        frac_seq=seq,
        frac_stride=stride,
        frac_rand=1.0 - seq - stride,
        stride_b=draw(st.sampled_from([4, 64, 256, 4096])),
        frac_unaligned=draw(st.floats(0.0, 1.0)),
    )


def _build_both(profile, n_instrs, seed):
    """Both traces, plus the batched builder's visit records."""
    builder = _TraceBuilder(profile, n_instrs, seed)
    assemble = builder._assemble
    visits = []

    def recording(bodies, pair_blocks, records, *rest):
        visits.extend(records)
        return assemble(bodies, pair_blocks, records, *rest)

    builder._assemble = recording  # type: ignore[method-assign]
    batched = builder.build()
    reference = ReferenceTraceBuilder(profile, n_instrs, seed).build()
    return batched, reference, builder, visits


def _assert_identical(batched, reference) -> None:
    assert batched.blocks == reference.blocks
    assert batched.streams == reference.streams
    for name in _ARRAYS:
        a, b = getattr(batched, name), getattr(reference, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    for name in _COUNTS:
        assert getattr(batched, name) == getattr(reference, name), name
    assert list(batched.branch_class_counts) == list(
        reference.branch_class_counts
    )


def _cases(profile, trace, builder, visits) -> set[str]:
    """The separately handled cases this build exercised."""
    reached = set()
    blocks = trace.blocks
    classes = np.asarray([b.branch_class for b in blocks])[trace.block_seq]
    indirect_bodies = {
        b
        for fn in builder.functions
        for body in fn.bodies
        if sum(blocks[i].branch_class == BranchClass.INDIRECT for i in body)
        * 2 >= len(body)
        for b in body
    }
    if indirect_bodies and np.isin(trace.block_seq, sorted(indirect_bodies)).any():
        if (classes == BranchClass.INDIRECT).mean() >= 0.2:
            reached.add("indirect-heavy body")
    entries = {
        fn.bodies[0][0]
        for fn in builder.functions
        if blocks[fn.bodies[0][0]].branch_class == BranchClass.INDIRECT
    }
    call_pos = np.flatnonzero(classes == BranchClass.CALL)
    if entries and call_pos.size and np.isin(
        trace.block_seq[call_pos + 1], sorted(entries)
    ).any():
        reached.add("indirect entry pair")
    if len(builder.functions) == 1:
        reached.add("single function")
    if profile.return_frac == 0 and len(builder.functions) > 1:
        reached.add("no returns")
    _, _, run, trips, _ = visits[-1]
    if run < trips:
        reached.add("visit stopped part way")
    return reached


def test_batched_builder_equals_the_oracle():
    reached: set[str] = set()

    @settings(max_examples=200, deadline=None)
    @given(
        profile=profiles(),
        seed=st.integers(0, 2**31 - 1),
        n_instrs=st.integers(500, 9_000),
    )
    @example(
        profile=WorkloadProfile(
            name="switchy", suite="hypothesis", loop_branch_frac=0.2,
            pattern_branch_frac=0.2, biased_branch_frac=0.4,
            random_branch_frac=0.2, indirect_frac=0.5, n_functions=6,
        ),
        seed=3,
        n_instrs=4_000,
    )
    def check(profile, seed, n_instrs):
        batched, reference, builder, visits = _build_both(
            profile, n_instrs, seed
        )
        _assert_identical(batched, reference)
        reached.update(_cases(profile, batched, builder, visits))

    check()
    assert reached == CASES


def test_paper_recipes_equal_the_oracle_at_an_odd_length():
    """Paper recipes at a length no pin uses, on both pair paths."""
    indirect_entries = set()
    for name in ("mi-qsort", "dhrystone", "parsec-canneal-4"):
        profile = workload_by_name(name)
        for seed in (workload_seed(name), 12345):
            batched, reference, builder, _ = _build_both(profile, 23_456, seed)
            _assert_identical(batched, reference)
            indirect_entries.add(
                any(
                    batched.blocks[fn.bodies[0][0]].branch_class
                    == BranchClass.INDIRECT
                    for fn in builder.functions
                )
            )
    assert indirect_entries == {True, False}
