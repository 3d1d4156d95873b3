"""Property-based tests for cache and TLB invariants (hypothesis)."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.sim import kernel
from repro.uarch.cache import SetAssociativeCache, warm_content_rows
from repro.uarch.tlb import Tlb


@settings(max_examples=40, deadline=None)
@given(
    size_kb=st.sampled_from([1, 4, 32]),
    assoc=st.sampled_from([1, 2, 4, 8]),
    accesses=st.lists(
        st.tuples(st.integers(0, 5000), st.booleans()), min_size=1, max_size=300
    ),
)
def test_cache_counter_invariants(size_kb, assoc, accesses):
    cache = SetAssociativeCache("p", size_kb * 1024, 64, assoc)
    for line, is_write in accesses:
        cache.access(line, is_write)
    stats = cache.stats
    assert stats.accesses == len(accesses)
    assert stats.hits + stats.misses == stats.accesses
    assert 0 <= stats.miss_rate <= 1
    assert stats.writebacks <= stats.replacements
    # Occupancy never exceeds capacity.
    occupancy = sum(len(ways) for ways in cache._sets)
    assert occupancy <= cache.n_sets * cache.assoc


@settings(max_examples=40, deadline=None)
@given(
    accesses=st.lists(st.integers(0, 2000), min_size=1, max_size=300),
    entries=st.sampled_from([4, 16, 64]),
)
def test_tlb_counter_invariants(accesses, entries):
    tlb = Tlb("p", entries)
    for page in accesses:
        tlb.lookup(page)
    stats = tlb.stats
    assert stats.lookups == len(accesses)
    assert stats.hits + stats.misses == stats.lookups
    # A repeated immediate lookup always hits.
    tlb.lookup(accesses[-1])
    before = tlb.stats.hits
    tlb.lookup(accesses[-1])
    assert tlb.stats.hits == before + 1


@settings(max_examples=30, deadline=None)
@given(accesses=st.lists(st.integers(0, 100), min_size=1, max_size=200))
def test_bigger_cache_never_misses_more(accesses):
    """Inclusion-style property: with identical access streams and LRU, a
    cache of double associativity (same sets) never takes more misses."""
    small = SetAssociativeCache("s", 64 * 16, 64, 1)   # 16 sets, 1 way
    large = SetAssociativeCache("l", 64 * 32, 64, 2)   # 16 sets, 2 ways
    for line in accesses:
        small.access(line)
        large.access(line)
    assert large.stats.misses <= small.stats.misses


@settings(max_examples=60, deadline=None)
@given(
    ways=st.lists(
        st.sampled_from([1, 2, 4, 8]), min_size=2, max_size=2, unique=True
    ).map(sorted),
    n_sets=st.sampled_from([1, 4, 16]),
    accesses=st.lists(
        st.tuples(st.integers(0, 200), st.booleans()), min_size=1, max_size=300
    ),
)
# A FIFO cache (a hit that does not refresh recency) breaks inclusion on
# this stream: the 4-way set evicts line 0 on the miss on line 4, while
# the 2-way set, having re-filled 0 later, still holds it.  Random streams
# rarely show such an anomaly, so it is pinned here.
@example(
    ways=[2, 4],
    n_sets=1,
    accesses=[(line, False) for line in (0, 1, 2, 3, 0, 4, 0)],
)
def test_lru_stack_inclusion_per_access(ways, n_sets, accesses):
    """LRU is a stack algorithm: at equal set counts, the contents of an
    a-way set are always the a most recent lines of the b-way set (a < b),
    so every access that hits in the smaller cache hits in the larger."""
    small_ways, large_ways = ways
    small = SetAssociativeCache("s", 64 * n_sets * small_ways, 64, small_ways)
    large = SetAssociativeCache("l", 64 * n_sets * large_ways, 64, large_ways)
    assert small.n_sets == large.n_sets == n_sets
    for line, is_write in accesses:
        small_hit, _, _ = small.access(line, is_write)
        large_hit, _, _ = large.access(line, is_write)
        assert large_hit or not small_hit, (line, is_write)


@settings(max_examples=30, deadline=None)
@given(pages=st.lists(st.integers(0, 50), min_size=1, max_size=150))
def test_fully_associative_tlb_lru_property(pages):
    """After any access sequence, the last min(entries, distinct) pages hit."""
    tlb = Tlb("p", 8)
    for page in pages:
        tlb.lookup(page)
    # Most-recent page must be resident.
    assert tlb.contains(pages[-1])


@settings(max_examples=25, deadline=None)
@given(
    lines=st.lists(st.integers(0, 3000), min_size=1, max_size=200),
)
def test_fill_then_access_always_hits_immediately(lines):
    cache = SetAssociativeCache("p", 64 * 1024, 64, 4)
    for line in lines:
        cache.fill(line)
        hit, _, _ = cache.access(line)
        assert hit


def _reference_l1d(warm, ops, cache):
    """Per-op (hit, streamed, wrote_back) from driving ``cache`` directly."""
    for line in warm:
        cache.fill(line)
    outcomes = []
    for line, is_write in ops:
        hit, wrote_back, allocated = cache.access(line, is_write)
        outcomes.append((hit, is_write and not hit and not allocated, wrote_back))
    return outcomes


def _walk_l1d(warm, ops, cache):
    """Per-op (hit, streamed, wrote_back) from the kernel's ``lru_replay``,
    fed as the columnar L1D pass feeds it: the warm fills compressed to
    mutating read rows, then the ops.  ``cache`` gives the geometry."""
    rows = warm_content_rows(warm, cache.n_sets, cache.assoc)
    lines = np.concatenate([rows, np.array([line for line, _ in ops], np.int64)])
    flags = [kernel.OP_MUTATE] * len(rows) + [
        kernel.OP_MUTATE | (kernel.OP_WRITE if write else 0) for _, write in ops
    ]
    out = kernel.lru_replay(
        lines, cache.n_sets, cache.assoc, flags, cache.write_streaming
    )[len(rows):]
    return [
        (bool(o & kernel.OUT_HIT), bool(o & kernel.OUT_STREAMED),
         bool(o & kernel.OUT_WROTE_BACK))
        for o in out.tolist()
    ]


def _interleaved_runs():
    """Eight sequential store runs long enough to stream, two more that
    rotate the tracker victims, a re-read and re-store of a streamed line,
    then reads that evict dirty lines."""
    bases = [1000 * r for r in range(10)]
    ops = []
    for step in range(6):
        ops += [(bases[r] + step, True) for r in range(8)]
    for step in range(6):
        ops += [(bases[r] + step, True) for r in (8, 9)]
    ops += [(bases[0] + 5, False), (bases[0] + 5, True), (bases[0] + 5, False)]
    ops += [(line, False) for line in range(64)]
    return ops


@st.composite
def _l1d_streams(draw):
    """A warm prefix plus bursts of up to 12 sequential store runs,
    interleaved with re-reads of recently stored run lines and random
    reads and writes."""
    n_runs = draw(st.integers(1, 12))
    heads = [draw(st.integers(0, 40)) * 64 for _ in range(n_runs)]
    warm = draw(st.lists(st.integers(0, 3000), max_size=40))
    ops = []
    steps = st.tuples(
        st.sampled_from(["stores", "stores", "reread", "read", "write"]),
        st.integers(0, n_runs - 1),
        st.integers(0, 3000),
    )
    for kind, run, line in draw(st.lists(steps, min_size=4, max_size=60)):
        if kind == "stores":
            burst = 1 + line % 8
            ops += [(heads[run] + k, True) for k in range(burst)]
            heads[run] += burst
        elif kind == "reread":
            ops.append((max(0, heads[run] - 1 - line % 4), False))
        else:
            ops.append((line, kind == "write"))
    return warm, ops


@settings(max_examples=80, deadline=None)
@given(
    assoc=st.sampled_from([1, 2, 4]),
    n_sets=st.sampled_from([1, 4, 16]),
    write_streaming=st.booleans(),
    stream=_l1d_streams(),
)
@example(assoc=1, n_sets=4, write_streaming=True, stream=([], _interleaved_runs()))
@example(assoc=2, n_sets=4, write_streaming=True, stream=([], _interleaved_runs()))
@example(assoc=4, n_sets=4, write_streaming=True, stream=([], _interleaved_runs()))
def test_l1d_resolver_matches_per_op_access(assoc, n_sets, write_streaming, stream):
    """The kernel's L1D replay reproduces ``access`` op by op after the
    same warm ``fill`` prefix, with and without write streaming."""
    warm, ops = stream

    def make():
        return SetAssociativeCache("l1d", 64 * n_sets * assoc, 64, assoc,
                                   write_streaming=write_streaming)

    assert _walk_l1d(warm, ops, make()) == _reference_l1d(warm, ops, make())


def test_interleaved_runs_cover_the_streaming_corner_cases():
    """The pinned examples above really exercise what they are meant to."""
    ops = _interleaved_runs()
    for assoc in (1, 2, 4):
        cache = SetAssociativeCache("l1d", 64 * 4 * assoc, 64, assoc,
                                    write_streaming=True)
        outcomes = _reference_l1d([], ops, cache)
        assert cache._stream_victim == 2  # two tracker victims rotated out
        assert cache.stats.writebacks > 0
        reread = ops.index((5, False))
        assert outcomes[ops.index((5, True))][1]  # line 5 streamed, then is
        assert outcomes[reread][0] is False       # read again: miss, allocate,
        assert outcomes[reread + 1][0] is True    # and the next store hits it
