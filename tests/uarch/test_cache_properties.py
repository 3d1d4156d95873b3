"""Property-based tests for cache and TLB invariants (hypothesis)."""

from hypothesis import example, given, settings, strategies as st

from repro.uarch.cache import SetAssociativeCache
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
