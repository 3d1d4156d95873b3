"""Tests for the set-associative cache model."""

import pytest

from repro.uarch.cache import CacheStats, SetAssociativeCache, StridePrefetcher


def make_cache(**kwargs):
    defaults = dict(name="test", size_bytes=4096, line_bytes=64, assoc=2)
    defaults.update(kwargs)
    return SetAssociativeCache(**defaults)


class TestBasics:
    def test_first_access_misses(self):
        cache = make_cache()
        hit, wb, allocated = cache.access(0)
        assert not hit and not wb and allocated

    def test_second_access_hits(self):
        cache = make_cache()
        cache.access(0)
        hit, _, _ = cache.access(0)
        assert hit

    def test_geometry(self):
        cache = make_cache(size_bytes=4096, assoc=2)
        assert cache.n_sets == 32

    def test_assoc_capped_at_lines(self):
        cache = make_cache(size_bytes=128, line_bytes=64, assoc=16)
        assert cache.assoc == 2

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            make_cache(size_bytes=0)

    def test_counters(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        cache.access(1, is_write=True)
        stats = cache.stats
        assert stats.read_accesses == 2
        assert stats.read_misses == 1
        assert stats.write_accesses == 1
        assert stats.write_misses == 1
        assert stats.hits == 1
        assert stats.miss_rate == pytest.approx(2 / 3)

    def test_contains_does_not_mutate(self):
        cache = make_cache()
        cache.access(0)
        before = cache.stats.accesses
        assert cache.contains(0)
        assert not cache.contains(99999)
        assert cache.stats.accesses == before


class TestLruReplacement:
    def test_lru_victim_evicted(self):
        cache = make_cache(size_bytes=128, line_bytes=64, assoc=2)  # 1 set
        cache.access(0)
        cache.access(1)
        cache.access(0)      # 1 is now LRU
        cache.access(2)      # evicts 1
        assert cache.contains(0)
        assert cache.contains(2)
        assert not cache.contains(1)

    def test_replacements_counted(self):
        cache = make_cache(size_bytes=128, line_bytes=64, assoc=2)
        for line in range(3):
            cache.access(line)
        assert cache.stats.replacements == 1


class TestWriteback:
    def test_dirty_eviction_counts_writeback(self):
        cache = make_cache(size_bytes=128, line_bytes=64, assoc=2)
        cache.access(0, is_write=True)
        cache.access(1)
        _, wb, _ = cache.access(2)  # evicts dirty 0
        assert wb
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(size_bytes=128, line_bytes=64, assoc=2)
        cache.access(0)
        cache.access(1)
        _, wb, _ = cache.access(2)
        assert not wb

    def test_write_hit_marks_dirty(self):
        cache = make_cache(size_bytes=128, line_bytes=64, assoc=2)
        cache.access(0)              # clean fill
        cache.access(0, is_write=True)  # now dirty
        cache.access(1)
        _, wb, _ = cache.access(2)
        assert wb


class TestWriteStreaming:
    def test_streaming_store_run_bypasses_allocation(self):
        cache = make_cache(size_bytes=4096, write_streaming=True)
        for line in range(16):  # long sequential store stream
            cache.access(line, is_write=True)
        assert cache.stats.streaming_stores > 0

    def test_non_streaming_cache_allocates_stores(self):
        cache = make_cache(size_bytes=4096, write_streaming=False)
        for line in range(16):
            cache.access(line, is_write=True)
        assert cache.stats.streaming_stores == 0

    def test_streaming_reduces_writebacks(self):
        """The mechanism behind the paper's 19x L1D_WB divergence."""
        def run(streaming: bool) -> int:
            cache = make_cache(size_bytes=1024, write_streaming=streaming)
            for line in range(400):
                cache.access(line, is_write=True)
            return cache.stats.writebacks

        assert run(True) < run(False) / 4

    def test_random_stores_defeat_streaming(self):
        cache = make_cache(size_bytes=4096, write_streaming=True)
        for line in (5, 100, 7, 300, 2, 250, 9, 77):
            cache.access(line, is_write=True)
        assert cache.stats.streaming_stores == 0


class TestFillAndPrefetch:
    def test_fill_does_not_count(self):
        cache = make_cache()
        cache.fill(0)
        assert cache.stats.accesses == 0
        hit, _, _ = cache.access(0)
        assert hit

    def test_fill_evicts_silently(self):
        cache = make_cache(size_bytes=128, line_bytes=64, assoc=2)
        cache.access(0, is_write=True)
        cache.fill(1)
        cache.fill(2)  # evicts dirty 0 silently
        assert cache.stats.writebacks == 0

    def test_prefetch_inserts(self):
        cache = make_cache()
        assert cache.prefetch(5)
        assert cache.contains(5)
        assert not cache.prefetch(5)  # already present
        assert cache.stats.prefetches_issued == 2


class TestStridePrefetcher:
    def test_detects_constant_stride(self):
        cache = make_cache(size_bytes=65536)
        prefetcher = StridePrefetcher(cache, degree=2)
        issued = 0
        for line in range(0, 40, 4):
            issued += prefetcher.train(line)
        assert issued > 0
        assert cache.contains(40)  # prefetched ahead

    def test_degree_zero_never_issues(self):
        cache = make_cache()
        prefetcher = StridePrefetcher(cache, degree=0)
        assert sum(prefetcher.train(line) for line in range(0, 40, 4)) == 0

    def test_higher_degree_attempts_more(self):
        def attempts_with(degree: int) -> int:
            cache = make_cache(size_bytes=65536)
            prefetcher = StridePrefetcher(cache, degree=degree)
            for line in range(0, 200, 4):
                prefetcher.train(line)
            return cache.stats.prefetches_issued

        assert attempts_with(4) > attempts_with(1) * 2

    def test_random_pattern_trains_nothing(self):
        cache = make_cache(size_bytes=65536)
        prefetcher = StridePrefetcher(cache, degree=2)
        issued = sum(prefetcher.train(line) for line in (3, 99, 4, 1000, 17, 5))
        assert issued == 0

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            StridePrefetcher(make_cache(), degree=-1)


class TestStatsAsDict:
    def test_as_dict_consistency(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        d = cache.stats.as_dict()
        assert d["accesses"] == 2
        assert d["hits"] == 1
        assert d["misses"] == 1
