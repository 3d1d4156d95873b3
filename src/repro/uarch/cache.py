"""Set-associative cache model with LRU replacement and write-back support.

The model is trace-driven and line-granular: callers pass global line
identifiers (``byte_address // line_bytes``).  It tracks the per-type
access/miss/writeback counters the PMU and gem5 both expose, supports
write-streaming detection (a Cortex-A15 feature whose absence from the gem5
model explains the paper's 9.9x ``L1D_CACHE_REFILL_WR`` and 19x
``L1D_CACHE_WB`` over-counts), and hosts an optional stride prefetcher (the
gem5 model's over-aggressive L2 prefetching is another Fig. 6 divergence).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def lru_geometry(entries: int, assoc: int | None = None) -> tuple[int, int]:
    """``(n_sets, assoc)`` of an LRU array of ``entries`` ways in all.

    ``assoc`` is capped at ``entries`` (None: fully associative), and
    there is at least one set of at least one way.  Every cache and TLB,
    scalar model or compiled replay, takes its shape from here.
    """
    entries = max(1, entries)
    assoc = entries if assoc is None else max(1, min(assoc, entries))
    return max(1, entries // assoc), assoc


@dataclass
class CacheStats:
    """Counter block for one cache instance."""

    read_accesses: int = 0
    write_accesses: int = 0
    read_misses: int = 0
    write_misses: int = 0
    write_refills: int = 0  # write misses that allocated (0x43 semantics)
    writebacks: int = 0
    replacements: int = 0
    prefetches_issued: int = 0
    prefetch_hits: int = 0
    streaming_stores: int = 0

    @property
    def accesses(self) -> int:
        return self.read_accesses + self.write_accesses

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat dict of all counters plus derived totals."""
        return {
            "read_accesses": self.read_accesses,
            "write_accesses": self.write_accesses,
            "read_misses": self.read_misses,
            "write_misses": self.write_misses,
            "write_refills": self.write_refills,
            "writebacks": self.writebacks,
            "replacements": self.replacements,
            "prefetches_issued": self.prefetches_issued,
            "prefetch_hits": self.prefetch_hits,
            "streaming_stores": self.streaming_stores,
            "accesses": self.accesses,
            "misses": self.misses,
            "hits": self.hits,
        }


class SetAssociativeCache:
    """A set-associative, LRU, write-back/write-allocate cache.

    Args:
        name: Label used in diagnostics.
        size_bytes: Total capacity.
        line_bytes: Line size (64 B throughout this reproduction).
        assoc: Associativity; capped at the number of lines.
        write_streaming: Enable streaming-store detection: sequential store
            streams bypass allocation after a short training period, like
            the Cortex-A15.  Every other write miss allocates.

    The cache is deliberately dictionary-free in the hot path: each set is a
    plain list ordered MRU-first, and dirty lines live in a per-set set().
    """

    STREAM_TRAIN = 4  # consecutive-line store misses before streaming mode

    def __init__(
        self,
        name: str,
        size_bytes: int,
        line_bytes: int = 64,
        assoc: int = 4,
        write_streaming: bool = False,
    ):
        if size_bytes <= 0 or line_bytes <= 0:
            raise ValueError("cache size and line size must be positive")
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.n_sets, self.assoc = lru_geometry(size_bytes // line_bytes, assoc)
        self.write_streaming = write_streaming
        self.stats = CacheStats()
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self._dirty: list[set[int]] = [set() for _ in range(self.n_sets)]
        # Streaming-store trackers: (last_line, run_length) per concurrent
        # store stream, like the A15's multiple fill/streaming buffers.
        self._stream_trackers: list[list[int]] = []
        self._stream_victim = 0

    N_STREAM_TRACKERS = 8

    def _stream_check(self, line: int) -> bool:
        """Train the streaming detectors on a store miss; True = streaming."""
        for tracker in self._stream_trackers:
            if line == tracker[0] + 1:
                tracker[0] = line
                tracker[1] += 1
                return tracker[1] >= self.STREAM_TRAIN
            if line == tracker[0]:
                return tracker[1] >= self.STREAM_TRAIN
        if len(self._stream_trackers) < self.N_STREAM_TRACKERS:
            self._stream_trackers.append([line, 0])
        else:
            self._stream_trackers[self._stream_victim] = [line, 0]
            self._stream_victim = (self._stream_victim + 1) % self.N_STREAM_TRACKERS
        return False

    def _lookup(self, line: int) -> tuple[int, int, bool]:
        set_index = line % self.n_sets
        tag = line // self.n_sets
        return set_index, tag, tag in self._sets[set_index]

    def contains(self, line: int) -> bool:
        """Non-mutating presence check (no counter updates, no LRU touch)."""
        _, _, hit = self._lookup(line)
        return hit

    def _touch(self, set_index: int, tag: int) -> None:
        ways = self._sets[set_index]
        ways.remove(tag)
        ways.insert(0, tag)

    def _fill(self, set_index: int, tag: int, dirty: bool) -> bool:
        """Insert a line; returns True when a dirty victim was written back."""
        ways = self._sets[set_index]
        ways.insert(0, tag)
        wrote_back = False
        if len(ways) > self.assoc:
            victim = ways.pop()
            self.stats.replacements += 1
            if victim in self._dirty[set_index]:
                self._dirty[set_index].discard(victim)
                self.stats.writebacks += 1
                wrote_back = True
        if dirty:
            self._dirty[set_index].add(tag)
        return wrote_back

    def access(self, line: int, is_write: bool = False) -> tuple[bool, bool, bool]:
        """Access one line.

        Returns:
            ``(hit, writeback, allocated)`` — whether the access hit, whether
            a dirty victim was evicted, and whether a line was allocated
            (False for streaming stores that bypass the cache).
        """
        stats = self.stats
        # _lookup/_touch inlined: access() is the simulator's hottest call.
        set_index = line % self.n_sets
        tag = line // self.n_sets
        ways = self._sets[set_index]
        if is_write:
            stats.write_accesses += 1
        else:
            stats.read_accesses += 1

        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            if is_write:
                self._dirty[set_index].add(tag)
            return True, False, False

        if is_write:
            stats.write_misses += 1
            if self.write_streaming:
                if self._stream_check(line):
                    # Streaming mode: write around the cache, no allocation,
                    # no future writeback for this line.
                    stats.streaming_stores += 1
                    return False, False, False
            stats.write_refills += 1
            wrote_back = self._fill(set_index, tag, dirty=True)
            return False, wrote_back, True

        stats.read_misses += 1
        wrote_back = self._fill(set_index, tag, dirty=False)
        return False, wrote_back, True

    def fill(self, line: int) -> None:
        """Insert a line without touching any counters (cache pre-warming).

        Silent eviction: no writeback or replacement accounting.  Used to
        establish steady-state residency before measurement starts, the
        trace-driven equivalent of a real workload's warm-up phase.
        """
        set_index, tag, hit = self._lookup(line)
        if hit:
            self._touch(set_index, tag)
            return
        ways = self._sets[set_index]
        ways.insert(0, tag)
        if len(ways) > self.assoc:
            victim = ways.pop()
            self._dirty[set_index].discard(victim)

    def warm_fill_many(self, lines) -> None:
        """Bulk :meth:`fill`: bit-identical final state to filling in a loop.

        ``fill`` is counter-silent, so only the final LRU state matters: a
        set that saw fills ``t1..tk`` ends up holding the most recently
        filled distinct tags, MRU-first, truncated to the associativity —
        with any pre-existing residents ranked older than every new fill.
        That closed form is computed here in one vectorised pass instead of
        one Python call per line, which is what makes large pre-warm
        footprints (two L2 capacities per data stream) cheap.

        The closed form is only exact while the cache is clean: sequential
        ``fill`` silently drops an evicted line's dirty bit even when a
        later fill re-inserts the line, an ordering this summary cannot
        see.  Dirty caches therefore take the sequential path.
        """
        if any(self._dirty):
            fill = self.fill
            for line in lines:
                fill(line)
            return
        arr = np.asarray(lines, dtype=np.int64)
        if arr.size == 0:
            return
        # Distinct lines by most recent fill: np.unique on the reversed
        # sequence keeps each line's *last* occurrence, and re-sorting the
        # surviving positions restores recency order (most recent first).
        rev = arr[::-1]
        _, keep = np.unique(rev, return_index=True)
        keep.sort()
        mru_lines = rev[keep]
        n_sets = self.n_sets
        set_idx = mru_lines % n_sets
        order = np.argsort(set_idx, kind="stable")
        sorted_sets = set_idx[order]
        bounds = np.flatnonzero(sorted_sets[1:] != sorted_sets[:-1]) + 1
        starts = [0, *bounds.tolist(), order.size]
        assoc = self.assoc
        sets = self._sets
        for i in range(len(starts) - 1):
            seg = order[starts[i] : starts[i + 1]]
            s = int(set_idx[seg[0]])
            fresh = (mru_lines[seg] // n_sets).tolist()
            ways = sets[s]
            if ways:
                fresh_tags = set(fresh)
                fresh += [tag for tag in ways if tag not in fresh_tags]
            del fresh[assoc:]
            sets[s] = fresh

    def prefetch(self, line: int) -> bool:
        """Insert a line speculatively; returns True if it was absent."""
        set_index, tag, hit = self._lookup(line)
        self.stats.prefetches_issued += 1
        if hit:
            return False
        self._fill(set_index, tag, dirty=False)
        return True


def _stable_set_order(sets: np.ndarray, n_sets: int) -> np.ndarray:
    """Stable argsort by set index, using the narrowest radix that fits."""
    if n_sets <= np.iinfo(np.uint16).max:
        sets = sets.astype(np.uint16)
    elif n_sets <= np.iinfo(np.uint32).max:
        sets = sets.astype(np.uint32)
    return np.argsort(sets, kind="stable")


def warm_content_rows(lines, n_sets: int, assoc: int) -> np.ndarray:
    """Compress a silent warm-fill sequence to equivalent mutating rows.

    Counter-silent fills only matter through the final LRU state: per set,
    the last ``assoc`` distinct fills, most recent last.  Replaying the
    returned rows (oldest resident first) as ordinary mutating accesses on
    an empty structure reproduces that state exactly, shrinking a warm
    prefix of arbitrary length to at most ``n_sets * assoc`` rows.
    """
    arr = np.asarray(lines, dtype=np.int64)
    if arr.size == 0:
        return arr
    rev = arr[::-1]
    _, keep = np.unique(rev, return_index=True)
    keep.sort()
    mru = rev[keep]  # distinct lines, most recent first
    sets = mru % n_sets if n_sets > 1 else np.zeros(len(mru), dtype=np.int64)
    order = _stable_set_order(sets, n_sets)
    s_sets = sets[order]
    run_start = np.empty(len(order), dtype=bool)
    if len(order):
        run_start[0] = True
        np.not_equal(s_sets[1:], s_sets[:-1], out=run_start[1:])
    rank = np.arange(len(order), dtype=np.int64)
    base = np.maximum.accumulate(np.where(run_start, rank, -1))
    resident = (rank - base) < assoc
    survivors = order[resident]          # positions into mru, per set
    survivors = np.sort(survivors)[::-1]  # oldest fill first
    return mru[survivors]


class StridePrefetcher:
    """A degree-N stride prefetcher attached to one cache level.

    Tracks the delta between successive demand-miss lines; after two
    repeats of the same delta it issues ``degree`` prefetches ahead.  The
    gem5 ex5_big configuration is reproduced with a high degree, the
    hardware reference with a conservative one — the source of the paper's
    "L2 prefetches significantly overestimated" observation.
    """

    def __init__(self, cache: SetAssociativeCache, degree: int = 1):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self.cache = cache
        self.degree = degree
        self._last_line = -1
        self._last_delta = 0
        self._confidence = 0

    def train(self, line: int) -> int:
        """Observe a demand miss; returns the number of prefetches issued."""
        if self.degree == 0:
            return 0
        delta = line - self._last_line
        if delta == self._last_delta and delta != 0:
            self._confidence = min(self._confidence + 1, 4)
        else:
            self._confidence = 0
            self._last_delta = delta
        self._last_line = line
        issued = 0
        if self._confidence >= 2:
            for i in range(1, self.degree + 1):
                if self.cache.prefetch(line + self._last_delta * i):
                    issued += 1
        return issued
