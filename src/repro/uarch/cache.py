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

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np


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
        n_lines = max(1, size_bytes // line_bytes)
        assoc = max(1, min(assoc, n_lines))
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.n_sets = max(1, n_lines // assoc)
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


# --------------------------------------------------------------------------
# Batched LRU replay (columnar engine)
# --------------------------------------------------------------------------
#
# A pure-LRU set (every access moves its line to MRU, every miss allocates)
# has a closed-form hit rule: an access hits iff its *stack distance* — the
# number of distinct other lines touched in the same set since the line's
# previous access — is below the associativity.  The machinery below
# resolves a whole access stream at once:
#
# 1. ops are partitioned by set (stably, so each set's span stays in time
#    order) and adjacent same-key repeats are collapsed: a repeat of the
#    current MRU entry always hits and leaves LRU state untouched;
# 2. the collapsed stream obeys a *gap shortcut*: an op closer than
#    ``assoc`` collapsed ops to the previous access of its key cannot have
#    seen ``assoc`` distinct keys in between, so it hits — and because
#    adjacent collapsed ops always differ, a gap of ``assoc`` or more in a
#    2-way structure always proves a miss, making the shortcut complete
#    for 2-way (and trivially for direct-mapped) geometries;
# 3. the remainder (long gaps in wider structures) is resolved exactly by
#    counting *window firsts* — ops whose own previous access precedes the
#    window, one per distinct key — in vectorised chunks with early exit
#    once the count reaches ``assoc``;
# 4. writebacks come from residency chains (one key's run of accesses
#    between consecutive misses): a dirty chain's victim leaves at the
#    ``assoc``-th window first after the chain's last touch, located by
#    the same chunked scan.
#
# The Cortex-A15's streaming stores break the pure-LRU premise (they do
# not allocate); :func:`batch_l1d_replay` resolves a write-streaming L1D
# with an exact program-order walk instead.

_CHUNK = 16          # initial window-first scan width per vectorised step
_CHUNK_MAX = 256     # chunk width doubles per step up to this cap
_MAX_CHUNK_STEPS = 64  # beyond this, unresolved rows take one exact slice


def _stable_set_order(sets: np.ndarray, n_sets: int) -> np.ndarray:
    """Stable argsort by set index, using the narrowest radix that fits."""
    if n_sets <= np.iinfo(np.uint16).max:
        sets = sets.astype(np.uint16)
    elif n_sets <= np.iinfo(np.uint32).max:
        sets = sets.astype(np.uint32)
    return np.argsort(sets, kind="stable")


def _stable_key_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of key values, remapped to a narrow dtype when possible."""
    if len(keys) == 0:
        return np.empty(0, dtype=np.int64)
    kmin = int(keys.min())
    if int(keys.max()) - kmin <= np.iinfo(np.uint32).max:
        return np.argsort((keys - kmin).astype(np.uint32), kind="stable")
    return np.argsort(keys, kind="stable")


def _count_window_firsts(
    prev: np.ndarray, p: np.ndarray, end: np.ndarray, limit: int
) -> np.ndarray:
    """Count ``k in (p, end)`` with ``prev[k] <= p``, early-exiting at ``limit``.

    Returns per-query counts that are exact below ``limit`` and clipped-or-
    overshot at/above it (callers only compare against ``limit``).  The scan
    walks each window in vectorised chunks, dropping queries as soon as they
    resolve, so the cost tracks the stack depth actually needed rather than
    the raw window length.
    """
    nq = len(p)
    cnt = np.zeros(nq, dtype=np.int64)
    if nq == 0 or len(prev) == 0:
        return cnt
    lo = p + 1
    act = np.flatnonzero(lo < end)
    m = len(prev)
    # Most queries resolve within a few ops (window firsts are dense), so
    # start with narrow chunks and widen for the stragglers.
    chunk = _CHUNK
    steps = 0
    while act.size:
        steps += 1
        window = lo[act, None] + np.arange(chunk, dtype=np.int64)
        valid = window < end[act, None]
        np.clip(window, 0, m - 1, out=window)
        hits = (prev[window] <= p[act, None]) & valid
        cnt[act] += hits.sum(axis=1, dtype=np.int64)
        lo[act] += chunk
        undecided = (cnt[act] < limit) & (lo[act] < end[act])
        act = act[undecided]
        chunk = min(chunk * 2, _CHUNK_MAX)
        if steps >= _MAX_CHUNK_STEPS:
            break
    for qi in act.tolist():  # pathological windows: one exact slice each
        seg = prev[lo[qi] : end[qi]]
        cnt[qi] += int(np.count_nonzero(seg <= p[qi]))
    return cnt


def _nth_window_first(
    prev: np.ndarray, boundary: np.ndarray, end: np.ndarray, nth: int
) -> np.ndarray:
    """Position of the ``nth`` ``k in (boundary, end)`` with
    ``prev[k] <= boundary``, or -1 when fewer than ``nth`` exist."""
    nq = len(boundary)
    out = np.full(nq, -1, dtype=np.int64)
    if nq == 0 or len(prev) == 0:
        return out
    need = np.full(nq, nth, dtype=np.int64)
    lo = boundary + 1
    act = np.flatnonzero(lo < end)
    m = len(prev)
    chunk = _CHUNK
    while act.size:
        window = lo[act, None] + np.arange(chunk, dtype=np.int64)
        valid = window < end[act, None]
        np.clip(window, 0, m - 1, out=window)
        firsts = (prev[window] <= boundary[act, None]) & valid
        csum = np.cumsum(firsts, axis=1, dtype=np.int64)
        total = csum[:, -1]
        reached = total >= need[act]
        if reached.any():
            rows = np.flatnonzero(reached)
            hit_rows = act[rows]
            off = (csum[rows] >= need[hit_rows][:, None]).argmax(axis=1)
            out[hit_rows] = lo[hit_rows] + off
        need[act] -= total
        lo[act] += chunk
        act = act[~reached]
        act = act[lo[act] < end[act]]
        chunk = min(chunk * 2, _CHUNK_MAX)
    return out


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


@dataclass
class BatchLruResult:
    """Outcome of one :func:`batch_lru_replay` over an access stream."""

    hit: np.ndarray          # bool per op (queries included)
    wrote_back: np.ndarray | None = None  # bool per op; True at evicting ops


def _fullassoc_lru_replay(
    keys: np.ndarray, assoc: int, mutating: np.ndarray | None
) -> BatchLruResult:
    """Exact LRU replay of one fully-associative set via an OrderedDict.

    Wide single-set structures (the gem5 64-entry TLBs) defeat the gap
    shortcut — most accesses sit farther than ``assoc`` collapsed ops from
    their previous touch, pushing every decision into the chunked window
    scans.  A recency-ordered dict is O(1) per op with all the work in C,
    which beats the vectorised path outright on such streams.
    """
    n = len(keys)
    if n == 0:
        return BatchLruResult(np.zeros(0, dtype=bool), None)
    # Small-alphabet fast path: when the stream's distinct keys all fit in
    # the structure at once, nothing is ever evicted — presence reduces to
    # "was this key allocated before", with no LRU bookkeeping at all.
    order = _stable_key_order(keys)
    sk = keys[order]
    new_seg = np.empty(n, dtype=bool)
    new_seg[0] = True
    np.not_equal(sk[1:], sk[:-1], out=new_seg[1:])
    if int(np.count_nonzero(new_seg)) <= assoc:
        hit = np.empty(n, dtype=bool)
        if mutating is None:
            hit_sorted = np.ones(n, dtype=bool)
            hit_sorted[new_seg] = False
        else:
            # Hit iff an earlier op on the same key allocated it.  The
            # stable key sort keeps positions ordered inside a segment,
            # so the exclusive per-segment cumsum of mutate flags counts
            # prior allocations.
            m_sorted = mutating[order].astype(np.int64)
            excl = np.cumsum(m_sorted) - m_sorted
            starts = np.flatnonzero(new_seg)
            seg_len = np.diff(np.append(starts, n))
            hit_sorted = (excl - np.repeat(excl[starts], seg_len)) > 0
        hit[order] = hit_sorted
        return BatchLruResult(hit, None)
    # Collapse runs of identical adjacent keys: only a run's first op can
    # miss, and the run's net LRU effect is one touch (if any op in it
    # mutates).  Page streams are dominated by such runs, so the python
    # loop shrinks by the run-length factor.
    rep_mask = np.empty(n, dtype=bool)
    rep_mask[0] = True
    np.not_equal(keys[1:], keys[:-1], out=rep_mask[1:])
    rep_idx = np.flatnonzero(rep_mask)
    rep_keys = keys[rep_idx]
    if mutating is None:
        rep_mut = None
    else:
        # A run mutates iff any of its ops does.
        csm = np.concatenate([[0], np.cumsum(mutating, dtype=np.int64)])
        ends = np.append(rep_idx[1:], n)
        rep_mut = (csm[ends] - csm[rep_idx]) > 0
    od: OrderedDict[int, None] = OrderedDict()
    move = od.move_to_end
    pop = od.popitem
    rep_hit = np.zeros(len(rep_idx), dtype=bool)
    hits: list[int] = []
    if rep_mut is None:
        for i, k in enumerate(rep_keys.tolist()):
            if k in od:
                move(k)
                hits.append(i)
            else:
                od[k] = None
                if len(od) > assoc:
                    pop(last=False)
    else:
        for i, (k, mut) in enumerate(zip(rep_keys.tolist(), rep_mut.tolist())):
            if k in od:
                if mut:
                    move(k)
                hits.append(i)
            elif mut:
                od[k] = None
                if len(od) > assoc:
                    pop(last=False)
    rep_hit[hits] = True
    if len(rep_idx) == n:
        return BatchLruResult(rep_hit, None)
    rid = np.cumsum(rep_mask, dtype=np.int64) - 1
    hit = rep_hit[rid]
    if mutating is not None:
        # Later ops in a run hit once any earlier op in the run allocated.
        start = rep_idx[rid]
        hit |= (csm[np.arange(n)] - csm[start]) > 0
    else:
        hit[~rep_mask] = True
    return BatchLruResult(hit, None)


def batch_lru_replay(
    keys: np.ndarray,
    n_sets: int,
    assoc: int,
    mutating: np.ndarray | None = None,
    is_write: np.ndarray | None = None,
    track_writebacks: bool = False,
) -> BatchLruResult:
    """Replay a pure-LRU set-associative structure over a whole stream.

    Args:
        keys: Line/page identifiers in global time order; the set of key
            ``k`` is ``k % n_sets``.
        n_sets / assoc: Geometry (matching the scalar models' mapping).
        mutating: Per-op mask; False rows are non-mutating presence probes
            (or non-allocating streamed stores) that read the state without
            touching recency.  Default: every op mutates.
        is_write: Needed with ``track_writebacks`` to resolve dirty
            residencies (a residency is dirty when any mutating access in
            it is a write).
        track_writebacks: Also compute, per op, whether the op's
            allocation evicted a dirty victim.

    Returns:
        Hit flags (and writeback flags) bit-identical to driving the
        scalar :class:`SetAssociativeCache`/``Tlb`` models op by op,
        provided every mutating access allocates on miss and inserts at
        MRU.
    """
    n = len(keys)
    hit = np.zeros(n, dtype=bool)
    wb = np.zeros(n, dtype=bool) if track_writebacks else None
    if track_writebacks and is_write is None:
        raise ValueError("track_writebacks requires is_write")
    if n == 0:
        return BatchLruResult(hit, wb)
    keys = np.asarray(keys, dtype=np.int64)

    if n_sets == 1 and assoc > 2 and not track_writebacks:
        mut = None if mutating is None else np.asarray(mutating, bool)
        return _fullassoc_lru_replay(keys, assoc, mut)

    # Partition by set: each set's ops stay contiguous and in time order,
    # so every same-key window below lies inside one set's span.
    if n_sets > 1:
        order = _stable_set_order(keys % n_sets, n_sets)
        s_keys = keys[order]
    else:
        order = None
        s_keys = keys

    # Mutation subsequence (probes drop out of the state evolution).
    if mutating is None:
        mut_pos = None
        mut_keys = s_keys
    else:
        s_mut = mutating[order] if order is not None else np.asarray(mutating, bool)
        mut_pos = np.flatnonzero(s_mut)
        mut_keys = s_keys[mut_pos]
    m_all = len(mut_keys)

    # Collapse adjacent same-key mutations: repeats are guaranteed hits.
    rep = np.empty(m_all, dtype=bool)
    if m_all:
        rep[0] = True
        np.not_equal(mut_keys[1:], mut_keys[:-1], out=rep[1:])
    starts = np.flatnonzero(rep)
    c_keys = mut_keys[starts]
    M = len(c_keys)

    # Previous collapsed access of the same key, via one stable key sort.
    ksort = _stable_key_order(c_keys)
    kk = c_keys[ksort]
    same = kk[1:] == kk[:-1] if M else np.empty(0, dtype=bool)
    c_prev = np.full(M, -1, dtype=np.int64)
    if M:
        c_prev[ksort[1:][same]] = ksort[:-1][same]

    # Gap shortcut plus exact residue.
    ordinal = np.arange(M, dtype=np.int64)
    gap = ordinal - c_prev - 1
    have_prev = c_prev >= 0
    c_hit = have_prev & (gap < assoc)
    if assoc > 2:
        res = np.flatnonzero(have_prev & (gap >= assoc))
        if res.size:
            cnt = _count_window_firsts(c_prev, c_prev[res], res, assoc)
            c_hit[res] = cnt < assoc

    # Scatter back: collapsed results to survivors, True to repeats.
    mut_hit = np.ones(m_all, dtype=bool)
    mut_hit[starts] = c_hit

    if mut_pos is None:
        s_hit = mut_hit
    else:
        s_hit = np.zeros(n, dtype=bool)
        s_hit[mut_pos] = mut_hit
        qry_pos = np.flatnonzero(~s_mut)
        if qry_pos.size:
            # Collapsed-mutation count before each layout position.
            surv = np.zeros(n, dtype=np.int64)
            surv[mut_pos[starts]] = 1
            cm = np.cumsum(surv) - surv
            r = cm[qry_pos]
            q_keys = s_keys[qry_pos]
            # Last collapsed mutation of the same key before the probe.
            composite = kk * np.int64(M + 1) + ksort
            loc = np.searchsorted(composite, q_keys * np.int64(M + 1) + r,
                                  side="left") - 1
            valid = loc >= 0
            qp = np.full(len(qry_pos), -1, dtype=np.int64)
            if M:
                safe = np.maximum(loc, 0)
                valid &= kk[safe] == q_keys
                qp[valid] = ksort[safe][valid]
            vi = np.flatnonzero(valid)
            if vi.size:
                pj = qp[vi]
                rj = r[vi]
                gq = rj - pj - 1
                qh = gq < assoc
                if assoc > 2:
                    resq = np.flatnonzero(~qh)
                    if resq.size:
                        cnt = _count_window_firsts(
                            c_prev, pj[resq], rj[resq], assoc
                        )
                        qh[resq] = cnt < assoc
                s_hit[qry_pos[vi]] = qh

    if order is None:
        hit = s_hit.copy() if s_hit is mut_hit else s_hit
    else:
        hit[order] = s_hit

    if not track_writebacks:
        return BatchLruResult(hit, wb)
    if M == 0:
        return BatchLruResult(hit, wb)

    # Dirty flag per collapsed run (repeats fold their writes in).
    sw = np.asarray(is_write, bool)
    w_lay = sw[order] if order is not None else sw
    w_mut = w_lay[mut_pos] if mut_pos is not None else w_lay
    cw = np.logical_or.reduceat(w_mut, starts)

    # Residency chains in key-sorted order: a chain runs while the next
    # same-key access still hits; a miss re-allocates and opens a new one.
    k_hit = c_hit[ksort]
    chain_start = np.empty(M, dtype=bool)
    chain_start[0] = True
    chain_start[1:] = ~same | ~k_hit[1:]
    cs_idx = np.flatnonzero(chain_start)
    chain_dirty = np.logical_or.reduceat(cw[ksort], cs_idx)
    chain_end = np.append(cs_idx[1:], M)
    j_last = ksort[chain_end - 1]
    cand = np.flatnonzero(chain_dirty)
    if cand.size == 0:
        return BatchLruResult(hit, wb)

    # Per-collapsed-op set span upper bound, to clamp the eviction scan.
    if n_sets > 1:
        c_sets = c_keys % n_sets
        bnd = np.flatnonzero(c_sets[1:] != c_sets[:-1]) + 1
        uppers = np.append(bnd, M)
        lowers = np.insert(bnd, 0, 0)
        set_end = np.repeat(uppers, uppers - lowers)
    else:
        set_end = np.full(M, M, dtype=np.int64)

    jl = j_last[cand]
    evict_at = _nth_window_first(c_prev, jl, set_end[jl], assoc)
    found = evict_at >= 0
    if found.any():
        ev = evict_at[found]
        orig = starts[ev] if mut_pos is None else mut_pos[starts[ev]]
        wb[order[orig] if order is not None else orig] = True
    return BatchLruResult(hit, wb)


@dataclass
class BatchL1dResult:
    """Per-op outcome of :func:`batch_l1d_replay` (ops after the warm prefix)."""

    hit: np.ndarray
    streamed: np.ndarray     # write misses that bypassed allocation
    wrote_back: np.ndarray


def batch_l1d_replay(
    lines: np.ndarray,
    is_write: np.ndarray,
    n_warm: int,
    geometry: SetAssociativeCache,
) -> BatchL1dResult:
    """Resolve an L1D access stream, streaming stores included.

    ``lines``/``is_write`` cover the whole stream in time order; the first
    ``n_warm`` ops are counter-silent warm fills (``is_write`` False there)
    and the result covers the ops after them.  ``geometry`` supplies
    ``n_sets``/``assoc``/``write_streaming``; it is *not* mutated.

    A non-streaming L1D is pure LRU and goes through
    :func:`batch_lru_replay`.  A write-streaming one is not: whether a store
    miss allocates depends on detector state, which earlier store misses
    trained, which depend on earlier allocation decisions.  It is resolved
    by one exact program-order walk over a fresh cache of the same
    geometry: :meth:`SetAssociativeCache.access` replayed inline over plain
    lists (its counters are not needed), with the cache's own
    ``_stream_check`` consulted on store misses only.
    """
    lines = np.asarray(lines, dtype=np.int64)
    is_write = np.asarray(is_write, dtype=bool)
    n = len(lines) - n_warm
    if not geometry.write_streaming:
        res = batch_lru_replay(lines, geometry.n_sets, geometry.assoc,
                               is_write=is_write, track_writebacks=True)
        return BatchL1dResult(res.hit[n_warm:], np.zeros(n, bool),
                              res.wrote_back[n_warm:])

    cache = SetAssociativeCache(
        geometry.name, geometry.size_bytes, geometry.line_bytes,
        geometry.assoc, write_streaming=True,
    )
    cache.warm_fill_many(lines[:n_warm])
    n_sets, assoc = cache.n_sets, cache.assoc
    sets, dirty = cache._sets, cache._dirty
    stream_check = cache._stream_check
    misses: list[int] = []
    streamed: list[int] = []
    wrote_back: list[int] = []
    for i, (line, write) in enumerate(
        zip(lines[n_warm:].tolist(), is_write[n_warm:].tolist())
    ):
        s = line % n_sets
        tag = line // n_sets
        ways = sets[s]
        if tag in ways:
            if ways[0] != tag:
                ways.remove(tag)
                ways.insert(0, tag)
            if write:
                dirty[s].add(tag)
            continue
        misses.append(i)
        if write and stream_check(line):
            streamed.append(i)  # written around the cache: no allocation
            continue
        ways.insert(0, tag)
        if len(ways) > assoc:
            victim = ways.pop()
            if victim in dirty[s]:
                dirty[s].discard(victim)
                wrote_back.append(i)
        if write:
            dirty[s].add(tag)
    hit = np.ones(n, dtype=bool)
    hit[misses] = False
    streamed_arr = np.zeros(n, dtype=bool)
    streamed_arr[streamed] = True
    wb = np.zeros(n, dtype=bool)
    wb[wrote_back] = True
    return BatchL1dResult(hit, streamed_arr, wb)


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
