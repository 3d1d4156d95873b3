"""The columnar engine's merged L2 walk, compiled from C.

The events that reach the shared L2, the L2 TLBs or the stride
prefetcher are replayed in exact program order: a 16-way LRU with dirty
write-backs, and a prefetcher trained on the previous miss, cannot be
batched, and in Python the LRU list shuffling is the cost.  The C below
replays the silent warm fills and then the walk, reproducing the scalar
models of :mod:`repro.uarch` operation for operation
(``SetAssociativeCache.fill``/``access``/``prefetch``,
``StridePrefetcher.train``, ``Tlb.fill``/``lookup``) with every counter
they bump; a unified L2 TLB is one structure with one ``TlbStats``.  Set
and tag use Python's floor semantics (a prefetch target can be
negative), doubles accumulate in the scalar order, and the build has
``-ffp-contract=off`` and no ``-ffast-math``, so the results are
bit-identical.

The library is built with ``cc`` on first need, named by the hash of the
source, the flags and the platform, and published into the per-user
cache directory by an atomic rename, so racing processes are safe.  When
that directory is not writable it is built in a temporary directory,
loaded and deleted.  ``ctypes`` is imported only to load it.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile

import numpy as np

from repro.obs.log import get_logger
from repro.uarch.cache import CacheStats
from repro.uarch.tlb import TlbStats
from repro.workloads.trace import CACHE_LINE_BYTES, PAGE_BYTES

logger = get_logger(__name__)

SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Event kinds, numbered as in repro.sim.columnar. */
enum {
    EV_L1D_MISS, EV_DTLB_MISS, EV_L1D_WB, EV_L1I_MISS,
    EV_L1D_STREAM, EV_WP_TLB, EV_WP_L1I, EV_ITLB_MISS
};

/* An LRU set-associative array: each set's tags MRU-first, with a dirty
   flag per way (the scalar model's per-set dirty set never holds a tag
   that is not resident). */
typedef struct {
    int64_t n_sets, assoc;
    int64_t *tags;
    uint8_t *dirty;
    int64_t *count;
} lru_t;

static int lru_init(lru_t *c, int64_t n_sets, int64_t assoc)
{
    c->n_sets = n_sets;
    c->assoc = assoc;
    c->tags = malloc(sizeof(int64_t) * (size_t)(n_sets * assoc));
    c->dirty = calloc((size_t)(n_sets * assoc), 1);
    c->count = calloc((size_t)n_sets, sizeof(int64_t));
    return c->tags != NULL && c->dirty != NULL && c->count != NULL;
}

static void lru_free(lru_t *c)
{
    free(c->tags);
    free(c->dirty);
    free(c->count);
}

/* Python's floor division and modulo by a positive n. */
static void split(int64_t key, int64_t n, int64_t *set, int64_t *tag)
{
    int64_t q = key / n, r = key % n;
    if (r < 0) {
        r += n;
        q -= 1;
    }
    *set = r;
    *tag = q;
}

/* The way holding tag in set, or -1. */
static int64_t lru_find(const lru_t *c, int64_t set, int64_t tag)
{
    const int64_t *ways = c->tags + set * c->assoc;
    for (int64_t i = 0; i < c->count[set]; i++)
        if (ways[i] == tag)
            return i;
    return -1;
}

/* Move way i of set to the MRU position. */
static void lru_touch(lru_t *c, int64_t set, int64_t i)
{
    int64_t *ways = c->tags + set * c->assoc;
    uint8_t *dirty = c->dirty + set * c->assoc;
    int64_t tag = ways[i];
    uint8_t d = dirty[i];
    memmove(ways + 1, ways, sizeof(int64_t) * (size_t)i);
    memmove(dirty + 1, dirty, (size_t)i);
    ways[0] = tag;
    dirty[0] = d;
}

/* Insert tag at MRU.  Returns 1 when the LRU way was evicted, with its
   dirty flag in *victim_dirty. */
static int lru_insert(lru_t *c, int64_t set, int64_t tag, uint8_t d,
                      int *victim_dirty)
{
    int64_t *ways = c->tags + set * c->assoc;
    uint8_t *dirty = c->dirty + set * c->assoc;
    int64_t n = c->count[set];
    int evicted = n == c->assoc;
    if (evicted) {
        *victim_dirty = dirty[n - 1];
        n -= 1;
    } else {
        c->count[set] = n + 1;
    }
    memmove(ways + 1, ways, sizeof(int64_t) * (size_t)n);
    memmove(dirty + 1, dirty, (size_t)n);
    ways[0] = tag;
    dirty[0] = d;
    return evicted;
}

/* Counter-silent fill (SetAssociativeCache.fill, Tlb.fill). */
static void lru_fill(lru_t *c, int64_t key)
{
    int64_t set, tag, way;
    int victim_dirty = 0;
    split(key, c->n_sets, &set, &tag);
    way = lru_find(c, set, tag);
    if (way >= 0)
        lru_touch(c, set, way);
    else
        lru_insert(c, set, tag, 0, &victim_dirty);
}

/* CacheStats, in the order of the counters output. */
typedef struct {
    int64_t read_accesses, write_accesses, read_misses, write_misses,
        write_refills, writebacks, replacements, prefetches_issued;
} cache_stats_t;

/* SetAssociativeCache._fill: returns 1 when a dirty victim was written
   back. */
static int cache_allocate(lru_t *c, cache_stats_t *st, int64_t set,
                          int64_t tag, uint8_t d)
{
    int victim_dirty = 0;
    if (!lru_insert(c, set, tag, d, &victim_dirty))
        return 0;
    st->replacements += 1;
    if (victim_dirty)
        st->writebacks += 1;
    return victim_dirty;
}

/* SetAssociativeCache.access without write streaming: returns the hit
   flag, the write-back flag in *wb. */
static int cache_access(lru_t *c, cache_stats_t *st, int64_t line,
                        int is_write, int *wb)
{
    int64_t set, tag, way;
    split(line, c->n_sets, &set, &tag);
    if (is_write)
        st->write_accesses += 1;
    else
        st->read_accesses += 1;
    way = lru_find(c, set, tag);
    if (way >= 0) {
        lru_touch(c, set, way);
        if (is_write)
            c->dirty[set * c->assoc] = 1;
        *wb = 0;
        return 1;
    }
    if (is_write) {
        st->write_misses += 1;
        st->write_refills += 1;
    } else {
        st->read_misses += 1;
    }
    *wb = cache_allocate(c, st, set, tag, (uint8_t)is_write);
    return 0;
}

/* SetAssociativeCache.prefetch: a resident line is left untouched. */
static void cache_prefetch(lru_t *c, cache_stats_t *st, int64_t line)
{
    int64_t set, tag;
    split(line, c->n_sets, &set, &tag);
    st->prefetches_issued += 1;
    if (lru_find(c, set, tag) < 0)
        cache_allocate(c, st, set, tag, 0);
}

typedef struct {
    int64_t degree, last_line, last_delta, confidence;
} prefetcher_t;

/* StridePrefetcher.train. */
static void prefetch_train(prefetcher_t *p, lru_t *c, cache_stats_t *st,
                           int64_t line)
{
    int64_t delta;
    if (p->degree == 0)
        return;
    delta = line - p->last_line;
    if (delta == p->last_delta && delta != 0) {
        p->confidence = p->confidence + 1 < 4 ? p->confidence + 1 : 4;
    } else {
        p->confidence = 0;
        p->last_delta = delta;
    }
    p->last_line = line;
    if (p->confidence >= 2)
        for (int64_t i = 1; i <= p->degree; i++)
            cache_prefetch(c, st, line + p->last_delta * i);
}

/* TlbStats: lookups, hits, misses. */
typedef struct {
    int64_t lookups, hits, misses;
} tlb_stats_t;

/* Tlb.lookup: fills on a miss. */
static int tlb_lookup(lru_t *t, tlb_stats_t *st, int64_t page)
{
    int64_t set, tag, way;
    int victim_dirty = 0;
    split(page, t->n_sets, &set, &tag);
    st->lookups += 1;
    way = lru_find(t, set, tag);
    if (way >= 0) {
        lru_touch(t, set, way);
        st->hits += 1;
        return 1;
    }
    st->misses += 1;
    lru_insert(t, set, tag, 0, &victim_dirty);
    return 0;
}

/* The warm fills and the merged walk of one replay.

   sizes:    n_events, n_code_lines, n_code_pages, n_l2_warm, n_data_pages
   geometry: l2 n_sets, l2 assoc, prefetch degree, L2 ITLB n_sets, assoc,
             L2 DTLB n_sets, assoc, unified L2 TLB, lines per page
   machine:  L2 latency, L2 TLB latency, walk cycles, mem_overlap,
             store_miss_exposure, dram_overlap
   sums:     stall_icache, stall_itlb, stall_dcache, stall_dtlb,
             dram_reads, dram_writes, dram_weight
   counters: walks_inst, walks_data, the 8 cache_stats_t counters, the
             L2 ITLB's and the L2 DTLB's 3 tlb_stats_t counters

   Returns 0, or -1 when the state cannot be allocated. */
int l2_walk(const int64_t *sizes, const int8_t *kind, const int64_t *arg0,
            const int64_t *arg1, const int64_t *code_lines,
            const int64_t *code_pages, const int64_t *l2_warm,
            const int64_t *data_pages, const int64_t *geometry,
            const double *machine, double *sums, int64_t *counters)
{
    const double l2_lat = machine[0], l2tlb_lat = machine[1],
                 walk_cycles = machine[2], mem_overlap = machine[3],
                 store_exposure = machine[4];
    const double dram_exposure = 1.0 - machine[5],
                 icache_cost = l2_lat * 0.8,
                 dtlb_l2_cost = l2tlb_lat * (1.0 - mem_overlap),
                 dtlb_walk_cost = walk_cycles * (1.0 - 0.5 * mem_overlap),
                 stream_cost = l2_lat * 0.05,
                 write_cost = l2_lat * store_exposure,
                 read_cost = l2_lat * (1.0 - mem_overlap),
                 write_weight = store_exposure * 0.5,
                 wp_walk_cost = walk_cycles * 0.5;
    const int unified = geometry[7] != 0;
    const int64_t lines_per_page = geometry[8];
    double stall_icache = 0.0, stall_itlb = 0.0, stall_dcache = 0.0,
           stall_dtlb = 0.0, dram_reads = 0.0, dram_writes = 0.0,
           dram_weight = 0.0;
    int64_t walks_inst = 0, walks_data = 0;
    cache_stats_t l2_stats;
    tlb_stats_t tlb_stats[2];
    prefetcher_t pf = {geometry[2], -1, 0, 0};
    lru_t l2, tlbs[2];
    lru_t *itlb = &tlbs[0], *dtlb = unified ? &tlbs[0] : &tlbs[1];
    tlb_stats_t *itlb_stats = &tlb_stats[0],
                *dtlb_stats = unified ? &tlb_stats[0] : &tlb_stats[1];
    int ok, hit, wb;

    memset(&l2_stats, 0, sizeof l2_stats);
    memset(tlb_stats, 0, sizeof tlb_stats);
    memset(tlbs, 0, sizeof tlbs);
    ok = lru_init(&l2, geometry[0], geometry[1]);
    ok = lru_init(&tlbs[0], geometry[3], geometry[4]) && ok;
    if (!unified)
        ok = lru_init(&tlbs[1], geometry[5], geometry[6]) && ok;
    if (!ok) {
        lru_free(&l2);
        lru_free(&tlbs[0]);
        lru_free(&tlbs[1]);
        return -1;
    }

    for (int64_t i = 0; i < sizes[1]; i++)
        lru_fill(&l2, code_lines[i]);
    for (int64_t i = 0; i < sizes[2]; i++)
        lru_fill(itlb, code_pages[i]);
    for (int64_t i = 0; i < sizes[3]; i++)
        lru_fill(&l2, l2_warm[i]);
    for (int64_t i = 0; i < sizes[4]; i++)
        lru_fill(dtlb, data_pages[i]);

    for (int64_t e = 0; e < sizes[0]; e++) {
        const int64_t a0 = arg0[e], a1 = arg1[e];
        switch (kind[e]) {
        case EV_L1D_MISS:
            stall_dcache += a1 ? write_cost : read_cost;
            hit = cache_access(&l2, &l2_stats, a0, a1 != 0, &wb);
            if (wb)
                dram_writes += 1;
            if (!hit) {
                dram_reads += 1;
                dram_weight += a1 ? write_weight : dram_exposure;
                prefetch_train(&pf, &l2, &l2_stats, a0);
            }
            break;
        case EV_DTLB_MISS:
            stall_dtlb += dtlb_l2_cost;
            if (!tlb_lookup(dtlb, dtlb_stats, a0)) {
                walks_data += 1;
                stall_dtlb += dtlb_walk_cost;
                if (!cache_access(&l2, &l2_stats, a0 * lines_per_page, 0, &wb)) {
                    dram_reads += 1;
                    dram_weight += 0.4;
                }
            }
            break;
        case EV_L1D_WB:
            cache_access(&l2, &l2_stats, a0 ^ 0x1, 1, &wb);
            if (wb)
                dram_writes += 1;
            break;
        case EV_L1I_MISS:
            stall_icache += icache_cost;
            hit = cache_access(&l2, &l2_stats, a0, 0, &wb);
            if (wb)
                dram_writes += 1;
            if (!hit) {
                dram_reads += 1;
                dram_weight += 0.9;
                prefetch_train(&pf, &l2, &l2_stats, a0);
            }
            break;
        case EV_L1D_STREAM:
            stall_dcache += stream_cost;
            hit = cache_access(&l2, &l2_stats, a0, 1, &wb);
            if (wb)
                dram_writes += 1;
            if (!hit) {
                dram_writes += 1;
                dram_weight += 0.12;
            }
            break;
        case EV_WP_TLB:
            stall_itlb += l2tlb_lat;
            if (!tlb_lookup(itlb, itlb_stats, a0))
                stall_itlb += wp_walk_cost;
            break;
        case EV_WP_L1I:
            if (!cache_access(&l2, &l2_stats, a0, 0, &wb))
                dram_reads += 1;
            break;
        default: /* EV_ITLB_MISS */
            stall_itlb += l2tlb_lat;
            if (!tlb_lookup(itlb, itlb_stats, a0)) {
                walks_inst += 1;
                stall_itlb += walk_cycles;
                if (!cache_access(&l2, &l2_stats, a0 * lines_per_page, 0, &wb)) {
                    dram_reads += 1;
                    dram_weight += 0.5;
                }
            }
            break;
        }
    }

    sums[0] = stall_icache;
    sums[1] = stall_itlb;
    sums[2] = stall_dcache;
    sums[3] = stall_dtlb;
    sums[4] = dram_reads;
    sums[5] = dram_writes;
    sums[6] = dram_weight;
    counters[0] = walks_inst;
    counters[1] = walks_data;
    memcpy(counters + 2, &l2_stats, sizeof l2_stats);
    memcpy(counters + 10, itlb_stats, sizeof *itlb_stats);
    memcpy(counters + 13, dtlb_stats, sizeof *dtlb_stats);
    lru_free(&l2);
    lru_free(&tlbs[0]);
    lru_free(&tlbs[1]);
    return 0;
}
"""

#: No contraction into fused multiply-adds and no fast math, so every
#: double rounds exactly as in the scalar engine.
FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC", "-ffp-contract=off")

#: The bound ``l2_walk`` entry point, loaded once per process.
_KERNEL = None


class KernelBuildError(RuntimeError):
    """The C kernel could not be compiled."""


def library_name() -> str:
    """The library's file name: a hash of the source, flags and platform."""
    key = "\0".join((SOURCE, *FLAGS, sysconfig.get_platform()))
    return f"l2walk-{hashlib.sha256(key.encode()).hexdigest()[:24]}.so"


def _build(path: str) -> None:
    """Compile :data:`SOURCE`, then rename the library to ``path``."""
    compiler = shutil.which("cc")
    if compiler is None:
        raise KernelBuildError("no C compiler (cc) on PATH")
    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as tmp:
        built = os.path.join(tmp, "l2walk.so")
        proc = subprocess.run(
            [compiler, *FLAGS, "-o", built, "-x", "c", "-"],
            input=SOURCE, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise KernelBuildError(
                f"cc exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        os.replace(built, path)


def _load():
    """Build the library unless cached, load it and bind ``l2_walk``."""
    import ctypes

    directory = os.path.join(
        os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "repro"
    )
    try:
        os.makedirs(directory, exist_ok=True)
        writable = os.access(directory, os.W_OK | os.X_OK)
    except OSError as exc:
        logger.info("kernel cache %s unusable: %s", directory, exc)
        writable = False
    if writable:
        path = os.path.join(directory, library_name())
        if not os.path.exists(path):
            _build(path)
        lib = ctypes.CDLL(path)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, library_name())
            _build(path)
            lib = ctypes.CDLL(path)
    kernel = lib.l2_walk
    kernel.restype = ctypes.c_int
    kernel.argtypes = [ctypes.c_void_p] * 12
    return kernel


def l2_walk(merged, machine, state, warm):
    """One replay's warm fills and merged walk (the columnar ``_l2_walk``).

    ``merged`` is the ``(kind, arg0, arg1)`` event stream in program
    order and ``warm`` the ``(code_lines, code_pages, l2_warm,
    data_pages)`` fill sequences.  ``state``'s fresh L2-side structures
    give the geometry and are not touched.  Returns ``(walk, l2_stats,
    l2_itlb_stats, l2_dtlb_stats)``; a unified L2 TLB's one ``TlbStats``
    is returned twice.
    """
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _load()
    l2, l2_itlb, l2_dtlb = state.l2, state.tlb.l2_itlb, state.tlb.l2_dtlb
    unified = l2_itlb is l2_dtlb
    arrays = [
        np.ascontiguousarray(merged[0], dtype=np.int8),
        *(np.ascontiguousarray(a, dtype=np.int64) for a in (*merged[1:], *warm)),
        np.array([
            l2.n_sets, l2.assoc, machine.l2.prefetch_degree, l2_itlb.n_sets,
            l2_itlb.assoc, l2_dtlb.n_sets, l2_dtlb.assoc, unified,
            PAGE_BYTES // CACHE_LINE_BYTES,
        ], dtype=np.int64),
        np.array([
            machine.l2.latency, machine.tlb.l2_latency, machine.tlb.walk_cycles,
            machine.mem_overlap, machine.store_miss_exposure,
            machine.dram_overlap,
        ], dtype=np.float64),
    ]
    sizes = np.array([len(a) for a in arrays[:1] + arrays[3:7]], dtype=np.int64)
    sums = np.zeros(7, dtype=np.float64)
    counters = np.zeros(16, dtype=np.int64)
    if _KERNEL(*(a.ctypes.data for a in (sizes, *arrays, sums, counters))):
        raise MemoryError("the L2 walk could not allocate its state")
    counts = counters.tolist()
    l2_itlb_stats = TlbStats(*counts[10:13])
    return (
        (*sums.tolist(), counts[0], counts[1]),
        CacheStats(*counts[2:10]),
        l2_itlb_stats,
        l2_itlb_stats if unified else TlbStats(*counts[13:16]),
    )
