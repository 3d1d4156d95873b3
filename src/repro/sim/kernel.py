"""The columnar engine's replay kernels, compiled from C.

Two entry points share one source, one library and one load:

* ``lru_replay`` replays one L1 structure (the L1I, the L1D, the ITLB or
  the DTLB) op by op: an exact LRU with optional dirty write-backs,
  non-mutating probes, and the Cortex-A15's streaming-store detector.  It
  reproduces ``SetAssociativeCache.access``/``contains`` and
  ``Tlb.lookup``/``contains`` hit for hit.
* ``l2_walk`` replays, in exact program order, the events that reach the
  shared L2, the L2 TLBs or the stride prefetcher, after the silent warm
  fills: a 16-way LRU with dirty write-backs, and a prefetcher trained on
  the previous miss, cannot be batched.  It reproduces the scalar models
  of :mod:`repro.uarch` operation for operation
  (``SetAssociativeCache.fill``/``access``/``prefetch``,
  ``StridePrefetcher.train``, ``Tlb.fill``/``lookup``) with every counter
  they bump; a unified L2 TLB is one structure with one ``TlbStats``.

Set and tag use Python's floor semantics (a prefetch target can be
negative), doubles accumulate in the scalar order, and the build has
``-ffp-contract=off`` and no ``-ffast-math``, so the results are
bit-identical.

The library is built with ``cc`` on first need, named by the hash of the
source, the flags and the platform, and published into the per-user
cache directory by an atomic rename, so racing processes are safe; a
publish removes the libraries of other sources from that directory.
When that directory is not writable it is built in a temporary
directory, loaded and deleted.  ``ctypes`` is imported only to load it.
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
from repro.uarch.cache import CacheStats, lru_geometry
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

/* The A15's streaming-store trackers (SetAssociativeCache._stream_check):
   (last line, run length) per concurrent store stream, the oldest slot
   replaced once all are in use. */
enum { N_STREAM_TRACKERS = 8, STREAM_TRAIN = 4 };

typedef struct {
    int64_t last[N_STREAM_TRACKERS], run[N_STREAM_TRACKERS];
    int used, victim;
} streams_t;

/* Train the trackers on a store miss: returns 1 when it streams. */
static int stream_check(streams_t *s, int64_t line)
{
    int i;
    for (i = 0; i < s->used; i++) {
        if (line == s->last[i] + 1) {
            s->last[i] = line;
            s->run[i] += 1;
            return s->run[i] >= STREAM_TRAIN;
        }
        if (line == s->last[i])
            return s->run[i] >= STREAM_TRAIN;
    }
    if (s->used < N_STREAM_TRACKERS) {
        i = s->used++;
    } else {
        i = s->victim;
        s->victim = (s->victim + 1) % N_STREAM_TRACKERS;
    }
    s->last[i] = line;
    s->run[i] = 0;
    return 0;
}

/* Op flags and outcome bits of lru_replay. */
enum { OP_MUTATE = 1, OP_WRITE = 2 };
enum { OUT_HIT = 1, OUT_STREAMED = 2, OUT_WROTE_BACK = 4 };

/* One L1 cache or TLB replayed op by op from empty.  A mutating op is
   SetAssociativeCache.access (Tlb.lookup on a read); any other op is a
   non-mutating probe (contains).  flags NULL makes every op a mutating
   read.  With streaming, a store miss trains the trackers and a streamed
   store does not allocate.  Writes one OUT_* mask per op into out.
   Returns 0, or -1 when the state cannot be allocated. */
int lru_replay(int64_t n, const int64_t *keys, const uint8_t *flags,
               int64_t n_sets, int64_t assoc, int64_t streaming,
               uint8_t *out)
{
    lru_t c;
    streams_t streams;
    int64_t set, tag, way;
    int victim_dirty;

    memset(&streams, 0, sizeof streams);
    if (!lru_init(&c, n_sets, assoc)) {
        lru_free(&c);
        return -1;
    }
    for (int64_t i = 0; i < n; i++) {
        const uint8_t op = flags ? flags[i] : OP_MUTATE;
        split(keys[i], n_sets, &set, &tag);
        way = lru_find(&c, set, tag);
        if (way >= 0) {
            if (op & OP_MUTATE) {
                lru_touch(&c, set, way);
                if (op & OP_WRITE)
                    c.dirty[set * assoc] = 1;
            }
            out[i] = OUT_HIT;
        } else if (!(op & OP_MUTATE)) {
            out[i] = 0;
        } else if ((op & OP_WRITE) && streaming
                   && stream_check(&streams, keys[i])) {
            out[i] = OUT_STREAMED;
        } else {
            victim_dirty = 0;
            lru_insert(&c, set, tag, (uint8_t)((op & OP_WRITE) != 0),
                       &victim_dirty);
            out[i] = victim_dirty ? OUT_WROTE_BACK : 0;
        }
    }
    lru_free(&c);
    return 0;
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

#: File-name prefixes of this module's libraries, past ones included.
_PREFIXES = ("kernel-", "l2walk-")

#: The loaded library, once per process.
_KERNEL = None


class KernelBuildError(RuntimeError):
    """The C kernel could not be compiled."""


def library_name() -> str:
    """The library's file name: a hash of the source, flags and platform."""
    key = "\0".join((SOURCE, *FLAGS, sysconfig.get_platform()))
    return f"kernel-{hashlib.sha256(key.encode()).hexdigest()[:24]}.so"


def _build(path: str) -> None:
    """Compile :data:`SOURCE`, then rename the library to ``path``."""
    compiler = shutil.which("cc")
    if compiler is None:
        raise KernelBuildError("no C compiler (cc) on PATH")
    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as tmp:
        built = os.path.join(tmp, "kernel.so")
        proc = subprocess.run(
            [compiler, *FLAGS, "-o", built, "-x", "c", "-"],
            input=SOURCE, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise KernelBuildError(
                f"cc exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        os.replace(built, path)


def _forget_stale(directory: str, keep: str) -> None:
    """Remove the libraries of other sources or flags from ``directory``.

    A process that has one loaded keeps its mapping; a peer that was about
    to load one rebuilds it (see :func:`_load`).
    """
    for name in os.listdir(directory):
        if name != keep and name.endswith(".so") and name.startswith(_PREFIXES):
            try:
                os.remove(os.path.join(directory, name))
            except OSError as exc:
                logger.info("stale kernel %s not removed: %s", name, exc)


def _load():
    """Build the library unless cached, load it and declare its entry points."""
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
        name = library_name()
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            _build(path)
            _forget_stale(directory, name)
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            if os.path.exists(path):
                raise
            # A peer publishing another source removed it: rebuild once.
            _build(path)
            lib = ctypes.CDLL(path)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, library_name())
            _build(path)
            lib = ctypes.CDLL(path)
    lib.l2_walk.restype = lib.lru_replay.restype = ctypes.c_int
    lib.l2_walk.argtypes = [ctypes.c_void_p] * 12
    lib.lru_replay.argtypes = [
        ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
    ]
    return lib


def _library():
    """The library, loaded by the first call in the process."""
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _load()
    return _KERNEL


#: ``lru_replay`` op flags: the op mutates (else it is a probe), the op
#: is a write.
OP_MUTATE, OP_WRITE = 1, 2
#: ``lru_replay`` outcome bits.
OUT_HIT, OUT_STREAMED, OUT_WROTE_BACK = 1, 2, 4


def lru_replay(keys, n_sets, assoc, flags=None, streaming=False) -> np.ndarray:
    """One L1 structure replayed op by op from empty (a columnar L1 pass).

    ``keys`` are line or page identifiers in program order, and ``flags``
    one ``uint8`` of ``OP_*`` bits per op (None: every op a mutating
    read).  ``streaming`` enables the A15's streaming-store detector.
    Returns one ``uint8`` of ``OUT_*`` bits per op.
    """
    if n_sets < 1 or assoc < 1:
        raise ValueError("an LRU array needs at least one set of one way")
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if flags is not None:
        flags = np.ascontiguousarray(flags, dtype=np.uint8)
        if len(flags) != len(keys):
            raise ValueError("one flag per key")
    out = np.empty(len(keys), dtype=np.uint8)
    if _library().lru_replay(
        len(keys), keys.ctypes.data, None if flags is None else flags.ctypes.data,
        n_sets, assoc, int(streaming), out.ctypes.data,
    ):
        raise MemoryError("the LRU replay could not allocate its state")
    return out


def l2_walk(merged, machine, warm):
    """One replay's warm fills and merged walk (the columnar ``_l2_walk``).

    ``merged`` is the ``(kind, arg0, arg1)`` event stream in program
    order and ``warm`` the ``(code_lines, code_pages, l2_warm,
    data_pages)`` fill sequences; ``machine`` gives the geometry and the
    costs.  Returns ``(walk, l2_stats, l2_itlb_stats, l2_dtlb_stats)``; a
    unified L2 TLB's one ``TlbStats`` is returned twice.
    """
    l2_sets, l2_assoc = lru_geometry(machine.l2.lines, machine.l2.assoc)
    tlb_sets, tlb_assoc = lru_geometry(machine.tlb.l2_entries, machine.tlb.l2_assoc)
    unified = machine.tlb.unified_l2
    arrays = [
        np.ascontiguousarray(merged[0], dtype=np.int8),
        *(np.ascontiguousarray(a, dtype=np.int64) for a in (*merged[1:], *warm)),
        np.array([
            l2_sets, l2_assoc, machine.l2.prefetch_degree, tlb_sets, tlb_assoc,
            tlb_sets, tlb_assoc, unified, PAGE_BYTES // CACHE_LINE_BYTES,
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
    if _library().l2_walk(*(a.ctypes.data for a in (sizes, *arrays, sums, counters))):
        raise MemoryError("the L2 walk could not allocate its state")
    counts = counters.tolist()
    l2_itlb_stats = TlbStats(*counts[10:13])
    return (
        (*sums.tolist(), counts[0], counts[1]),
        CacheStats(*counts[2:10]),
        l2_itlb_stats,
        l2_itlb_stats if unified else TlbStats(*counts[13:16]),
    )
