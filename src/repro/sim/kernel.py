"""The columnar engine's replay passes, compiled from C.

Five entry points share one source, one library and one load:

* ``branch_pass`` runs the conditional branches through one predictor of
  :func:`repro.uarch.branch.make_predictor` in one loop: the bimodal,
  gshare and chooser 2-bit tables and the global history.  It reproduces
  the scalar predictors' ``predict``/``update`` branch for branch.
* ``control_pass`` walks the blocks that share speculative state: the
  RAS (:class:`~repro.uarch.branch.ReturnAddressStack`), the shadow call
  stack, the last-target indirect predictor
  (:class:`~repro.uarch.branch.IndirectPredictor`) and the LCG that draws
  each misprediction's wrong-path page and line.
* ``lru_replay`` replays one L1 structure (the L1I, the L1D, the ITLB or
  the DTLB) op by op: an exact LRU with optional dirty write-backs,
  non-mutating probes, and the Cortex-A15's streaming-store detector.  It
  reproduces ``SetAssociativeCache.access``/``contains`` and
  ``Tlb.lookup``/``contains`` hit for hit.
* ``merge_events`` walks the instruction-page, instruction-line,
  memory-op and wrong-path streams with one cursor each and emits the
  events that reach the L2 side, in the scalar engine's order, from the
  L1 outcome bytes.
* ``l2_walk`` replays, in exact program order, the events that reach the
  shared L2, the L2 TLBs or the stride prefetcher, after the silent warm
  fills: a 16-way LRU with dirty write-backs, and a prefetcher trained on
  the previous miss, cannot be batched.  It reproduces the scalar models
  of :mod:`repro.uarch` operation for operation
  (``SetAssociativeCache.fill``/``access``/``prefetch``,
  ``StridePrefetcher.train``, ``Tlb.fill``/``lookup``) with every counter
  they bump; a unified L2 TLB is one structure with one ``TlbStats``.

Set and tag use Python's floor semantics (a prefetch target can be
negative), the LCG's draws are exact int-to-double conversions divided
once, doubles accumulate in the scalar order, and the build has
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
from repro.workloads.trace import CACHE_LINE_BYTES, PAGE_BYTES, BranchClass

logger = get_logger(__name__)

SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Event kinds, numbered as in repro.sim.columnar. */
enum {
    EV_L1D_MISS, EV_DTLB_MISS, EV_L1D_WB, EV_L1I_MISS,
    EV_L1D_STREAM, EV_WP_TLB, EV_WP_L1I, EV_ITLB_MISS, N_EV_KINDS
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

/* Predictor kinds of branch_pass, as make_predictor names them. */
enum { BP_BIMODAL, BP_GSHARE, BP_TOURNAMENT, BP_BUGGY_TOURNAMENT };

/* A 2-bit saturating counter trained up (taken) or down, in arithmetic
   rather than branches: the outcomes are what a predictor cannot
   predict. */
static uint8_t counter_step(uint8_t counter, int up)
{
    return (uint8_t)(counter + (up & (counter < 3)) - (!up & (counter > 0)));
}

/* The conditional branches, in program order, against one predictor of
   make_predictor: a bimodal table, a gshare table indexed by the PC
   xor the global history, and a per-PC chooser, every counter weakly
   taken (2) and the history 0 at the start.  Each branch predicts, then
   trains every structure on its outcome (a kind ignores the structures it
   does not read); the chooser moves toward gshare's component only when
   the two disagree, and the buggy tournament inverts the prediction of a
   backward branch.  Writes 1 into miss[i] when branch i was
   mispredicted.  Returns 0, or -1 when the tables cannot be allocated. */
int branch_pass(int64_t n, const int64_t *pc, const int8_t *taken,
                const uint8_t *backward, int64_t kind, int64_t table_bits,
                int64_t history_bits, uint8_t *miss)
{
    const size_t size = (size_t)1 << table_bits;
    const uint64_t mask = (uint64_t)size - 1;
    const uint64_t history_mask = history_bits >= 64
        ? UINT64_MAX : ((uint64_t)1 << history_bits) - 1;
    uint8_t *local = malloc(3 * size), *global, *choice;
    uint64_t history = 0;

    if (local == NULL)
        return -1;
    global = local + size;
    choice = global + size;
    memset(local, 2, 3 * size);
    for (int64_t i = 0; i < n; i++) {
        const uint64_t index = (uint64_t)(pc[i] >> 2) & mask,
                       g_index = (index ^ history) & mask;
        const int outcome = taken[i] != 0, l = local[index] >= 2,
                  g = global[g_index] >= 2;
        int prediction;
        if (kind == BP_BIMODAL) {
            prediction = l;
        } else if (kind == BP_GSHARE) {
            prediction = g;
        } else {
            prediction = choice[index] >= 2 ? g : l;
            if (l != g)
                choice[index] = counter_step(choice[index], g == outcome);
            if (kind == BP_BUGGY_TOURNAMENT && backward[i])
                prediction = !prediction;
        }
        local[index] = counter_step(local[index], outcome);
        global[g_index] = counter_step(global[g_index], outcome);
        history = ((history << 1) | (uint64_t)outcome) & history_mask;
        miss[i] = (uint8_t)(prediction != outcome);
    }
    free(local);
    return 0;
}

/* Branch classes, numbered as repro.workloads.trace.BranchClass: the
   conditional classes are the ones up to CLS_RANDOM. */
enum { CLS_RANDOM = 3, CLS_CALL, CLS_RETURN };

/* The RAS (ReturnAddressStack, depth 8), the shadow call stack (a deque
   of maxlen 64) and the last-target indirect predictor (IndirectPredictor,
   2^8 entries). */
enum { RAS_DEPTH = 8, SHADOW_DEPTH = 64, INDIRECT_ENTRIES = 256 };

/* A stack that drops its oldest entry on overflow; popping it empty
   gives -1, as both Python stacks do. */
typedef struct {
    int64_t slot[SHADOW_DEPTH];
    int64_t depth, top, size;
} ring_t;

static void ring_push(ring_t *r, int64_t value)
{
    r->top = (r->top + 1) % r->depth;
    r->slot[r->top] = value;
    if (r->size < r->depth)
        r->size += 1;
}

static int64_t ring_pop(ring_t *r)
{
    int64_t value;
    if (r->size == 0)
        return -1;
    value = r->slot[r->top];
    r->top = (r->top + r->depth - 1) % r->depth;
    r->size -= 1;
    return value;
}

/* The model's LCG, as repro.sim.cpu steps it.  A draw divided by the
   mask is an exact conversion and one IEEE division, as in Python. */
#define LCG_MASK 0x7FFFFFFF

static uint64_t lcg_next(uint64_t lcg)
{
    return (lcg * 1103515245u + 12345u) & LCG_MASK;
}

/* The walk over the blocks that share speculative state: calls and
   returns (the RAS and the shadow stack), indirect branches (the
   indirect predictor) and the mispredicted conditionals; each
   misprediction draws its wrong-path page and line from the LCG, then
   may corrupt the RAS top and the next indirect prediction.

   sizes:     n_dyn, n_cond, n_code_pages, lines per page, capacity
   lcg:       the LCG seed modulo 2^64 (each step keeps 31 bits)
   fractions: wrong-path far fraction, RAS corruption, indirect
              corruption
   counters:  calls, returns, indirect branches, indirect mispredicts,
              RAS incorrect

   cond_miss holds one byte per conditional block in program order.
   Writes each misprediction's block, page and line into wp_pos, wp_page
   and wp_line.  Returns their number, or -1 when there are more than
   capacity or the conditional blocks are not n_cond. */
int64_t control_pass(const int64_t *sizes, const int8_t *cls,
                     const int64_t *addr, const int16_t *target,
                     const int64_t *wp_near, const uint8_t *cond_miss,
                     const int64_t *code_pages, uint64_t lcg,
                     const double *fractions, int64_t *wp_pos,
                     int64_t *wp_page, int64_t *wp_line, int64_t *counters)
{
    const int64_t n_dyn = sizes[0], n_cond = sizes[1],
                  n_code_pages = sizes[2], lines_per_page = sizes[3],
                  capacity = sizes[4];
    const double far_fraction = fractions[0], ras_corruption = fractions[1],
                 indirect_corruption = fractions[2];
    ring_t ras = {{0}, RAS_DEPTH, 0, 0}, shadow = {{0}, SHADOW_DEPTH, 0, 0};
    int64_t targets[INDIRECT_ENTRIES] = {0};
    uint8_t valid[INDIRECT_ENTRIES] = {0};
    int64_t calls = 0, returns = 0, indirect_branches = 0,
            indirect_mispredicts = 0, ras_incorrect = 0, n_wp = 0, c = 0,
            page;
    int pending_corrupt = 0;

    for (int64_t i = 0; i < n_dyn; i++) {
        if (cls[i] <= CLS_RANDOM) {
            if (c == n_cond)
                return -1;
            if (!cond_miss[c++])
                continue;
        } else if (cls[i] == CLS_CALL) {
            calls += 1;
            ring_push(&ras, addr[i]);
            ring_push(&shadow, addr[i]);
            continue;
        } else if (cls[i] == CLS_RETURN) {
            const int64_t expected = ring_pop(&shadow);
            returns += 1;
            if (ring_pop(&ras) == expected)
                continue;
            ras_incorrect += 1;
        } else { /* CLS_INDIRECT */
            const uint64_t index =
                (uint64_t)(addr[i] >> 2) & (INDIRECT_ENTRIES - 1);
            int correct = valid[index] && targets[index] == target[i];
            valid[index] = 1;
            targets[index] = target[i];
            indirect_branches += 1;
            if (pending_corrupt) {
                correct = 0;
                pending_corrupt = 0;
            }
            if (correct)
                continue;
            indirect_mispredicts += 1;
        }

        if (n_wp == capacity)
            return -1;
        lcg = lcg_next(lcg);
        if ((double)lcg / LCG_MASK < far_fraction && n_code_pages > 1) {
            lcg = lcg_next(lcg);
            page = code_pages[lcg % (uint64_t)n_code_pages] + 1
                   + (int64_t)(lcg % 7);
        } else {
            page = wp_near[i];
        }
        wp_pos[n_wp] = i;
        wp_page[n_wp] = page;
        wp_line[n_wp] = page * lines_per_page + (int64_t)(lcg % 8);
        n_wp += 1;

        lcg = lcg_next(lcg);
        if ((double)lcg / LCG_MASK < ras_corruption && ras.size > 0)
            ras.slot[ras.top] ^= 0x4;
        lcg = lcg_next(lcg);
        if ((double)lcg / LCG_MASK < indirect_corruption)
            pending_corrupt = 1;
    }
    if (c != n_cond)
        return -1;
    counters[0] = calls;
    counters[1] = returns;
    counters[2] = indirect_branches;
    counters[3] = indirect_mispredicts;
    counters[4] = ras_incorrect;
    return n_wp;
}

/* merge_events orders events by block * 8 + slot, the slot giving the
   scalar engine's order inside a block: its instruction pages, its
   instruction lines, its memory operations (for each: the DTLB miss, the
   L1D write-back, then the L1D miss or streamed store), then its wrong
   path (the ITLB probe miss, then the L1I miss). */
enum { SLOT_IPAGE, SLOT_ILINE, SLOT_MEM, SLOT_WP_TLB, SLOT_WP_L1I,
       N_SLOTS = 8 };

/* An instruction-side stream: the fetches of the ITLB (pages) or of the
   L1I (lines), each wrong-path access inserted after the last fetch of
   its block, and one outcome byte per access in that order. */
typedef struct {
    const int32_t *pos;
    const int64_t *key, *wp_key;
    const uint8_t *out;
    int64_t n, i, w;
    int slot, wp_slot, kind, wp_kind, at_wp;
} fetches_t;

/* Step past the stream's current access. */
static void fetches_skip(fetches_t *s)
{
    if (s->at_wp)
        s->w += 1;
    else
        s->i += 1;
}

/* Skip the stream's hits: the order key of its next miss, or INT64_MAX
   at its end. */
static int64_t fetches_next(fetches_t *s, const int64_t *wp_pos, int64_t n_wp)
{
    while (s->i < s->n || s->w < n_wp) {
        s->at_wp = s->w < n_wp && (s->i == s->n || s->pos[s->i] > wp_pos[s->w]);
        if (!(s->out[s->i + s->w] & OUT_HIT))
            return s->at_wp ? wp_pos[s->w] * N_SLOTS + s->wp_slot
                            : (int64_t)s->pos[s->i] * N_SLOTS + s->slot;
        fetches_skip(s);
    }
    return INT64_MAX;
}

/* The events that reach the L2 side, in the scalar engine's order: the
   ITLB and L1I misses, fetches and wrong paths alike, the DTLB misses,
   the L1D write-backs, misses and streamed stores.  Each stream is in
   program order, and at most one wrong path comes from a block.

   sizes:  n_ipage, n_iline, n_mem, n_wp
   counts: events per kind, then the L1D misses that are writes

   kind, arg0 and arg1 hold room for n_ipage + n_iline + 3 n_mem + 2 n_wp
   events, each access's most: a memory operation's events are written
   whether or not they happen, then kept or overwritten, so that the
   walk does not branch on its L1D and DTLB outcomes.  Returns the
   number of events. */
int64_t merge_events(const int64_t *sizes, const int32_t *ipage_pos,
                     const int64_t *ipage_page, const int32_t *iline_pos,
                     const int64_t *iline_line, const int32_t *mem_pos,
                     const int64_t *mem_page, const int64_t *mem_line,
                     const uint8_t *mem_write, const int64_t *wp_pos,
                     const int64_t *wp_page, const int64_t *wp_line,
                     const uint8_t *itlb_out, const uint8_t *l1i_out,
                     const uint8_t *dtlb_out, const uint8_t *l1d_out,
                     int64_t *counts, int8_t *kind, int64_t *arg0,
                     int64_t *arg1)
{
    const int64_t n_mem = sizes[2], n_wp = sizes[3];
    fetches_t itlb = {ipage_pos, ipage_page, wp_page, itlb_out, sizes[0], 0, 0,
                      SLOT_IPAGE, SLOT_WP_TLB, EV_ITLB_MISS, EV_WP_TLB, 0},
              l1i = {iline_pos, iline_line, wp_line, l1i_out, sizes[1], 0, 0,
                     SLOT_ILINE, SLOT_WP_L1I, EV_L1I_MISS, EV_WP_L1I, 0};
    fetches_t *fetches;
    int64_t m = 0, e = 0, itlb_key, l1i_key, mem_key, bound;

/* Write an event at e and keep it when it happens. */
#define PUT(k, a0, a1, happens)                                             \
    do {                                                                    \
        const int kept = (happens);                                         \
        kind[e] = (int8_t)(k);                                              \
        arg0[e] = (a0);                                                     \
        arg1[e] = (a1);                                                     \
        counts[k] += kept;                                                  \
        e += kept;                                                          \
    } while (0)
#define MEM_KEY(m)                                                          \
    ((m) < n_mem ? (int64_t)mem_pos[m] * N_SLOTS + SLOT_MEM : INT64_MAX)

    itlb_key = fetches_next(&itlb, wp_pos, n_wp);
    l1i_key = fetches_next(&l1i, wp_pos, n_wp);
    mem_key = MEM_KEY(0);
    for (;;) {
        if (mem_key < itlb_key && mem_key < l1i_key) {
            /* The memory operations up to the next instruction-side
               miss. */
            bound = itlb_key < l1i_key ? itlb_key : l1i_key;
            do {
                const uint8_t tlb = dtlb_out[m], l1 = l1d_out[m];
                const int streamed = (l1 & OUT_STREAMED) != 0,
                          missed = !(l1 & (OUT_HIT | OUT_STREAMED)),
                          write = mem_write[m] != 0;
                PUT(EV_DTLB_MISS, mem_page[m], 0, !(tlb & OUT_HIT));
                PUT(EV_L1D_WB, mem_line[m], 0, (l1 & OUT_WROTE_BACK) != 0);
                PUT(streamed ? EV_L1D_STREAM : EV_L1D_MISS, mem_line[m],
                    missed & write, streamed | missed);
                counts[N_EV_KINDS] += missed & write;
                m += 1;
                mem_key = MEM_KEY(m);
            } while (mem_key < bound);
        } else if (itlb_key != l1i_key) {
            /* One instruction-side miss: the keys of two streams never
               tie, and only the ends are equal. */
            fetches = itlb_key < l1i_key ? &itlb : &l1i;
            if (fetches->at_wp)
                PUT(fetches->wp_kind, fetches->wp_key[fetches->w], 0, 1);
            else
                PUT(fetches->kind, fetches->key[fetches->i], 0, 1);
            fetches_skip(fetches);
            if (fetches == &itlb)
                itlb_key = fetches_next(&itlb, wp_pos, n_wp);
            else
                l1i_key = fetches_next(&l1i, wp_pos, n_wp);
        } else {
            break;
        }
    }
#undef MEM_KEY
#undef PUT
    return e;
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
#: Libraries a publish leaves in the cache directory, most recently used
#: first, so that checkouts of a few versions sharing one cache (a change
#: and its parent, shards of two campaigns) do not rebuild each other's.
_KEPT_LIBRARIES = 4

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


def _forget_least_recent(directory: str) -> None:
    """Keep the :data:`_KEPT_LIBRARIES` most recently used libraries in
    ``directory`` and remove the rest.

    Use is the modification time, which a build sets and every load
    refreshes.  A process that has a removed library loaded keeps its
    mapping; a peer that was about to load one rebuilds it (see
    :func:`_load`).
    """
    libraries = []
    for name in os.listdir(directory):
        if name.endswith(".so") and name.startswith(_PREFIXES):
            path = os.path.join(directory, name)
            try:
                libraries.append((os.stat(path).st_mtime_ns, path))
            except OSError as exc:  # removed by a peer meanwhile
                logger.info("kernel %s not listed: %s", path, exc)
    for _, path in sorted(libraries, reverse=True)[_KEPT_LIBRARIES:]:
        try:
            os.remove(path)
        except OSError as exc:
            logger.info("old kernel %s not removed: %s", path, exc)


def _signatures(ctypes) -> dict:
    """Each entry point's return type and argument types."""
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    return {
        "lru_replay": (ctypes.c_int, [i64, ptr, ptr, i64, i64, i64, ptr]),
        "branch_pass": (ctypes.c_int, [i64, ptr, ptr, ptr, i64, i64, i64, ptr]),
        "control_pass": (i64, [ptr] * 7 + [ctypes.c_uint64] + [ptr] * 5),
        "merge_events": (i64, [ptr] * 20),
        "l2_walk": (ctypes.c_int, [ptr] * 12),
    }


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
            _forget_least_recent(directory)
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            if os.path.exists(path):
                raise
            # A peer publishing another source removed it: rebuild once.
            _build(path)
            lib = ctypes.CDLL(path)
        try:
            os.utime(path)  # this load is a use
        except OSError as exc:
            logger.info("kernel %s use not recorded: %s", path, exc)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, library_name())
            _build(path)
            lib = ctypes.CDLL(path)
    for name, (restype, argtypes) in _signatures(ctypes).items():
        entry = getattr(lib, name)
        entry.restype = restype
        entry.argtypes = argtypes
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


#: ``branch_pass`` predictor kinds, numbered as the C numbers them.
PREDICTOR_KINDS = ("bimodal", "gshare", "tournament", "buggy_tournament")


def branch_pass(pc, taken, backward, kind, table_bits, history_bits) -> np.ndarray:
    """The conditional branches against one predictor (the branch pass).

    ``pc``, ``taken`` and ``backward`` give each conditional branch's PC,
    outcome and direction in program order; ``kind``, ``table_bits`` and
    ``history_bits`` name the predictor as
    :func:`repro.uarch.branch.make_predictor` does, fresh at the first
    branch.  Returns one bool per branch: True when it was mispredicted.
    """
    if kind not in PREDICTOR_KINDS:
        raise ValueError(f"unknown predictor kind {kind!r}")
    if not 1 <= table_bits <= 30 or (kind != "bimodal" and history_bits < 1):
        raise ValueError("table_bits must be in [1, 30] and history_bits >= 1")
    pc = np.ascontiguousarray(pc, dtype=np.int64)
    taken = np.ascontiguousarray(taken, dtype=np.int8)
    backward = np.ascontiguousarray(backward, dtype=np.bool_)
    if not len(pc) == len(taken) == len(backward):
        raise ValueError("one outcome and one direction per branch")
    miss = np.empty(len(pc), dtype=np.bool_)
    if _library().branch_pass(
        len(pc), pc.ctypes.data, taken.ctypes.data, backward.ctypes.data,
        PREDICTOR_KINDS.index(kind), table_bits, history_bits, miss.ctypes.data,
    ):
        raise MemoryError("the branch pass could not allocate its tables")
    return miss


def control_pass(cols, cond_miss, code_pages, lcg, machine):
    """The walk over the blocks that share speculative state (the control
    pass).

    ``cols`` gives each dynamic block's class, branch address, indirect
    target and near wrong-path page, ``cond_miss`` one bool per
    conditional block from :func:`branch_pass`, ``code_pages`` the pages a
    far wrong path draws from and ``lcg`` the LCG seeded for the replay
    (each step keeps the low 31 bits, so the C's 64-bit arithmetic is
    exact).  ``machine`` gives the far fraction and the corruption rates.
    Returns ``(wp_pos, wp_page, wp_line)``, the block, page and line of
    each misprediction's wrong-path fetch in program order, and
    ``(calls, returns, indirect_branches, indirect_mispredicts,
    ras_incorrect)``.
    """
    arrays = [
        np.ascontiguousarray(cols.class_seq, dtype=np.int8),
        np.ascontiguousarray(cols.addr_seq, dtype=np.int64),
        np.ascontiguousarray(cols.target_seq, dtype=np.int16),
        np.ascontiguousarray(cols.wp_near_seq, dtype=np.int64),
        np.ascontiguousarray(cond_miss, dtype=np.bool_),
        np.ascontiguousarray(code_pages, dtype=np.int64),
    ]
    n_dyn = len(arrays[0])
    if any(len(a) != n_dyn for a in arrays[1:4]):
        raise ValueError("one class, address, target and near page per block")
    # Every misprediction is a mispredicted conditional, a return or an
    # indirect branch.
    capacity = int(np.count_nonzero(arrays[4])) + int(
        np.count_nonzero(arrays[0] > int(BranchClass.CALL))
    )
    sizes = np.array([
        n_dyn, len(arrays[4]), len(arrays[5]), PAGE_BYTES // CACHE_LINE_BYTES,
        capacity,
    ], dtype=np.int64)
    fractions = np.array([
        machine.wrongpath_far_fraction, machine.ras_corruption,
        machine.indirect_corruption,
    ], dtype=np.float64)
    wp_pos, wp_page, wp_line = (np.empty(capacity, np.int64) for _ in range(3))
    counters = np.zeros(5, dtype=np.int64)
    n_wp = _library().control_pass(
        sizes.ctypes.data, *(a.ctypes.data for a in arrays), lcg % 2**64,
        fractions.ctypes.data, wp_pos.ctypes.data, wp_page.ctypes.data,
        wp_line.ctypes.data, counters.ctypes.data,
    )
    if n_wp < 0:
        raise ValueError("one branch outcome per conditional block")
    return (
        (wp_pos[:n_wp], wp_page[:n_wp], wp_line[:n_wp]), tuple(counters.tolist())
    )


#: ``merge_events`` counts: one per event kind, then the L1D misses that
#: are writes.
N_EVENT_COUNTS = 9


def merge_events(cols, wrong_path, outcomes):
    """The events that reach the L2 side, in program order (the event
    merge).

    ``cols`` gives the instruction-page, instruction-line and memory-op
    streams, ``wrong_path`` the control pass's ``(wp_pos, wp_page,
    wp_line)``, and ``outcomes`` the ITLB, L1I, DTLB and L1D outcome bytes
    without their warm rows; the ITLB's and the L1I's hold the wrong-path
    probes too, each after its block's own pages or lines.  Returns the
    ``(kind, arg0, arg1)`` stream of :func:`l2_walk` and the
    :data:`N_EVENT_COUNTS` counts.
    """
    wp_pos, wp_page, wp_line = wrong_path
    itlb, l1i, dtlb, l1d = outcomes
    streams = [
        (np.int32, cols.ipage_pos), (np.int64, cols.ipage_page),
        (np.int32, cols.iline_pos), (np.int64, cols.iline_line),
        (np.int32, cols.mem_pos), (np.int64, cols.mem_page),
        (np.int64, cols.mem_line), (np.bool_, cols.mem_write),
        (np.int64, wp_pos), (np.int64, wp_page), (np.int64, wp_line),
        (np.uint8, itlb), (np.uint8, l1i), (np.uint8, dtlb), (np.uint8, l1d),
    ]
    arrays = [np.ascontiguousarray(a, dtype=dtype) for dtype, a in streams]
    n_ipage, n_iline, n_mem, n_wp = (len(arrays[i]) for i in (0, 2, 4, 8))
    expected = [n_ipage] * 2 + [n_iline] * 2 + [n_mem] * 4 + [n_wp] * 3 + [
        n_ipage + n_wp, n_iline + n_wp, n_mem, n_mem,
    ]
    if [len(a) for a in arrays] != expected:
        raise ValueError("the event streams and outcomes disagree in length")
    # Room for each access's most events.
    capacity = n_ipage + n_iline + 3 * n_mem + 2 * n_wp
    room = (np.empty(capacity, np.int8), np.empty(capacity, np.int64),
            np.empty(capacity, np.int64))
    sizes = np.array([n_ipage, n_iline, n_mem, n_wp], dtype=np.int64)
    counts = np.zeros(N_EVENT_COUNTS, dtype=np.int64)
    n = _library().merge_events(
        sizes.ctypes.data, *(a.ctypes.data for a in arrays), counts.ctypes.data,
        *(a.ctypes.data for a in room),
    )
    merged = tuple(a[:n].copy() for a in room)
    return merged, counts.tolist()


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
