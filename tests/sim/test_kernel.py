"""The compiled replay kernel against the scalar models and the former walk.

:mod:`repro.sim.kernel` holds the columnar engine's L1 passes
(``lru_replay``) and its one L2 walk (``l2_walk``).  ``lru_replay`` is
checked op by op against :class:`SetAssociativeCache` and :class:`Tlb`
(``access``/``lookup`` for mutating ops, ``contains`` for probes) with
Hypothesis.  The oracle of ``l2_walk`` is the walk as it was before the
port, kept verbatim: the silent warm fills and the program-order loop
over the scalar models of :mod:`repro.uarch`.  On every event stream,
geometry and cost set both must return the same walk tuple, bit for bit,
and the same L2, L2-ITLB and L2-DTLB counters.

The remaining tests pin how the kernel is built: warning-clean C, one
content-addressed library published by rename (which removes the
libraries of other sources), a rebuild when a peer removed it before it
was loaded, a temporary build when the cache directory is not writable,
and a build failure that the default guard turns into a scalar replay.
"""

from __future__ import annotations

import os
import shutil
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import columnar as columnar_mod
from repro.sim import kernel as kernel_mod
from repro.sim.cpu import _make_state, simulate
from repro.sim.guard import GuardPlan, compare_results, guarded_simulate
from repro.sim.machine import CacheGeometry, hardware_a15
from repro.uarch.cache import SetAssociativeCache, lru_geometry
from repro.uarch.tlb import Tlb, TlbHierarchyConfig
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import CACHE_LINE_BYTES, PAGE_BYTES, compile_trace

from tests.uarch.test_cache_properties import _interleaved_runs

_EV_L1D_MISS = columnar_mod._EV_L1D_MISS
_EV_DTLB_MISS = columnar_mod._EV_DTLB_MISS
_EV_L1D_WB = columnar_mod._EV_L1D_WB
_EV_L1I_MISS = columnar_mod._EV_L1I_MISS
_EV_L1D_STREAM = columnar_mod._EV_L1D_STREAM
_EV_WP_TLB = columnar_mod._EV_WP_TLB
_EV_WP_L1I = columnar_mod._EV_WP_L1I
_EV_ITLB_MISS = columnar_mod._EV_ITLB_MISS


OUT_HIT = kernel_mod.OUT_HIT
OUT_STREAMED = kernel_mod.OUT_STREAMED
OUT_WROTE_BACK = kernel_mod.OUT_WROTE_BACK
OP_MUTATE = kernel_mod.OP_MUTATE
OP_WRITE = kernel_mod.OP_WRITE


def _model(kind, n_sets, assoc, streaming):
    """A fresh scalar model of the geometry ``lru_replay`` is given."""
    if kind == "tlb":
        return Tlb("p", n_sets * assoc, None if n_sets == 1 else assoc)
    return SetAssociativeCache("p", 64 * n_sets * assoc, 64, assoc,
                               write_streaming=streaming)


def oracle_replay(model, ops):
    """Per-op ``OUT_*`` bits from driving ``model`` op by op."""
    outcomes = []
    for key, flags in ops:
        if not flags & OP_MUTATE:
            outcomes.append(OUT_HIT if model.contains(key) else 0)
        elif isinstance(model, Tlb):
            outcomes.append(OUT_HIT if model.lookup(key) else 0)
        else:
            write = bool(flags & OP_WRITE)
            hit, wrote_back, allocated = model.access(key, write)
            streamed = write and not hit and not allocated
            outcomes.append(
                hit * OUT_HIT + streamed * OUT_STREAMED + wrote_back * OUT_WROTE_BACK
            )
    return outcomes


def _replay_both(kind, n_sets, assoc, streaming, ops):
    model = _model(kind, n_sets, assoc, streaming)
    assert (model.n_sets, model.assoc) == (n_sets, assoc)
    keys = [key for key, _ in ops]
    flags = [flags for _, flags in ops]
    out = kernel_mod.lru_replay(keys, n_sets, assoc, flags, streaming)
    assert out.dtype == np.uint8
    return out.tolist(), oracle_replay(model, ops)


def _store_runs():
    """Eight store runs that stream, two more that rotate the tracker
    victims, a re-read and re-store of a streamed line, then reads that
    evict dirty lines (``test_cache_properties._interleaved_runs``)."""
    return [
        (line, OP_MUTATE | (OP_WRITE if write else 0))
        for line, write in _interleaved_runs()
    ]


#: (n_sets, assoc): direct-mapped, odd set counts, and the fully
#: associative 32- and 64-entry TLBs.
_GEOMETRIES = [(1, 1), (8, 1), (5, 3), (4, 2), (16, 4), (1, 32), (1, 64)]


@st.composite
def lru_streams(draw):
    """Bursts of up to 12 sequential store runs, interleaved with reads,
    writes, re-reads and re-stores of recent run lines and non-mutating
    probes, over a narrow key range with negative keys, so lines are
    reused, dirtied and evicted."""
    n_runs = draw(st.integers(1, 12))
    heads = [draw(st.integers(-2, 40)) * 64 for _ in range(n_runs)]
    ops = []
    steps = st.tuples(
        st.sampled_from(
            ["stores", "reread", "restore", "read", "write", "probe"]
        ),
        st.integers(0, n_runs - 1),
        st.integers(-40, 400),
    )
    for kind, run, key in draw(st.lists(steps, min_size=1, max_size=80)):
        if kind == "stores":
            burst = 1 + key % 8
            ops += [(heads[run] + k, OP_MUTATE | OP_WRITE) for k in range(burst)]
            heads[run] += burst
        elif kind == "reread":
            ops.append((heads[run] - 1 - key % 4, OP_MUTATE))
        elif kind == "restore":
            ops.append((heads[run] - 1, OP_MUTATE | OP_WRITE))
        elif kind == "probe":
            ops.append((key, 0))
        else:
            ops.append((key, OP_MUTATE | (OP_WRITE if kind == "write" else 0)))
    return ops


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["cache", "tlb"]),
    geometry=st.sampled_from(_GEOMETRIES),
    streaming=st.booleans(),
    ops=lru_streams(),
)
@example(kind="cache", geometry=(4, 2), streaming=True, ops=_store_runs())
@example(kind="tlb", geometry=(1, 32), streaming=False,
         ops=[(page % 40, OP_MUTATE if page % 3 else 0) for page in range(200)])
def test_lru_replay_matches_the_scalar_models(kind, geometry, streaming, ops):
    if kind == "tlb":
        # A TLB has no stores: its ops are lookups and probes.
        ops = [(key, flags & OP_MUTATE) for key, flags in ops]
        streaming = False
    out, oracle = _replay_both(kind, *geometry, streaming, ops)
    assert out == oracle


def test_lru_replay_rejects_shapes_the_c_cannot_index():
    with pytest.raises(ValueError, match="one flag per key"):
        kernel_mod.lru_replay([1, 2], 4, 2, [OP_MUTATE])
    with pytest.raises(ValueError, match="at least one set"):
        kernel_mod.lru_replay([1, 2], 0, 2)


def test_every_lru_replay_path_is_taken():
    """Probe misses and hits, read and write hits, clean and dirty
    evictions, streamed stores, a rotated tracker victim and a second
    store to a streamed line, on a 4-set 2-way cache, with negative
    lines."""
    ops = [(-3, 0), (-3, OP_MUTATE), (-3, 0), (-3, OP_MUTATE | OP_WRITE)]
    # Lines 1, 5, 9, 13, 17 share -3's set: 5 evicts the dirty -3, the
    # rest evict clean lines.
    ops += [(-3 + 4 * k, OP_MUTATE) for k in range(1, 6)]
    ops += _store_runs()
    # A new run streams from its fifth store; its last line, stored
    # again, streams again.
    ops += [(5000 + k, OP_MUTATE | OP_WRITE) for k in (0, 1, 2, 3, 4, 5, 5)]
    out, oracle = _replay_both("cache", 4, 2, True, ops)
    assert out == oracle
    assert out[:4] == [0, 0, OUT_HIT, OUT_HIT]
    assert out[4:9] == [0, OUT_WROTE_BACK, 0, 0, 0]
    assert out[-7:] == [0, 0, 0, 0, *[OUT_STREAMED] * 3]
    model = _model("cache", 4, 2, True)
    oracle_replay(model, ops)
    assert model._stream_victim == 3  # three trackers rotated out
    # Without flags every op is a mutating read.
    keys = [key for key, _ in ops]
    assert kernel_mod.lru_replay(keys, 4, 2).tolist() == oracle_replay(
        _model("cache", 4, 2, True), [(key, OP_MUTATE) for key in keys]
    )


def oracle_walk(merged, machine, state, warm):
    """The warm fills, then the loop, on the Python models of ``state``."""
    code_lines, code_pages, l2_warm, data_pages = warm
    l2, tlb = state.l2, state.tlb
    l2.warm_fill_many(code_lines)
    tlb.l2_itlb.fill_many(code_pages)
    l2.warm_fill_many(l2_warm)
    tlb.l2_dtlb.fill_many(data_pages)
    walk = oracle_loop(merged, machine, l2, state.l2_prefetcher, tlb)
    return walk, l2.stats, tlb.l2_itlb.stats, tlb.l2_dtlb.stats


def oracle_loop(merged, machine, l2, l2_prefetcher, tlb):
    """The merged walk as a Python loop over the scalar models."""
    kind_arr, arg0_arr, arg1_arr = merged

    l2_access = l2.access
    l2_itlb_lookup = tlb.l2_itlb.lookup
    l2_dtlb_lookup = tlb.l2_dtlb.lookup
    prefetch_train = l2_prefetcher.train

    l2_lat = machine.l2.latency
    l2tlb_lat = machine.tlb.l2_latency
    walk_cycles = machine.tlb.walk_cycles
    mem_overlap = machine.mem_overlap
    store_exposure = machine.store_miss_exposure
    dram_exposure = 1.0 - machine.dram_overlap
    lines_per_page = PAGE_BYTES // CACHE_LINE_BYTES

    icache_cost = l2_lat * 0.8
    dtlb_l2_cost = l2tlb_lat * (1.0 - mem_overlap)
    dtlb_walk_cost = walk_cycles * (1.0 - 0.5 * mem_overlap)
    stream_cost = l2_lat * 0.05
    write_cost = l2_lat * store_exposure
    read_cost = l2_lat * (1.0 - mem_overlap)
    write_weight = store_exposure * 0.5
    wp_walk_cost = walk_cycles * 0.5

    stall_icache = 0.0
    stall_itlb = 0.0
    stall_dcache = 0.0
    stall_dtlb = 0.0
    dram_reads = 0.0
    dram_writes = 0.0
    dram_weight = 0.0
    walks_inst = 0
    walks_data = 0

    for kind, arg0, arg1 in zip(
        kind_arr.tolist(), arg0_arr.tolist(), arg1_arr.tolist()
    ):
        if kind == _EV_L1D_MISS:
            if arg1:
                stall_dcache += write_cost
            else:
                stall_dcache += read_cost
            l2_hit, l2_wb, _ = l2_access(arg0, bool(arg1))
            if l2_wb:
                dram_writes += 1
            if not l2_hit:
                dram_reads += 1
                dram_weight += write_weight if arg1 else dram_exposure
                prefetch_train(arg0)
        elif kind == _EV_DTLB_MISS:
            stall_dtlb += dtlb_l2_cost
            if not l2_dtlb_lookup(arg0):
                walks_data += 1
                stall_dtlb += dtlb_walk_cost
                hit, _, _ = l2_access(arg0 * lines_per_page)
                if not hit:
                    dram_reads += 1
                    dram_weight += 0.4
        elif kind == _EV_L1D_WB:
            _, l2_wb, _ = l2_access(arg0 ^ 0x1, True)
            if l2_wb:
                dram_writes += 1
        elif kind == _EV_L1I_MISS:
            stall_icache += icache_cost
            l2_hit, wrote_back, _ = l2_access(arg0)
            if wrote_back:
                dram_writes += 1
            if not l2_hit:
                dram_reads += 1
                dram_weight += 0.9
                prefetch_train(arg0)
        elif kind == _EV_L1D_STREAM:
            stall_dcache += stream_cost
            l2_hit, l2_wb, _ = l2_access(arg0, True)
            if l2_wb:
                dram_writes += 1
            if not l2_hit:
                dram_writes += 1
                dram_weight += 0.12
        elif kind == _EV_WP_TLB:
            stall_itlb += l2tlb_lat
            if not l2_itlb_lookup(arg0):
                stall_itlb += wp_walk_cost
        elif kind == _EV_WP_L1I:
            l2_hit, _, _ = l2_access(arg0)
            if not l2_hit:
                dram_reads += 1
        else:  # _EV_ITLB_MISS
            stall_itlb += l2tlb_lat
            if not l2_itlb_lookup(arg0):
                walks_inst += 1
                stall_itlb += walk_cycles
                hit, _, _ = l2_access(arg0 * lines_per_page)
                if not hit:
                    dram_reads += 1
                    dram_weight += 0.5

    return (
        stall_icache,
        stall_itlb,
        stall_dcache,
        stall_dtlb,
        dram_reads,
        dram_writes,
        dram_weight,
        walks_inst,
        walks_data,
    )


def _both(merged, machine, warm):
    """(kernel, oracle) outcomes, each on a fresh state."""
    merged = tuple(np.asarray(a) for a in merged)
    warm = tuple(np.asarray(seq, dtype=np.int64) for seq in warm)
    kernel = columnar_mod._l2_walk(merged, machine, warm)
    oracle = oracle_walk(merged, machine, _make_state(machine), warm)
    return kernel, oracle


def _assert_identical(kernel, oracle) -> None:
    walk, l2_stats, itlb_stats, dtlb_stats = kernel
    o_walk, o_l2_stats, o_itlb_stats, o_dtlb_stats = oracle
    # repr pins the bits and the types (the DRAM counts are floats).
    assert [repr(v) for v in walk] == [repr(v) for v in o_walk]
    assert l2_stats == o_l2_stats
    assert itlb_stats == o_itlb_stats
    assert dtlb_stats == o_dtlb_stats
    assert (itlb_stats is dtlb_stats) == (o_itlb_stats is o_dtlb_stats)


def _events(rows):
    kinds, arg0, arg1 = zip(*rows) if rows else ((), (), ())
    return (
        np.array(kinds, dtype=np.int8),
        np.array(arg0, dtype=np.int64),
        np.array(arg1, dtype=np.int64),
    )


@st.composite
def machines(draw):
    """Small, odd geometries and arbitrary overlap fractions."""
    fraction = st.floats(0.0, 1.0, allow_nan=False)
    return replace(
        hardware_a15(),
        mem_overlap=draw(fraction),
        dram_overlap=draw(fraction),
        store_miss_exposure=draw(fraction),
        l2=CacheGeometry(
            size_kb=draw(st.sampled_from([1, 2, 3])),
            assoc=draw(st.sampled_from([1, 2, 3, 4, 16])),
            latency=draw(st.integers(1, 30)),
            prefetch_degree=draw(st.sampled_from([0, 1, 4])),
        ),
        tlb=TlbHierarchyConfig(
            unified_l2=draw(st.booleans()),
            l2_entries=draw(st.sampled_from([4, 6, 12, 512])),
            l2_assoc=draw(st.sampled_from([1, 2, 4])),
            l2_latency=draw(st.integers(1, 8)),
            walk_cycles=draw(st.integers(1, 60)),
        ),
    )


_KEYS = st.integers(-24, 72)
_WARM = st.lists(_KEYS, max_size=60)
#: Run starts on a coarse grid, so that later runs revisit earlier ones.
_STARTS = st.builds(
    lambda base, offset: 8 * base + offset, st.integers(-3, 8), st.integers(0, 2)
)


@st.composite
def event_streams(draw):
    """Runs of one event kind over a strided key range.  Most runs are
    L1 misses, whose L2 misses train the prefetcher; strides include zero
    and negative ones, and the narrow key range makes reuse."""
    rows = []
    for kind, start, stride, length, arg1 in draw(st.lists(
        st.tuples(
            st.sampled_from([_EV_L1D_MISS, _EV_L1I_MISS, *range(8)]),
            _STARTS, st.integers(-3, 3), st.integers(4, 12), st.integers(0, 1),
        ),
        min_size=4, max_size=60,
    )):
        rows += [(kind, start + stride * i, arg1) for i in range(length)]
    return rows


@settings(max_examples=200, deadline=None)
@given(
    machine=machines(),
    rows=event_streams(),
    warm=st.tuples(_WARM, _WARM, _WARM, _WARM),
)
def test_kernel_matches_the_oracle(machine, rows, warm):
    _assert_identical(*_both(_events(rows), machine, warm))


@pytest.mark.parametrize("unified", [True, False], ids=["unified", "split"])
@pytest.mark.parametrize("degree", [0, 1, 4])
def test_every_path_is_taken(unified, degree):
    """A stream that writes back dirty victims, trains the prefetcher on
    ascending and descending strides into negative lines, and walks the
    page tables on both sides — on a 5-set L2."""
    machine = replace(
        hardware_a15(),
        l2=CacheGeometry(1, 3, 21, prefetch_degree=degree),
        tlb=replace(hardware_a15().tlb, unified_l2=unified, l2_entries=6,
                    l2_assoc=2),
    )
    assert lru_geometry(machine.l2.lines, machine.l2.assoc)[0] == 5
    rows = [(_EV_L1D_MISS, line, 1) for line in range(0, 60, 3)]
    rows += [(_EV_L1I_MISS, line, 0) for line in range(40, -40, -5)]
    rows += [(_EV_L1D_WB, line, 0) for line in range(0, 30)]
    rows += [(_EV_L1D_STREAM, line, 0) for line in range(100, 130)]
    rows += [(_EV_DTLB_MISS, page, 0) for page in (1, 2, 3, 1, -4, 9, 2)]
    rows += [(_EV_ITLB_MISS, page, 0) for page in (5, 6, 1, -2)]
    rows += [(_EV_WP_TLB, page, 0) for page in (7, 5, 8)]
    rows += [(_EV_WP_L1I, line, 0) for line in (3, 500, -7)]
    warm = ([1, 2, 3], [1, 2], list(range(20)), [3, 4])
    kernel, oracle = _both(_events(rows), machine, warm)
    _assert_identical(kernel, oracle)
    l2_stats = kernel[1]
    assert l2_stats.writebacks > 0
    assert (l2_stats.prefetches_issued > 0) == (degree > 0)
    walks_inst, walks_data = kernel[0][7:]
    assert walks_inst > 0 and walks_data > 0
    assert (kernel[2] is kernel[3]) == unified


def test_prefetch_leaves_a_resident_line_in_place():
    """A prefetch that finds its line resident does not touch it: the
    warmed line 3 stays least recent and is the one evicted."""
    machine = replace(
        hardware_a15(), l2=CacheGeometry(1, 16, 21, prefetch_degree=4)
    )
    rows = [(_EV_L1D_MISS, line, 0) for line in (0, 1, 2, *range(100, 110), 3)]
    kernel, oracle = _both(_events(rows), machine, ([], [], [3, 4, 5, 6], []))
    _assert_identical(kernel, oracle)
    assert kernel[1].read_misses == 10


@pytest.mark.parametrize("workload", ["mi-qsort", "parsec-canneal-1"])
@pytest.mark.parametrize(
    "machine_name", ["hw-a15", "gem5-ex5-big", "gem5-ex5-little", "hw-a7"]
)
def test_kernel_matches_the_oracle_on_real_streams(workload, machine_name):
    """The merged streams the engine builds, captured from one replay."""
    from repro.sim.machine import machine_by_name

    machine = machine_by_name(machine_name)
    trace = compile_trace(workload_by_name(workload), 8_000)
    captured = []
    real = columnar_mod._l2_walk

    def capture(merged, machine, warm):
        captured.append((merged, warm))
        return real(merged, machine, warm)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar_mod, "_l2_walk", capture)
        simulate(trace, machine)
    (merged, warm), = captured
    _assert_identical(*_both(merged, machine, warm))


def test_source_is_warning_clean(tmp_path):
    proc = subprocess.run(
        ["cc", *kernel_mod.FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "l2walk.so"), "-x", "c", "-"],
        input=kernel_mod.SOURCE, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """No kernel loaded, a private cache directory, and counted builds."""
    monkeypatch.setattr(kernel_mod, "_KERNEL", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache-home"))
    cache = tmp_path / "cache-home" / "repro"
    builds: list[str] = []
    real_build = kernel_mod._build

    def build(path):
        builds.append(path)
        return real_build(path)

    monkeypatch.setattr(kernel_mod, "_build", build)
    return cache, builds


def _walk_once():
    machine = hardware_a15()
    merged = _events([(_EV_L1D_MISS, 7, 0), (_EV_L1I_MISS, 9, 0)])
    warm = tuple(np.zeros(0, np.int64) for _ in range(4))
    return columnar_mod._l2_walk(merged, machine, warm)


def test_library_is_built_once_and_published_by_name(fresh_kernel, monkeypatch):
    cache, builds = fresh_kernel
    first = _walk_once()
    assert builds == [str(cache / kernel_mod.library_name())]
    # Only the library is left behind: the build directory is gone.
    assert os.listdir(cache) == [kernel_mod.library_name()]
    monkeypatch.setattr(kernel_mod, "_KERNEL", None)
    assert _walk_once() == first
    assert len(builds) == 1


def test_racing_builds_publish_one_loadable_library(fresh_kernel):
    """Two builders racing for one name (as campaign shards may) each
    rename a complete library over it; the survivor loads, and nothing
    else is left behind."""
    cache, builds = fresh_kernel
    cache.mkdir(parents=True)
    path = str(cache / kernel_mod.library_name())
    with ThreadPoolExecutor(2) as pool:
        list(pool.map(kernel_mod._build, [path, path]))
    assert os.listdir(cache) == [kernel_mod.library_name()]
    _walk_once()
    assert builds == [path, path]


def test_unwritable_cache_builds_in_a_temporary_directory(
    fresh_kernel, monkeypatch, tmp_path
):
    _, builds = fresh_kernel
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    _walk_once()
    (path,) = builds
    assert not os.path.exists(os.path.dirname(path))


def test_alternating_sources_share_one_cache(fresh_kernel, monkeypatch):
    """Two checkouts sharing one cache directory (a change and its parent)
    take turns: each one's library is built once and both stay."""
    cache, builds = fresh_kernel
    source_a, name_a = kernel_mod.SOURCE, kernel_mod.library_name()
    first = _walk_once()
    monkeypatch.setattr(kernel_mod, "SOURCE", source_a + "\n")
    name_b = kernel_mod.library_name()
    monkeypatch.setattr(kernel_mod, "_KERNEL", None)
    assert _walk_once() == first
    monkeypatch.setattr(kernel_mod, "SOURCE", source_a)
    monkeypatch.setattr(kernel_mod, "_KERNEL", None)
    assert _walk_once() == first
    assert builds == [str(cache / name_a), str(cache / name_b)]
    assert sorted(os.listdir(cache)) == sorted([name_a, name_b])


def test_a_publish_keeps_the_most_recently_used_libraries(tmp_path):
    """Use is the modification time, which a load refreshes: the newest
    ``_KEPT_LIBRARIES`` libraries stay, older ones go (the former L2-only
    module's too), and files that are not kernels stay."""
    kept = kernel_mod._KEPT_LIBRARIES
    names = ["l2walk-old.so"] + [f"kernel-{i}.so" for i in range(kept + 1)]
    for stamp, name in enumerate(names, start=1):
        (tmp_path / name).write_text("")
        os.utime(tmp_path / name, (stamp, stamp))
    (tmp_path / "notes.txt").write_text("")
    (tmp_path / "kernel-notes.txt").write_text("")
    os.utime(tmp_path / "kernel-1.so", (100, 100))  # loaded again
    kernel_mod._forget_least_recent(str(tmp_path))
    newest = ["kernel-1.so", *names[::-1][: kept - 1]]
    assert sorted(os.listdir(tmp_path)) == sorted(
        [*newest, "notes.txt", "kernel-notes.txt"]
    )


def test_a_library_removed_before_its_load_is_rebuilt(fresh_kernel, monkeypatch):
    """A peer publishing another source removes this one between the
    existence check and the load: the load rebuilds it once."""
    import ctypes

    cache, builds = fresh_kernel
    first = _walk_once()
    monkeypatch.setattr(kernel_mod, "_KERNEL", None)
    real_cdll = ctypes.CDLL
    loads: list[str] = []

    def racing_cdll(path, *args, **kwargs):
        loads.append(path)
        if len(loads) == 1:
            os.remove(path)
            raise OSError(f"{path}: cannot open shared object file")
        return real_cdll(path, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", racing_cdll)
    assert _walk_once() == first
    path = str(cache / kernel_mod.library_name())
    assert loads == [path, path]
    assert builds == [path, path]


def test_library_name_follows_source_and_flags(monkeypatch):
    name = kernel_mod.library_name()
    monkeypatch.setattr(kernel_mod, "FLAGS", (*kernel_mod.FLAGS, "-g"))
    assert kernel_mod.library_name() != name
    monkeypatch.undo()
    monkeypatch.setattr(kernel_mod, "SOURCE", kernel_mod.SOURCE + "\n")
    assert kernel_mod.library_name() != name


class TestBuildFailure:
    @pytest.fixture
    def no_compiler(self, fresh_kernel, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: None)

    def test_default_guard_falls_back_to_scalar(self, no_compiler):
        machine = hardware_a15()
        trace = compile_trace(workload_by_name("mi-sha"), 6_000)
        result, events, _ = guarded_simulate(
            trace, machine, plan=GuardPlan(level="sentinel")
        )
        assert [(e.kind, e.action) for e in events] == [
            ("engine-error", "fallback-scalar")
        ]
        assert "no C compiler" in events[0].detail
        assert compare_results(result, simulate(trace, machine, "scalar")) == []

    def test_unguarded_columnar_replay_raises(self, no_compiler):
        trace = compile_trace(workload_by_name("mi-sha"), 6_000)
        with pytest.raises(kernel_mod.KernelBuildError):
            guarded_simulate(trace, hardware_a15(), plan=GuardPlan(level="off"))

    def test_compiler_errors_are_reported(self, fresh_kernel, monkeypatch):
        monkeypatch.setattr(kernel_mod, "SOURCE", "this is not C\n")
        with pytest.raises(kernel_mod.KernelBuildError, match="cc exited"):
            _walk_once()
        cache, _ = fresh_kernel
        assert os.listdir(cache) == []
