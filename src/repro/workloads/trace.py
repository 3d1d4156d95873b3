"""Compiling workload profiles into deterministic ISA-level traces.

A trace is *block structured*: the static program is a pool of basic blocks
(each ending in exactly one branch), and the dynamic execution is a sequence
of block ids plus per-execution branch outcomes and memory addresses.  Both
simulators replay the identical trace, so any divergence in their statistics
is attributable purely to micro-architectural configuration — the property
the paper's methodology depends on.

The block structure also keeps simulation fast: the instruction side is
simulated per block (touching the block's cache lines and pages), the data
side per memory operation, and the branch predictor once per block.

It keeps compilation fast too.  A trace is a pure function of its recipe
(profile, length, seed) and of the order of the builder's random draws, so
the builder batches without moving a draw: each loop visit is one record,
expanded into the dynamic sequences with whole-array numpy once the visits
are drawn, and the addresses are generated stream by stream after one
stable group-by (see :class:`_TraceBuilder`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import zlib
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from repro.workloads.profile import WorkloadProfile

#: Instruction kind codes used in static block composition.
KIND_NAMES: tuple[str, ...] = (
    "int_alu",
    "mul",
    "div",
    "fp",
    "simd",
    "load",
    "store",
    "ldrex",
    "strex",
    "barrier",
    "branch",
)
KIND_INDEX: dict[str, int] = {name: i for i, name in enumerate(KIND_NAMES)}

CACHE_LINE_BYTES = 64
PAGE_BYTES = 4096
INSTRUCTION_BYTES = 4

CODE_BASE = 0x0001_0000
DATA_BASE = 0x1000_0000
LOCK_BASE = 0x2000_0000


class BranchClass(IntEnum):
    """Behavioural class of a static branch (one per basic block)."""

    LOOP = 0       # loop back-edge: taken except on loop exit
    PATTERN = 1    # short periodic pattern, history-predictable
    BIASED = 2     # Bernoulli(branch_bias)
    RANDOM = 3     # Bernoulli(0.5), data dependent
    CALL = 4       # direct call, always taken
    RETURN = 5     # procedure return, RAS-predictable
    INDIRECT = 6   # indirect jump (switch / virtual call)


class StreamKind(IntEnum):
    """Locality class of a memory-reference stream."""

    SEQ = 0
    STRIDE = 1
    RAND = 2
    LOCK = 3


@dataclass(frozen=True)
class MemSlot:
    """One static memory operation inside a block."""

    kind: int            # KIND_INDEX of load/store/ldrex/strex
    stream: int          # dynamic-address stream id
    unaligned: bool


@dataclass(frozen=True)
class StaticBlock:
    """A static basic block: straight-line instructions ending in a branch."""

    index: int
    addr: int
    n_instrs: int
    kind_counts: tuple[int, ...]      # indexed by KIND_INDEX, incl. the branch
    lines: tuple[int, ...]            # unique i-cache line ids covered
    pages: tuple[int, ...]            # unique i-page ids covered
    mem_slots: tuple[MemSlot, ...]
    branch_class: BranchClass
    branch_backward: bool
    pattern: tuple[bool, ...] = ()
    indirect_targets: tuple[int, ...] = ()

    @property
    def n_mem(self) -> int:
        return len(self.mem_slots)


@dataclass(frozen=True)
class Stream:
    """A dynamic memory-address stream shared by static slots."""

    index: int
    kind: StreamKind
    base: int
    span: int            # bytes of addressable region
    step: int            # bytes advanced per access (SEQ/STRIDE)


@dataclass
class ColumnarTrace:
    """Struct-of-arrays decode of one trace's dynamic execution.

    The columnar replay engine consumes whole event streams as numpy
    arrays instead of dispatching per instruction: the dynamic block
    sequence is expanded once into the exact instruction-side page/line
    fetch events (with the cross-block first-page/first-line dedup the
    scalar loop performs baked in), the flat data-side line/page/write
    columns, and the conditional-branch subsequence the branch predictor
    sees.  Everything here is machine-independent, so one decode serves
    every machine configuration the trace is replayed on.

    ``*_pos`` columns give the dynamic block index of each event.  Each
    stream is in program order, so its position and the phase of its
    stream within a block (pages, lines, memory operations) place every
    event in the scalar engine's exact order.
    """

    n_dyn: int
    block_seq: np.ndarray        # int32, dynamic block ids
    taken_seq: np.ndarray        # int8
    target_seq: np.ndarray       # int16
    class_seq: np.ndarray        # int8, branch class per dynamic block
    addr_seq: np.ndarray         # int64, branch PC per dynamic block
    backward_seq: np.ndarray     # bool
    wp_near_seq: np.ndarray      # int64, near wrong-path page per dynamic block
    # Instruction-side fetch events (dedup against the previous block applied).
    ipage_page: np.ndarray       # int64
    ipage_pos: np.ndarray        # int32
    iline_line: np.ndarray       # int64
    iline_pos: np.ndarray        # int32
    # Data-side columns, one row per dynamic memory operation.
    mem_line: np.ndarray         # int64
    mem_page: np.ndarray         # int64
    mem_write: np.ndarray        # bool
    mem_pos: np.ndarray          # int32
    # Conditional-branch subsequence (branch classes LOOP..RANDOM).
    cond_pos: np.ndarray         # int32, dynamic positions
    cond_pc: np.ndarray          # int64
    cond_taken: np.ndarray       # int8
    cond_backward: np.ndarray    # bool
    # Replay memos keyed by tuple (warm rows, verified per-pass results,
    # the guard's validation marker).  Purely an accelerator: replaying the
    # same trace on the same geometry (executor sweeps, repeated runs)
    # reuses them, and a pass result is reused only after its inputs
    # compare equal.
    memo: dict = field(default_factory=dict)
    # Content checksum over every immutable column, stamped at build time
    # (``memo`` excluded — it is mutable accelerator state).  The
    # guard layer re-verifies it before a decode's first guarded replay; 0
    # means "never stamped" (hand-built instances) and is skipped.
    checksum: int = 0


#: (attribute, dtype kind/itemsize, length group) contract for the decoded
#: form.  Arrays in the same length group must agree; ``"dyn"`` groups must
#: equal ``n_dyn`` exactly.
_COLUMN_SPEC: tuple[tuple[str, str, str], ...] = (
    ("block_seq", "i4", "dyn"),
    ("taken_seq", "i1", "dyn"),
    ("target_seq", "i2", "dyn"),
    ("class_seq", "i1", "dyn"),
    ("addr_seq", "i8", "dyn"),
    ("backward_seq", "b1", "dyn"),
    ("wp_near_seq", "i8", "dyn"),
    ("ipage_page", "i8", "ipage"),
    ("ipage_pos", "i4", "ipage"),
    ("iline_line", "i8", "iline"),
    ("iline_pos", "i4", "iline"),
    ("mem_line", "i8", "mem"),
    ("mem_page", "i8", "mem"),
    ("mem_write", "b1", "mem"),
    ("mem_pos", "i4", "mem"),
    ("cond_pos", "i4", "cond"),
    ("cond_pc", "i8", "cond"),
    ("cond_taken", "i1", "cond"),
    ("cond_backward", "b1", "cond"),
)


def columnar_checksum(cols: "ColumnarTrace") -> int:
    """Content checksum of a decode's immutable columns.

    A CRC over every column's raw bytes plus its shape and dtype, cheap
    enough (one pass over the arrays, no Python loop) to re-verify before
    every decode's first guarded replay.  ``memo`` and the stored
    ``checksum`` itself are excluded.
    """
    crc = zlib.crc32(str(cols.n_dyn).encode())
    for name, _, _ in _COLUMN_SPEC:
        arr = np.ascontiguousarray(getattr(cols, name))
        crc = zlib.crc32(f"{name}:{arr.dtype.str}:{arr.shape}".encode(), crc)
        crc = zlib.crc32(arr.tobytes(), crc)
    return crc & 0xFFFF_FFFF


def validate_columnar(cols: "ColumnarTrace") -> list[str]:
    """Check a decode against its shape/dtype/bounds contract + checksum.

    Returns a list of human-readable violations (empty = the decode is
    intact).  Used by the guard layer before a decode's first guarded
    replay: any violation means the decoded form was corrupted (or built
    against a different contract) and must be quarantined and re-decoded.
    """
    problems: list[str] = []
    lengths: dict[str, tuple[str, int]] = {}
    for name, kind, group in _COLUMN_SPEC:
        arr = getattr(cols, name)
        if not isinstance(arr, np.ndarray):
            problems.append(f"{name}: not an ndarray ({type(arr).__name__})")
            continue
        if arr.ndim != 1:
            problems.append(f"{name}: expected 1-D, got shape {arr.shape}")
            continue
        if arr.dtype != np.dtype(kind):
            problems.append(
                f"{name}: dtype {arr.dtype} != expected {np.dtype(kind)}"
            )
        if group == "dyn":
            if len(arr) != cols.n_dyn:
                problems.append(
                    f"{name}: length {len(arr)} != n_dyn {cols.n_dyn}"
                )
        elif group in lengths:
            first_name, first_len = lengths[group]
            if len(arr) != first_len:
                problems.append(
                    f"{name}: length {len(arr)} != {first_name} {first_len}"
                )
        else:
            lengths[group] = (name, len(arr))
    if not problems:
        # Bounds: every event position must name a real dynamic block.
        for name in ("ipage_pos", "iline_pos", "mem_pos", "cond_pos"):
            arr = getattr(cols, name)
            if arr.size and (
                int(arr.min()) < 0 or int(arr.max()) >= max(cols.n_dyn, 1)
            ):
                problems.append(f"{name}: positions outside [0, n_dyn)")
    if not problems and cols.checksum:
        actual = columnar_checksum(cols)
        if actual != cols.checksum:
            problems.append(
                f"checksum mismatch: stored {cols.checksum:#010x}, "
                f"recomputed {actual:#010x}"
            )
    return problems


@dataclass
class ReplayTables:
    """Machine-independent replay tables derived from one trace.

    The simulator's hot loop wants every static-block attribute as a flat
    parallel list indexed by block id (no dataclass attribute access per
    dynamic block).  None of it depends on the machine configuration, and
    every trace is simulated on at least two machines (hardware and
    model), so the tables are built once per trace object via
    :meth:`SyntheticTrace.replay_tables` and shared by every simulation of
    that object.

    ``page_tails`` / ``line_tails`` drop each block's first entry: pages
    and lines within a block are distinct and visited in order, so only a
    block's *first* page/line can coincide with the previously fetched
    one — the tail can be replayed without dedup checks.

    The columnar decode used by the vectorized engine hangs off the same
    memo (:meth:`columnar`), so the struct-of-arrays expansion is also
    performed exactly once per trace.  So do the dynamic sequences as
    Python lists (:meth:`dynamic_lists`), which only the scalar engine
    walks.
    """

    block_pages: list[tuple[int, ...]]
    block_lines: list[tuple[int, ...]]
    page_tails: list[tuple[int, ...]]
    line_tails: list[tuple[int, ...]]
    block_last_page: list[int]
    block_last_line: list[int]
    block_addr: list[int]
    block_class: list[int]
    block_backward: list[bool]
    block_n_mem: list[int]
    wp_near_page: list[int]
    mem_write_per_block: list[tuple[bool, ...]]
    code_lines: list[int]
    code_pages: list[int]
    _columnar: "ColumnarTrace | None" = None
    _dynamic: tuple[list[int], ...] | None = None

    def columnar(self, trace: "SyntheticTrace") -> ColumnarTrace:
        """The struct-of-arrays decode, built on first use and memoised."""
        if self._columnar is None:
            self._columnar = build_columnar_trace(trace, self)
        return self._columnar

    def dynamic_lists(self, trace: "SyntheticTrace") -> tuple[list[int], ...]:
        """The dynamic sequences as lists, built on first use and memoised.

        ``(block_seq, taken_seq, target_seq, mem_lines, mem_pages)``: the
        block ids, branch outcomes and INDIRECT targets per dynamic block,
        and the data-side line and page per memory operation.
        """
        if self._dynamic is None:
            self._dynamic = (
                trace.block_seq.tolist(),
                trace.taken_seq.tolist(),
                trace.indirect_target_seq.tolist(),
                (trace.mem_addrs // CACHE_LINE_BYTES).tolist(),
                (trace.mem_addrs // PAGE_BYTES).tolist(),
            )
        return self._dynamic


_KIND_LOAD = KIND_INDEX["load"]
_KIND_STORE = KIND_INDEX["store"]
_KIND_LDREX = KIND_INDEX["ldrex"]
_KIND_STREX = KIND_INDEX["strex"]


def build_replay_tables(trace: "SyntheticTrace") -> ReplayTables:
    """Flatten one trace into :class:`ReplayTables` (see its docstring)."""
    blocks = trace.blocks
    block_pages = [block.pages for block in blocks]
    block_lines = [block.lines for block in blocks]
    return ReplayTables(
        block_pages=block_pages,
        block_lines=block_lines,
        page_tails=[pages[1:] for pages in block_pages],
        line_tails=[lines[1:] for lines in block_lines],
        block_last_page=[pages[-1] for pages in block_pages],
        block_last_line=[lines[-1] for lines in block_lines],
        block_addr=[block.addr for block in blocks],
        block_class=[int(block.branch_class) for block in blocks],
        block_backward=[block.branch_backward for block in blocks],
        block_n_mem=[block.n_mem for block in blocks],
        wp_near_page=[pages[-1] + 1 for pages in block_pages],
        mem_write_per_block=[
            tuple(
                slot.kind == _KIND_STORE or slot.kind == _KIND_STREX
                for slot in block.mem_slots
            )
            for block in blocks
        ],
        code_lines=sorted({line for lines in block_lines for line in lines}),
        code_pages=sorted({page for pages in block_pages for page in pages}),
    )


def _expand_csr(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices for per-row variable-length slices, plus intra offsets.

    Given per-row slice starts and lengths into some flat array, returns
    ``(indices, intra)`` where ``flat[indices]`` concatenates the slices in
    row order and ``intra`` numbers each element within its row.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    out_off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out_off[1:])
    base = np.repeat(out_off[:-1], counts)
    intra = np.arange(total, dtype=np.int64) - base
    indices = np.repeat(starts.astype(np.int64), counts) + intra
    return indices, intra


def build_columnar_trace(
    trace: "SyntheticTrace", tables: ReplayTables
) -> ColumnarTrace:
    """Decode one trace into :class:`ColumnarTrace` struct-of-arrays form."""
    bs = np.asarray(trace.block_seq, dtype=np.int32)
    n_dyn = int(bs.size)
    taken = np.asarray(trace.taken_seq, dtype=np.int8)
    targets = np.asarray(trace.indirect_target_seq, dtype=np.int16)

    # Per-static-block flat page/line pools with CSR offsets.
    pages_flat = np.asarray(
        [page for pages in tables.block_pages for page in pages], dtype=np.int64
    )
    lines_flat = np.asarray(
        [line for lines in tables.block_lines for line in lines], dtype=np.int64
    )
    pages_len = np.asarray([len(p) for p in tables.block_pages], dtype=np.int64)
    lines_len = np.asarray([len(li) for li in tables.block_lines], dtype=np.int64)
    pages_off = np.zeros(len(pages_len) + 1, dtype=np.int64)
    np.cumsum(pages_len, out=pages_off[1:])
    lines_off = np.zeros(len(lines_len) + 1, dtype=np.int64)
    np.cumsum(lines_len, out=lines_off[1:])
    first_page = pages_flat[pages_off[:-1]] if pages_flat.size else pages_flat
    first_line = lines_flat[lines_off[:-1]] if lines_flat.size else lines_flat
    last_page = np.asarray(tables.block_last_page, dtype=np.int64)
    last_line = np.asarray(tables.block_last_line, dtype=np.int64)

    # Cross-block dedup: the scalar loop skips a block's first page/line when
    # it equals the previously fetched one.
    drop_page = np.zeros(n_dyn, dtype=np.int64)
    drop_line = np.zeros(n_dyn, dtype=np.int64)
    if n_dyn > 1:
        drop_page[1:] = first_page[bs[1:]] == last_page[bs[:-1]]
        drop_line[1:] = first_line[bs[1:]] == last_line[bs[:-1]]
    page_counts = pages_len[bs] - drop_page
    line_counts = lines_len[bs] - drop_line
    page_idx, _ = _expand_csr(pages_off[:-1][bs] + drop_page, page_counts)
    line_idx, _ = _expand_csr(lines_off[:-1][bs] + drop_line, line_counts)
    dyn_ids = np.arange(n_dyn, dtype=np.int32)
    ipage_pos = np.repeat(dyn_ids, page_counts)
    iline_pos = np.repeat(dyn_ids, line_counts)

    # Data side: the addresses are already flat in program order.
    mem_line = (trace.mem_addrs // CACHE_LINE_BYTES).astype(np.int64)
    mem_page = (trace.mem_addrs // PAGE_BYTES).astype(np.int64)
    write_flat = np.asarray(
        [w for ws in tables.mem_write_per_block for w in ws], dtype=bool
    )
    n_mem_len = np.asarray(tables.block_n_mem, dtype=np.int64)
    n_mem_off = np.zeros(len(n_mem_len) + 1, dtype=np.int64)
    np.cumsum(n_mem_len, out=n_mem_off[1:])
    mem_counts = n_mem_len[bs]
    mem_idx, _ = _expand_csr(n_mem_off[:-1][bs], mem_counts)
    mem_write = (
        write_flat[mem_idx] if write_flat.size else np.zeros(0, dtype=bool)
    )
    mem_pos = np.repeat(dyn_ids, mem_counts)

    class_seq = np.asarray(tables.block_class, dtype=np.int8)[bs]
    addr_seq = np.asarray(tables.block_addr, dtype=np.int64)[bs]
    backward_seq = np.asarray(tables.block_backward, dtype=bool)[bs]
    wp_near_seq = np.asarray(tables.wp_near_page, dtype=np.int64)[bs]

    cond_mask = class_seq <= int(BranchClass.RANDOM)
    cond_pos = np.flatnonzero(cond_mask).astype(np.int32)

    cols = ColumnarTrace(
        n_dyn=n_dyn,
        block_seq=bs,
        taken_seq=taken,
        target_seq=targets,
        class_seq=class_seq,
        addr_seq=addr_seq,
        backward_seq=backward_seq,
        wp_near_seq=wp_near_seq,
        ipage_page=pages_flat[page_idx],
        ipage_pos=ipage_pos,
        iline_line=lines_flat[line_idx],
        iline_pos=iline_pos,
        mem_line=mem_line,
        mem_page=mem_page,
        mem_write=mem_write,
        mem_pos=mem_pos,
        cond_pos=cond_pos,
        cond_pc=addr_seq[cond_mask],
        cond_taken=taken[cond_mask],
        cond_backward=backward_seq[cond_mask],
    )
    cols.checksum = columnar_checksum(cols)
    return cols


#: Bump when the trace builder's output changes for an unchanged recipe: it
#: feeds every recipe digest, so no older build's cached result is reused.
TRACE_COMPILER_VERSION = 1


#: Recipe digests by every input they hash, the compiler version included.
_RECIPE_DIGESTS: dict[tuple[int, WorkloadProfile, int, int], str] = {}


def recipe_digest(
    profile: WorkloadProfile, n_instrs: int, seed: int | None = None
) -> str:
    """Identity of the trace ``compile_trace(profile, n_instrs, seed)`` builds.

    A sha1 over every profile field, the *target* length, the resolved
    seed and :data:`TRACE_COMPILER_VERSION` — computable without compiling.
    Each distinct input is hashed once per process: the memo key holds the
    current compiler version, so a version bump never reads an older digest,
    and an edited profile is a new key.
    """
    seed = workload_seed(profile.name) if seed is None else seed
    key = (TRACE_COMPILER_VERSION, profile, int(n_instrs), int(seed))
    digest = _RECIPE_DIGESTS.get(key)
    if digest is None:
        payload = json.dumps(
            [key[0], dataclasses.asdict(profile), key[2], key[3]], sort_keys=True
        )
        digest = hashlib.sha1(payload.encode()).hexdigest()
        _RECIPE_DIGESTS[key] = digest
    return digest


@dataclass
class SyntheticTrace:
    """A compiled, machine-independent dynamic instruction trace.

    Attributes:
        name: Workload name.
        profile: The source profile.
        blocks: Static basic-block pool.
        streams: Memory-address streams.
        block_seq: Dynamic sequence of block indices.
        taken_seq: Branch outcome (taken) per dynamic block.
        indirect_target_seq: For INDIRECT blocks, index into the block's
            target list; ``-1`` elsewhere.
        mem_addrs: Byte addresses of all dynamic memory operations, in
            program order (each block consumes ``block.n_mem`` entries).
        totals: Dynamic instruction counts per kind name.
        branch_class_counts: Dynamic branch counts per :class:`BranchClass`.
        n_instrs: Total dynamic instructions.
        seed: Seed the trace was compiled with (reproducibility record).
        digest: Recipe digest stamped by :func:`compile_trace` (derived
            from the parent's by :func:`slice_trace`); equals the
            ``SimJob.recipe`` that names it in the result cache.
    """

    name: str
    profile: WorkloadProfile
    blocks: list[StaticBlock]
    streams: list[Stream]
    block_seq: np.ndarray
    taken_seq: np.ndarray
    indirect_target_seq: np.ndarray
    mem_addrs: np.ndarray
    totals: dict[str, int]
    branch_class_counts: dict[BranchClass, int]
    n_instrs: int
    seed: int
    digest: str
    _replay: ReplayTables | None = field(
        default=None, repr=False, compare=False
    )

    def replay_tables(self) -> ReplayTables:
        """The flattened replay tables, built on first use and memoised.

        The tables (with the columnar decode and its replay memos) live on
        this trace object and die with it: callers that replay one recipe
        several times — both machines, an improvement sweep — reuse one
        trace.
        """
        if self._replay is None:
            self._replay = build_replay_tables(self)
        return self._replay

    @property
    def n_branches(self) -> int:
        return int(len(self.block_seq))

    @property
    def n_mem_ops(self) -> int:
        return int(len(self.mem_addrs))

    @property
    def ilp(self) -> float:
        return self.profile.ilp

    def block_occurrences(self) -> np.ndarray:
        """Execution count per static block index."""
        return np.bincount(self.block_seq, minlength=len(self.blocks))


def workload_seed(name: str, purpose: str = "trace") -> int:
    """Deterministic seed derived from the workload name and purpose."""
    return zlib.crc32(f"{purpose}:{name}".encode()) & 0x7FFF_FFFF


def _draw_block_size(rng: np.random.Generator, mean: float) -> int:
    size = int(round(rng.normal(mean, mean * 0.35)))
    return max(3, min(size, 40))


def _build_pattern(rng: np.random.Generator, period: int) -> tuple[bool, ...]:
    pattern = rng.random(max(2, period)) < 0.5
    # Guarantee the pattern is non-constant so it genuinely needs history.
    if pattern.all() or not pattern.any():
        pattern[0] = not pattern[0]
    return tuple(bool(b) for b in pattern)


@dataclass
class _Function:
    """Static structure of one hot function during compilation."""

    index: int
    bodies: list[list[int]] = field(default_factory=list)  # loop bodies
    call_block: int | None = None
    return_block: int | None = None


def _trips_run(emitted: int, size: int, stop: float, trips: int) -> int:
    """Trips of a ``trips``-trip loop visit that actually run.

    The visit starts at ``emitted`` instructions and adds ``size`` per trip;
    it stops at the first trip boundary at or past ``stop``.
    """
    if emitted + trips * size < stop:
        return trips
    run = max(1, math.ceil((stop - emitted) / size))
    # The float division can land one off either way; step to the exact
    # boundary with the same integer-against-float test the loop makes.
    while run > 1 and emitted + (run - 1) * size >= stop:
        run -= 1
    while emitted + run * size < stop:
        run += 1
    return run


def _group_by(
    keys: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable group-by of ``keys`` (ints in ``[0, n_groups)``).

    Returns ``(order, counts, rank)``: ``keys[order]`` is sorted with each
    group's elements in their original order, ``counts`` holds the group
    sizes, and ``rank`` numbers each element of ``keys[order]`` within its
    group.
    """
    # The narrowest unsigned dtype that holds every key: numpy sorts 8- and
    # 16-bit integers stably with a radix sort.
    keys = keys.astype(np.min_scalar_type(max(n_groups - 1, 0)))
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=n_groups)
    _, rank = _expand_csr(np.zeros(n_groups, dtype=np.int64), counts)
    return order, counts, rank


_DRAWN_CLASSES = (BranchClass.BIASED, BranchClass.RANDOM)


class _TraceBuilder:
    """Single-use builder turning one profile into one trace.

    A trace is a pure function of (profile, length, seed): every random
    draw is made in one fixed order, and :data:`TRACE_COMPILER_VERSION`
    names that order.  The static program is built block by block.  The
    dynamic execution is batched without moving a draw, which two facts
    make exact:

    * a loop visit's trip count is drawn before the visit runs and its
      body's instruction count is fixed, so the trips it actually runs (up
      to the first trip boundary at or past 1.05 × the target) are known
      up front;
    * ``Generator.random(n)`` returns the same doubles as ``n`` scalar
      ``random()`` calls, and ``Generator.integers(0, h, n)`` the same
      values as ``n`` scalar ``integers(0, h)`` calls.

    So a visit to a body with no INDIRECT block draws all its BIASED and
    RANDOM outcomes with one ``random(trips · k)``, and a visit's
    call/return pairs draw their callees with one ``integers`` call when no
    function's entry block is INDIRECT.  An INDIRECT target's switch draw
    decides whether a second draw follows, so INDIRECT bodies and
    INDIRECT-entry pairs are drawn block by block.  Each visit is recorded
    as five integers, and :meth:`_assemble` expands the records into the
    dynamic sequences with whole-array numpy: LOOP outcomes from the trip
    numbers, PATTERN outcomes from each block's occurrence rank, BIASED and
    RANDOM outcomes from the draws in program order.
    """

    def __init__(self, profile: WorkloadProfile, n_instrs: int, seed: int):
        self.profile = profile
        self.target_instrs = n_instrs
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.blocks: list[StaticBlock] = []
        self.streams: list[Stream] = []
        self.functions: list[_Function] = []
        self._code_cursors: list[int] = []
        self._code_regions: list[tuple[int, int]] = []
        self._fn_streams: list[list[int]] = []
        self._lock_stream: int | None = None
        self._indirect_cursor: dict[int, int] = {}
        self._kind_probs = self._kind_probabilities()
        self._kind_credit = [0.0] * len(self._kind_probs)
        self._mean_block_size = min(40.0, max(3.0, 1.0 / max(profile.frac_branch, 0.03)))
        self._body_trips: dict[tuple[int, int], float] = {}
        # Midpoint start so the first loop created (often the hottest) gets
        # the majority treatment rather than always landing forward.
        self._backward_credit = 0.5

    # ------------------------------------------------------------------ static
    def _new_stream(self, kind: StreamKind, base: int, span: int, step: int) -> int:
        stream = Stream(len(self.streams), kind, base, span, step)
        self.streams.append(stream)
        return stream.index

    def _function_streams(self, fn_index: int) -> list[int]:
        """Per-function pool of data streams (SEQ, STRIDE, RAND)."""
        profile = self.profile
        data_bytes = int(profile.data_kb * 1024)
        n_functions = max(1, profile.n_functions)
        region = max(CACHE_LINE_BYTES * 8, data_bytes // n_functions)
        base = DATA_BASE + fn_index * region
        streams = [
            self._new_stream(StreamKind.SEQ, base, region, 8),
            self._new_stream(StreamKind.SEQ, base + region // 2, region, 4),
            self._new_stream(StreamKind.STRIDE, base, region, profile.stride_b),
            self._new_stream(StreamKind.RAND, DATA_BASE, data_bytes, 0),
            # Dedicated sequential *output* stream: streamed stores write
            # result buffers that are not concurrently read, which is what
            # lets the Cortex-A15's write-streaming detection engage.
            self._new_stream(StreamKind.SEQ, base + region // 4 * 3, region, 8),
        ]
        return streams

    def _pick_stream(self, fn_index: int, is_store: bool = False) -> int:
        profile = self.profile
        r = self.rng.random()
        pool = self._fn_streams[fn_index]
        if r < profile.frac_seq:
            if is_store:
                return pool[4]
            return pool[0] if self.rng.random() < 0.7 else pool[1]
        if r < profile.frac_seq + profile.frac_stride:
            return pool[2]
        return pool[3]

    def _lock_stream_id(self) -> int:
        if self._lock_stream is None:
            self._lock_stream = self._new_stream(
                StreamKind.LOCK, LOCK_BASE, CACHE_LINE_BYTES * 4, 0
            )
        return self._lock_stream

    def _alloc_block_addr(self, fn_index: int, size_bytes: int) -> int:
        start, end = self._code_regions[fn_index]
        cursor = self._code_cursors[fn_index]
        if cursor + size_bytes > end:
            cursor = start
        self._code_cursors[fn_index] = cursor + size_bytes
        return cursor

    def _kind_probabilities(self) -> list[float]:
        profile = self.profile
        probs = np.array(
            [
                profile.frac_int_alu,
                profile.frac_mul,
                profile.frac_div,
                profile.frac_fp,
                profile.frac_simd,
                profile.frac_load,
                profile.frac_store,
                profile.frac_ldrex,
                profile.frac_strex,
                profile.frac_barrier,
            ]
        )
        probs = np.clip(probs, 0.0, None)
        return (probs / probs.sum()).tolist()

    def _sample_kind_counts(self, n_body: int) -> list[int]:
        """Near-proportional instruction-kind allocation for one block.

        Largest-remainder rounding of the expected mix, with the leftover
        slots drawn proportionally to the fractional parts.  Hot loop bodies
        dominate dynamic execution, so every block must individually carry a
        representative mix or small workloads would drift badly from their
        profile.  Plain float arithmetic, term for term the IEEE operations
        of the vector form; ``index`` picks the first of equal credits, as
        ``argmax`` does.
        """
        expected = [p * n_body for p in self._kind_probs]
        counts = [math.floor(e) for e in expected]
        short = n_body - sum(counts)
        if short > 0:
            # Bresenham-style credit: every block pays each kind its
            # fractional share; the most-owed kinds get the leftover slots.
            # Deterministic and exactly proportional over many blocks, so a
            # rare kind (e.g. a 0.5% STREX rate) cannot displace a common one
            # in the handful of blocks a tiny workload has.
            credit = self._kind_credit
            for kind, (e, c) in enumerate(zip(expected, counts)):
                credit[kind] += e - c
            for _ in range(short):
                kind = credit.index(max(credit))
                counts[kind] += 1
                credit[kind] -= 1.0
        return counts

    def _make_block(
        self,
        fn_index: int,
        branch_class: BranchClass,
        backward: bool,
    ) -> int:
        profile = self.profile
        rng = self.rng
        if branch_class == BranchClass.LOOP:
            # Loop blocks dominate dynamic execution; pinning their size to
            # the mean keeps the realised branch fraction on target even for
            # workloads with only a handful of static blocks.
            n_instrs = max(3, round(self._mean_block_size))
        else:
            n_instrs = _draw_block_size(rng, self._mean_block_size)
        counts = self._sample_kind_counts(n_instrs - 1)
        size_bytes = n_instrs * INSTRUCTION_BYTES
        addr = self._alloc_block_addr(fn_index, size_bytes)
        last_byte = addr + size_bytes - 1

        mem_slots: list[MemSlot] = []
        for code in (_KIND_LOAD, _KIND_STORE):
            for _ in range(counts[code]):
                stream = self._pick_stream(fn_index, is_store=code == _KIND_STORE)
                unaligned = bool(rng.random() < profile.frac_unaligned)
                mem_slots.append(MemSlot(code, stream, unaligned))
        for code in (_KIND_LDREX, _KIND_STREX):
            for _ in range(counts[code]):
                mem_slots.append(MemSlot(code, self._lock_stream_id(), False))
        rng.shuffle(mem_slots)  # interleave loads/stores in program order

        pattern: tuple[bool, ...] = ()
        if branch_class == BranchClass.PATTERN:
            pattern = _build_pattern(rng, profile.pattern_period)

        indirect_targets: tuple[int, ...] = ()
        if branch_class == BranchClass.INDIRECT:
            indirect_targets = tuple(range(int(rng.integers(2, 9))))

        block = StaticBlock(
            index=len(self.blocks),
            addr=addr,
            n_instrs=n_instrs,
            kind_counts=(*counts, 1),  # the terminal branch
            lines=tuple(
                range(addr // CACHE_LINE_BYTES, last_byte // CACHE_LINE_BYTES + 1)
            ),
            pages=tuple(range(addr // PAGE_BYTES, last_byte // PAGE_BYTES + 1)),
            mem_slots=tuple(mem_slots),
            branch_class=branch_class,
            branch_backward=backward,
            pattern=pattern,
            indirect_targets=indirect_targets,
        )
        self.blocks.append(block)
        return block.index

    def _conditional_class(self) -> BranchClass:
        """Class of a non-back-edge conditional branch, per profile mix."""
        profile = self.profile
        total = (
            profile.pattern_branch_frac
            + profile.biased_branch_frac
            + profile.random_branch_frac
        )
        if total <= 0:
            return BranchClass.BIASED
        r = self.rng.random() * total
        if r < profile.pattern_branch_frac:
            return BranchClass.PATTERN
        if r < profile.pattern_branch_frac + profile.biased_branch_frac:
            return BranchClass.BIASED
        return BranchClass.RANDOM

    def _sample_body_length(self) -> int:
        """Draw a loop-body length targeting the profile's back-edge fraction.

        A loop body of ``k`` blocks executes ``k`` branches per iteration of
        which exactly one is the back-edge, so across bodies (weighted by the
        branches each executes) the dynamic back-edge fraction is ``1/E[k]``.
        A two-point mixture on consecutive integer lengths hits any target
        mean exactly.
        """
        target = min(1.0, max(0.12, self.profile.loop_branch_frac))
        mean_k = 1.0 / target
        k0 = int(mean_k)
        k1 = k0 + 1
        if abs(k0 - mean_k) < 1e-9:
            return k0
        weight_k0 = k1 - mean_k
        return k0 if self.rng.random() < weight_k0 else k1

    def _build_static(self) -> None:
        profile = self.profile
        code_bytes = int(profile.code_kb * 1024)
        n_functions = max(1, profile.n_functions)
        region = max(256, code_bytes // n_functions)
        # Dynamic indirect fraction = (static indirect share of non-back-edge
        # blocks) * (non-back-edge dynamic fraction); solve for the former.
        non_backedge = max(1e-6, 1.0 - profile.loop_branch_frac)
        p_indirect = min(0.8, profile.indirect_frac / non_backedge)

        for fn_index in range(n_functions):
            start = CODE_BASE + fn_index * region
            self._code_regions.append((start, start + region))
            self._code_cursors.append(start)
            self._fn_streams.append(self._function_streams(fn_index))

            function = _Function(fn_index)
            n_bodies = int(self.rng.integers(1, 4))
            for _ in range(n_bodies):
                body_len = self._sample_body_length()
                body: list[int] = []
                for position in range(body_len):
                    is_backedge = position == body_len - 1
                    if is_backedge:
                        cls = BranchClass.LOOP
                        # Deterministic proportional assignment: coin flips
                        # over the handful of static loops a small workload
                        # has would make its realised backward fraction (and
                        # hence its sensitivity to the model's BP bug) a
                        # lottery.
                        self._backward_credit += profile.effective_backward_loop_frac
                        backward = self._backward_credit >= 1.0 - 1e-9
                        if backward:
                            self._backward_credit -= 1.0
                    elif self.rng.random() < p_indirect:
                        cls, backward = BranchClass.INDIRECT, False
                    else:
                        cls, backward = self._conditional_class(), False
                    body.append(self._make_block(fn_index, cls, backward))
                function.bodies.append(body)
            function.call_block = self._make_block(fn_index, BranchClass.CALL, False)
            function.return_block = self._make_block(fn_index, BranchClass.RETURN, False)
            self.functions.append(function)

    # ----------------------------------------------------------------- dynamic
    def _indirect_target(self, block_id: int) -> int:
        """Next target of an INDIRECT block: one switch draw, maybe a pick."""
        # Zipf-ish skew: a dominant target with occasional switches, which a
        # real indirect predictor captures and a plain BTB partially does.
        cursor = self._indirect_cursor.get(block_id, 0)
        if self.rng.random() < 0.25:
            n = len(self.blocks[block_id].indirect_targets)
            cursor = int(self.rng.integers(0, n))
            self._indirect_cursor[block_id] = cursor
        return cursor

    def _draw_body_per_block(
        self,
        body: list[int],
        trips: int,
        draws: list,
        targets: list[int],
    ) -> None:
        """The draws of ``trips`` trips of a body with an INDIRECT block."""
        rng = self.rng
        classes = [(b, self.blocks[b].branch_class) for b in body]
        drawn: list[float] = []
        for _ in range(trips):
            for block_id, cls in classes:
                if cls in _DRAWN_CLASSES:
                    drawn.append(rng.random())
                elif cls == BranchClass.INDIRECT:
                    targets.append(self._indirect_target(block_id))
        if drawn:
            draws.append(drawn)

    def _draw_pairs_per_block(
        self, fn_index: int, n_pairs: int, targets: list[int]
    ) -> list[int]:
        """Callees of ``n_pairs`` call/return pairs, drawing INDIRECT entries."""
        rng = self.rng
        n_functions = len(self.functions)
        callees = []
        for _ in range(n_pairs):
            callee = int(rng.integers(0, n_functions))
            if callee == fn_index:
                continue
            callees.append(callee)
            entry = self.functions[callee].bodies[0][0]
            if self.blocks[entry].branch_class == BranchClass.INDIRECT:
                targets.append(self._indirect_target(entry))
        return callees

    def build(self) -> SyntheticTrace:
        self._build_static()
        profile = self.profile
        rng = self.rng
        blocks = self.blocks
        functions = self.functions
        n_functions = len(functions)

        # Bodies are numbered in function order; ``body_ids[f][i]`` names
        # body ``i`` of function ``f``.
        bodies: list[list[int]] = []
        body_ids: list[list[int]] = []
        for function in functions:
            body_ids.append(list(range(len(bodies), len(bodies) + len(function.bodies))))
            bodies.extend(function.bodies)
        classes = [[blocks[b].branch_class for b in body] for body in bodies]
        body_instrs = [sum(blocks[b].n_instrs for b in body) for body in bodies]
        body_draws = [sum(c in _DRAWN_CLASSES for c in cls) for cls in classes]
        body_indirect = [BranchClass.INDIRECT in cls for cls in classes]
        # Per function: its call block, entry block and return block.
        pair_blocks = np.asarray(
            [(fn.call_block, fn.bodies[0][0], fn.return_block) for fn in functions],
            dtype=np.int32,
        )
        pair_instrs = np.asarray([b.n_instrs for b in blocks])[pair_blocks]
        call_instrs = pair_instrs[:, 0].tolist()
        callee_instrs = (pair_instrs[:, 1] + pair_instrs[:, 2]).tolist()
        # Call/return pairs interleaved with loop visits, at a rate that
        # makes returns the requested fraction of dynamic branches.  Each
        # pair emits three branches (call, callee block, return), of which
        # one is the return.
        with_pairs = n_functions > 1 and profile.return_frac > 0
        pair_rate = profile.return_frac / max(1e-6, 1.0 - 3.0 * profile.return_frac)
        batch_pairs = all(
            blocks[b].branch_class != BranchClass.INDIRECT for b in pair_blocks[:, 1]
        )
        stop = self.target_instrs * 1.05

        # One record per loop visit: (function, body, trips run, trips, pairs).
        visits: list[tuple[int, int, int, int, int]] = []
        callees: list[int] = []
        draws: list = []  # BIASED/RANDOM outcome draws, in program order
        targets: list[int] = []  # INDIRECT targets, in program order
        emitted = 0
        fn_index = int(rng.integers(0, n_functions))

        while emitted < self.target_instrs:
            if rng.random() > 0.7:
                fn_index = int(rng.integers(0, n_functions))
            function = functions[fn_index]
            body_index = int(rng.integers(0, len(function.bodies)))
            # Trip counts are a property of the static loop (with small
            # per-visit jitter): real inner loops have stable, learnable
            # iteration counts, which is what lets the hardware predictor
            # reach its measured ~96 % accuracy.
            base_trips = self._body_trips.get((fn_index, body_index))
            if base_trips is None:
                base_trips = max(1.0, rng.exponential(profile.loop_trip_mean))
                self._body_trips[(fn_index, body_index)] = base_trips
            trips = max(1, int(round(base_trips * rng.uniform(0.85, 1.15))))
            body = body_ids[fn_index][body_index]
            run = _trips_run(emitted, body_instrs[body], stop, trips)
            emitted += run * body_instrs[body]
            if body_indirect[body]:
                self._draw_body_per_block(bodies[body], run, draws, targets)
            elif body_draws[body]:
                draws.append(rng.random(run * body_draws[body]))
            kept: list[int] = []
            if with_pairs:
                n_pairs = int(rng.poisson(pair_rate * run * len(bodies[body])))
                if n_pairs and batch_pairs:
                    # A callee equal to the caller is skipped, its draw spent.
                    kept = [
                        c for c in rng.integers(0, n_functions, n_pairs).tolist()
                        if c != fn_index
                    ]
                elif n_pairs:
                    kept = self._draw_pairs_per_block(fn_index, n_pairs, targets)
                if kept:
                    callees.extend(kept)
                    emitted += len(kept) * call_instrs[fn_index] + sum(
                        callee_instrs[c] for c in kept
                    )
            visits.append((fn_index, body, run, trips, len(kept)))

        return self._finalise(
            *self._assemble(bodies, pair_blocks, visits, callees, draws, targets)
        )

    def _assemble(
        self,
        bodies: list[list[int]],
        pair_blocks: np.ndarray,
        visits: list[tuple[int, int, int, int, int]],
        callees: list[int],
        draws: list,
        targets: list[int],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Expand the visit records into the dynamic sequences.

        Returns ``(block_seq, taken_seq, target_seq, class_seq)``.  Each
        visit emits its body ``trips run`` times, then its call/return
        pairs (caller's call block, callee's entry block, callee's return
        block).  Pair branches are all taken; a loop body's outcomes follow
        its blocks' classes.
        """
        blocks = self.blocks
        block_class = np.asarray([b.branch_class for b in blocks], dtype=np.int8)
        body_len = np.asarray([len(body) for body in bodies], dtype=np.int64)
        body_start = np.zeros(len(bodies), dtype=np.int64)
        np.cumsum(body_len[:-1], out=body_start[1:])
        body_pool = np.asarray(
            [b for body in bodies for b in body], dtype=np.int32
        )

        fn, body, run, trips, pairs = np.asarray(visits, dtype=np.int64).T
        k = body_len[body]
        n_body = run * k
        n_pair = 3 * pairs
        visit_start = np.zeros(len(visits), dtype=np.int64)
        np.cumsum((n_body + n_pair)[:-1], out=visit_start[1:])
        n_dyn = int(n_body.sum() + n_pair.sum())

        block_seq = np.empty(n_dyn, dtype=np.int32)
        body_pos, intra = _expand_csr(visit_start, n_body)
        k_rep = np.repeat(k, n_body)
        trip = intra // k_rep
        block_seq[body_pos] = body_pool[
            np.repeat(body_start[body], n_body) + intra - trip * k_rep
        ]
        if callees:
            pair_pos, _ = _expand_csr(visit_start + n_body, n_pair)
            callee = np.asarray(callees, dtype=np.int64)
            caller = np.repeat(fn, pairs)
            block_seq[pair_pos] = np.column_stack(
                (
                    pair_blocks[caller, 0],
                    pair_blocks[callee, 1],
                    pair_blocks[callee, 2],
                )
            ).ravel()

        class_seq = block_class[block_seq]
        taken_seq = np.ones(n_dyn, dtype=np.int8)
        body_class = class_seq[body_pos]
        # LOOP: taken on every trip but the visit's last drawn one, so a
        # visit cut short at the length target ends on a taken back-edge.
        loop = body_class == BranchClass.LOOP
        last_trip = np.repeat(trips - 1, n_body)
        taken_seq[body_pos[loop]] = trip[loop] < last_trip[loop]
        # PATTERN: each block steps through its own pattern once per
        # execution inside a loop body (pair executions do not step it).
        pattern = body_class == BranchClass.PATTERN
        if pattern.any():
            pos = body_pos[pattern]
            order, _, rank = _group_by(block_seq[pos], len(blocks))
            period = max(2, self.profile.pattern_period)
            table = np.zeros((len(blocks), period), dtype=np.int8)
            for block in blocks:
                if block.pattern:
                    table[block.index] = block.pattern
            taken_seq[pos[order]] = table[block_seq[pos[order]], rank % period]
        # BIASED / RANDOM: one uniform draw each, in program order.
        drawn = (body_class == BranchClass.BIASED) | (body_class == BranchClass.RANDOM)
        if drawn.any():
            threshold = np.where(
                body_class[drawn] == BranchClass.BIASED, self.profile.branch_bias, 0.5
            )
            taken_seq[body_pos[drawn]] = np.concatenate(draws) < threshold

        target_seq = np.full(n_dyn, -1, dtype=np.int16)
        if targets:
            target_seq[class_seq == BranchClass.INDIRECT] = targets
        return block_seq, taken_seq, target_seq, class_seq

    def _finalise(
        self,
        block_seq: np.ndarray,
        taken_seq: np.ndarray,
        target_seq: np.ndarray,
        class_seq: np.ndarray,
    ) -> SyntheticTrace:
        occurrences = np.bincount(block_seq, minlength=len(self.blocks))

        counts_matrix = np.asarray([b.kind_counts for b in self.blocks], dtype=np.int64)
        total_per_kind = occurrences @ counts_matrix
        totals = {name: int(total_per_kind[i]) for i, name in enumerate(KIND_NAMES)}

        per_class = np.bincount(class_seq, minlength=len(BranchClass))
        class_counts = {cls: int(per_class[cls]) for cls in BranchClass}

        return SyntheticTrace(
            name=self.profile.name,
            profile=self.profile,
            blocks=self.blocks,
            streams=self.streams,
            block_seq=block_seq,
            taken_seq=taken_seq,
            indirect_target_seq=target_seq,
            mem_addrs=self._generate_addresses(block_seq),
            totals=totals,
            branch_class_counts=class_counts,
            n_instrs=int(total_per_kind.sum()),
            seed=self.seed,
            digest=recipe_digest(self.profile, self.target_instrs, self.seed),
        )

    def _generate_addresses(self, block_seq: np.ndarray) -> np.ndarray:
        """Every dynamic memory operation's address, in program order.

        The operations are grouped by stream with one stable sort, so each
        stream sees its accesses in program order: SEQ/STRIDE streams
        advance one step per access, and RAND/LOCK streams draw their
        offsets in one call each, stream by stream in index order.
        """
        blocks = self.blocks
        streams = self.streams
        n_mem = np.asarray([b.n_mem for b in blocks], dtype=np.int64)
        mem_start = np.zeros(len(blocks), dtype=np.int64)
        np.cumsum(n_mem[:-1], out=mem_start[1:])
        slot_stream = np.asarray(
            [slot.stream for b in blocks for slot in b.mem_slots], dtype=np.int64
        )
        slot_idx, _ = _expand_csr(mem_start[block_seq], n_mem[block_seq])
        mem_streams = slot_stream[slot_idx]
        mem_addrs = np.zeros(len(mem_streams), dtype=np.uint64)
        if not len(mem_streams):
            return mem_addrs

        order, counts, rank = _group_by(mem_streams, len(streams))
        kind = np.asarray([s.kind for s in streams], dtype=np.int64)
        base = np.asarray([s.base for s in streams], dtype=np.int64)
        step = np.asarray([s.step for s in streams], dtype=np.int64)
        span = np.asarray([s.span for s in streams], dtype=np.int64)
        wrap = np.where(kind <= StreamKind.STRIDE, np.maximum(span, step), 1)
        sid = np.repeat(np.arange(len(streams)), counts)
        addrs = base[sid] + (rank * step[sid]) % wrap[sid]
        stream_start = np.zeros(len(streams), dtype=np.int64)
        np.cumsum(counts[:-1], out=stream_start[1:])
        for stream in streams:
            count = int(counts[stream.index])
            if count == 0 or stream.kind in (StreamKind.SEQ, StreamKind.STRIDE):
                continue
            lo = int(stream_start[stream.index])
            if stream.kind == StreamKind.RAND:
                offsets = self.rng.integers(0, max(stream.span // 4, 1), count) * 4
            else:  # LOCK: a handful of contended words
                offsets = self.rng.integers(0, 4, count) * CACHE_LINE_BYTES
            addrs[lo:lo + count] = stream.base + offsets
        mem_addrs[order] = addrs.astype(np.uint64)
        return mem_addrs


def window_digest(digest: str, start: int, end: int) -> str:
    """Digest of the window ``[start, end)`` of the trace named ``digest``."""
    return hashlib.sha1(f"{digest}[{start}:{end}]".encode()).hexdigest()


def slice_trace(trace: SyntheticTrace, start: int, end: int) -> SyntheticTrace:
    """A contiguous dynamic window ``[start, end)`` of a trace.

    The static program (blocks, streams) is shared; the dynamic sequences
    and per-kind totals are recomputed for the window, and the window's
    digest is derived from the parent's digest and the bounds.  Used by the
    run-time power analysis to evaluate power per execution window.

    Raises:
        ValueError: For an empty or out-of-range window.
    """
    n_blocks = len(trace.block_seq)
    if not 0 <= start < end <= n_blocks:
        raise ValueError(
            f"window [{start}, {end}) invalid for {n_blocks} dynamic blocks"
        )
    n_mem = np.asarray([b.n_mem for b in trace.blocks], dtype=np.int64)
    block_seq = trace.block_seq[start:end]
    mem_start = int(n_mem[trace.block_seq[:start]].sum())
    mem_end = mem_start + int(n_mem[block_seq].sum())

    occurrences = np.bincount(block_seq, minlength=len(trace.blocks))
    counts_matrix = np.asarray(
        [b.kind_counts for b in trace.blocks], dtype=np.int64
    )
    total_per_kind = occurrences @ counts_matrix
    totals = {name: int(total_per_kind[i]) for i, name in enumerate(KIND_NAMES)}

    class_counts: dict[BranchClass, int] = {cls: 0 for cls in BranchClass}
    for block in trace.blocks:
        if occurrences[block.index]:
            class_counts[block.branch_class] += int(occurrences[block.index])

    return SyntheticTrace(
        name=f"{trace.name}[{start}:{end}]",
        profile=trace.profile,
        blocks=trace.blocks,
        streams=trace.streams,
        block_seq=block_seq,
        taken_seq=trace.taken_seq[start:end],
        indirect_target_seq=trace.indirect_target_seq[start:end],
        mem_addrs=trace.mem_addrs[mem_start:mem_end],
        totals=totals,
        branch_class_counts=class_counts,
        n_instrs=int(total_per_kind.sum()),
        seed=trace.seed,
        digest=window_digest(trace.digest, start, end),
    )


def compile_trace(
    profile: WorkloadProfile,
    n_instrs: int = 60_000,
    seed: int | None = None,
) -> SyntheticTrace:
    """Compile a workload profile into a deterministic dynamic trace.

    Args:
        profile: The workload description.
        n_instrs: Approximate dynamic instruction count; the builder stops at
            the first block boundary past this target.
        seed: RNG seed; defaults to a stable hash of the workload name, so
            repeated compilations are bit-identical.

    Returns:
        The compiled :class:`SyntheticTrace`.
    """
    if n_instrs < 500:
        raise ValueError("n_instrs must be at least 500 for a meaningful trace")
    if seed is None:
        seed = workload_seed(profile.name)
    return _TraceBuilder(profile, n_instrs, seed).build()
