"""The per-block trace builder, kept as the oracle of the batched one.

Until the compiler was batched, :class:`repro.workloads.trace._TraceBuilder`
made one Python round-trip per dynamic block: one ``_emit_outcome`` and one
``_emit_indirect_target`` call each, and ``_generate_addresses`` masked the
whole memory-op array once per stream.  That builder is kept here verbatim
(static build included) as :class:`ReferenceTraceBuilder`.  The batched
builder must draw the same random numbers in the same order, so for every
profile, seed and length both produce the same trace, array for array
(``tests/workloads/test_trace_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import (
    CACHE_LINE_BYTES,
    CODE_BASE,
    DATA_BASE,
    INSTRUCTION_BYTES,
    KIND_INDEX,
    KIND_NAMES,
    LOCK_BASE,
    PAGE_BYTES,
    BranchClass,
    MemSlot,
    StaticBlock,
    Stream,
    StreamKind,
    SyntheticTrace,
    _build_pattern,
    _draw_block_size,
    _Function,
    recipe_digest,
)


class ReferenceTraceBuilder:
    """The per-block trace builder, kept verbatim as the oracle."""

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
        self._pattern_counters: dict[int, int] = {}
        self._indirect_cursor: dict[int, int] = {}
        self._kind_credit = np.zeros(10, dtype=float)
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

    def _kind_probs(self) -> np.ndarray:
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
        return probs / probs.sum()

    def _sample_kind_counts(self, n_body: int) -> np.ndarray:
        """Near-proportional instruction-kind allocation for one block.

        Largest-remainder rounding of the expected mix, with the leftover
        slots drawn proportionally to the fractional parts.  Hot loop bodies
        dominate dynamic execution, so every block must individually carry a
        representative mix or small workloads would drift badly from their
        profile.
        """
        expected = self._kind_probs() * n_body
        counts = np.floor(expected).astype(np.int64)
        short = n_body - int(counts.sum())
        if short > 0:
            # Bresenham-style credit: every block pays each kind its
            # fractional share; the most-owed kinds get the leftover slots.
            # Deterministic and exactly proportional over many blocks, so a
            # rare kind (e.g. a 0.5% STREX rate) cannot displace a common one
            # in the handful of blocks a tiny workload has.
            self._kind_credit += expected - counts
            for _ in range(short):
                kind = int(np.argmax(self._kind_credit))
                counts[kind] += 1
                self._kind_credit[kind] -= 1.0
        return counts

    def _make_block(
        self,
        fn_index: int,
        branch_class: BranchClass,
        backward: bool,
    ) -> int:
        profile = self.profile
        mean_size = min(40.0, max(3.0, 1.0 / max(profile.frac_branch, 0.03)))
        if branch_class == BranchClass.LOOP:
            # Loop blocks dominate dynamic execution; pinning their size to
            # the mean keeps the realised branch fraction on target even for
            # workloads with only a handful of static blocks.
            n_instrs = max(3, round(mean_size))
        else:
            n_instrs = _draw_block_size(self.rng, mean_size)
        counts = self._sample_kind_counts(n_instrs - 1)
        addr = self._alloc_block_addr(fn_index, n_instrs * INSTRUCTION_BYTES)

        first_line = addr // CACHE_LINE_BYTES
        last_line = (addr + n_instrs * INSTRUCTION_BYTES - 1) // CACHE_LINE_BYTES
        lines = tuple(range(first_line, last_line + 1))
        pages = tuple(sorted({line * CACHE_LINE_BYTES // PAGE_BYTES for line in lines}))

        mem_slots: list[MemSlot] = []
        for kind_name, code in (
            ("load", KIND_INDEX["load"]),
            ("store", KIND_INDEX["store"]),
        ):
            for _ in range(int(counts[code])):
                mem_slots.append(
                    MemSlot(
                        kind=code,
                        stream=self._pick_stream(fn_index, is_store=kind_name == "store"),
                        unaligned=bool(self.rng.random() < profile.frac_unaligned),
                    )
                )
        for code in (KIND_INDEX["ldrex"], KIND_INDEX["strex"]):
            for _ in range(int(counts[code])):
                mem_slots.append(MemSlot(kind=code, stream=self._lock_stream_id(), unaligned=False))
        self.rng.shuffle(mem_slots)  # interleave loads/stores in program order

        full_counts = list(int(c) for c in counts)
        full_counts.append(1)  # the terminal branch

        pattern: tuple[bool, ...] = ()
        if branch_class == BranchClass.PATTERN:
            pattern = _build_pattern(self.rng, profile.pattern_period)

        indirect_targets: tuple[int, ...] = ()
        if branch_class == BranchClass.INDIRECT:
            n_targets = int(self.rng.integers(2, 9))
            indirect_targets = tuple(range(n_targets))

        block = StaticBlock(
            index=len(self.blocks),
            addr=addr,
            n_instrs=n_instrs,
            kind_counts=tuple(full_counts),
            lines=lines,
            pages=pages,
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
    def _emit_outcome(self, block: StaticBlock, loop_taken: bool | None) -> bool:
        cls = block.branch_class
        if cls == BranchClass.LOOP:
            assert loop_taken is not None
            return loop_taken
        if cls == BranchClass.PATTERN:
            count = self._pattern_counters.get(block.index, 0)
            self._pattern_counters[block.index] = count + 1
            return block.pattern[count % len(block.pattern)]
        if cls == BranchClass.BIASED:
            return bool(self.rng.random() < self.profile.branch_bias)
        if cls == BranchClass.RANDOM:
            return bool(self.rng.random() < 0.5)
        # CALL / RETURN / INDIRECT are unconditionally taken.
        return True

    def _emit_indirect_target(self, block: StaticBlock) -> int:
        if block.branch_class != BranchClass.INDIRECT:
            return -1
        n = len(block.indirect_targets)
        # Zipf-ish skew: a dominant target with occasional switches, which a
        # real indirect predictor captures and a plain BTB partially does.
        cursor = self._indirect_cursor.get(block.index, 0)
        if self.rng.random() < 0.25:
            cursor = int(self.rng.integers(0, n))
            self._indirect_cursor[block.index] = cursor
        return cursor

    def build(self) -> SyntheticTrace:
        self._build_static()
        profile = self.profile
        rng = self.rng

        block_seq: list[int] = []
        taken_seq: list[bool] = []
        target_seq: list[int] = []
        emitted = 0
        fn_index = int(rng.integers(0, len(self.functions)))

        while emitted < self.target_instrs:
            if rng.random() > 0.7:
                fn_index = int(rng.integers(0, len(self.functions)))
            function = self.functions[fn_index]
            body_index = int(rng.integers(0, len(function.bodies)))
            body = function.bodies[body_index]
            # Trip counts are a property of the static loop (with small
            # per-visit jitter): real inner loops have stable, learnable
            # iteration counts, which is what lets the hardware predictor
            # reach its measured ~96 % accuracy.
            base_trips = self._body_trips.get((fn_index, body_index))
            if base_trips is None:
                base_trips = max(1.0, rng.exponential(profile.loop_trip_mean))
                self._body_trips[(fn_index, body_index)] = base_trips
            trips = max(1, int(round(base_trips * rng.uniform(0.85, 1.15))))
            branches_in_visit = 0
            for trip in range(trips):
                for position, block_id in enumerate(body):
                    block = self.blocks[block_id]
                    is_last = position == len(body) - 1
                    loop_taken = (trip < trips - 1) if is_last else None
                    block_seq.append(block_id)
                    taken_seq.append(self._emit_outcome(block, loop_taken))
                    target_seq.append(self._emit_indirect_target(block))
                    emitted += block.n_instrs
                    branches_in_visit += 1
                if emitted >= self.target_instrs * 1.05:
                    break
            # Call/return pairs interleaved with loop visits, at a rate that
            # makes returns the requested fraction of dynamic branches.  Each
            # pair emits three branches (call, callee block, return), of
            # which one is the return.
            if len(self.functions) > 1 and profile.return_frac > 0:
                pair_rate = profile.return_frac / max(1e-6, 1.0 - 3.0 * profile.return_frac)
                n_pairs = int(rng.poisson(pair_rate * branches_in_visit))
                for _ in range(n_pairs):
                    callee = int(rng.integers(0, len(self.functions)))
                    if callee == fn_index:
                        continue
                    caller = self.functions[fn_index]
                    callee_fn = self.functions[callee]
                    for block_id in (
                        caller.call_block,
                        callee_fn.bodies[0][0],
                        callee_fn.return_block,
                    ):
                        assert block_id is not None
                        block = self.blocks[block_id]
                        block_seq.append(block_id)
                        taken_seq.append(
                            self._emit_outcome(block, True)
                            if block.branch_class == BranchClass.LOOP
                            else True
                        )
                        target_seq.append(self._emit_indirect_target(block))
                        emitted += block.n_instrs

        return self._finalise(
            np.asarray(block_seq, dtype=np.int32),
            np.asarray(taken_seq, dtype=np.int8),
            np.asarray(target_seq, dtype=np.int16),
        )

    def _finalise(
        self,
        block_seq: np.ndarray,
        taken_seq: np.ndarray,
        target_seq: np.ndarray,
    ) -> SyntheticTrace:
        occurrences = np.bincount(block_seq, minlength=len(self.blocks))

        counts_matrix = np.asarray([b.kind_counts for b in self.blocks], dtype=np.int64)
        total_per_kind = occurrences @ counts_matrix
        totals = {name: int(total_per_kind[i]) for i, name in enumerate(KIND_NAMES)}

        class_counts: dict[BranchClass, int] = {cls: 0 for cls in BranchClass}
        for block in self.blocks:
            class_counts[block.branch_class] += int(occurrences[block.index])

        mem_addrs = self._generate_addresses(block_seq)

        return SyntheticTrace(
            name=self.profile.name,
            profile=self.profile,
            blocks=self.blocks,
            streams=self.streams,
            block_seq=block_seq,
            taken_seq=taken_seq,
            indirect_target_seq=target_seq,
            mem_addrs=mem_addrs,
            totals=totals,
            branch_class_counts=class_counts,
            n_instrs=int(total_per_kind.sum()),
            seed=self.seed,
            digest=recipe_digest(self.profile, self.target_instrs, self.seed),
        )

    def _generate_addresses(self, block_seq: np.ndarray) -> np.ndarray:
        """Vectorised per-stream address generation in program order."""
        stream_ids_per_block = [
            np.asarray([slot.stream for slot in b.mem_slots], dtype=np.int32)
            for b in self.blocks
        ]
        pieces = [stream_ids_per_block[b] for b in block_seq]
        if pieces:
            mem_streams = np.concatenate(pieces) if any(p.size for p in pieces) else np.empty(0, np.int32)
        else:
            mem_streams = np.empty(0, dtype=np.int32)
        mem_addrs = np.zeros(len(mem_streams), dtype=np.uint64)

        for stream in self.streams:
            mask = mem_streams == stream.index
            count = int(mask.sum())
            if count == 0:
                continue
            if stream.kind in (StreamKind.SEQ, StreamKind.STRIDE):
                offsets = (np.arange(count, dtype=np.int64) * stream.step) % max(
                    stream.span, stream.step
                )
                addrs = stream.base + offsets
            elif stream.kind == StreamKind.RAND:
                addrs = stream.base + (
                    self.rng.integers(0, max(stream.span // 4, 1), count) * 4
                )
            else:  # LOCK: a handful of contended words
                addrs = stream.base + (self.rng.integers(0, 4, count) * CACHE_LINE_BYTES)
            mem_addrs[mask] = addrs.astype(np.uint64)
        return mem_addrs
