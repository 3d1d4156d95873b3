PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-chaos test-dist test-replay test-sanitize trace-smoke trace-campaign-smoke bench bench-smoke bench-replay bench-guard bench-campaign bench-lint bench-prof bench-startup lint lint-style check

# Tier-1: the full unit/integration suite (includes the chaos scenarios).
test:
	$(PYTHON) -m pytest -x -q

# Deterministic fault-injection scenarios only: crashing and
# out-of-memory jobs, poisoned jobs, cache corruption, power-sample loss,
# and the columnar guardrail scenarios (corrupt decoded columns, poisoned
# memos, NaN passes) — each must recover to bit-identical results with
# the losses enumerated in the telemetry and every guard intervention
# recorded in the collection health.  Faults across processes (shard
# crashes, lease stalls, out-of-memory shards, board poisoning) are the
# campaign's, run by `make test-dist`.
# Includes the checkpoint scenarios: the pipeline is killed after every
# phase (including through a guard-triggered fallback) and a rerun on the
# same checkpoint directory must produce a byte-identical report.
test-chaos:
	$(PYTHON) -m pytest -q -m chaos

# Distributed-campaign scenarios only: shard crashes between the store
# write and the done marker, SIGKILLed workers, leases expiring under
# live workers, poison jobs crossing shards, job faults inside a shard,
# coordinators killed and resumed, corrupted store entries — each must
# converge to a dataset bit-identical to a serial run with no duplicated
# results.  Includes the shard worker-loop unit tests, which drive every
# claim through the shard's SimExecutor (cache probe, guards, job faults).
test-dist:
	$(PYTHON) -m pytest -q -m dist tests

# Observability smoke: one tiny traced pipeline run end-to-end, asserting
# the exported Chrome trace validates, tracing never changes a report
# byte, and the span tree is deterministic modulo wall-clock.
trace-smoke:
	$(PYTHON) -m pytest -q -m obs tests/obs/test_trace_smoke.py

# Campaign observability smoke: a traced two-shard campaign stitched into
# one Chrome trace with per-shard tracks, merged Prometheus counters that
# equal the journal counts, and a clean report byte-identical to the
# untraced run — including the kill/steal/resume stitching scenarios.
trace-campaign-smoke:
	$(PYTHON) -m pytest -q -m dist tests/sim/test_chaos_campaign.py -k TraceStitching

# One tiny serial collection end-to-end on a disk cache (cold run fills
# it, warm run replays nothing, datasets agree), so executor regressions
# surface without the full benchmark suite.
bench-smoke:
	$(PYTHON) -m pytest -q -m bench_smoke tests/sim/test_executor.py

# Replay-engine equivalence gates in one fast command: the scalar
# goldens, the randomized columnar-vs-scalar suite, the L2 walk memo, the
# C kernel's L1 replays against the scalar cache and TLB models and its L2
# walk against the Python oracle, and the columnar chaos scenarios, plus
# the cache/TLB/branch model tests, whose L1D property test drives the
# kernel.
test-replay:
	$(PYTHON) -m pytest -q tests/sim/test_cpu_golden.py \
		tests/sim/test_columnar_equivalence.py \
		tests/sim/test_columnar_l2_walk.py tests/sim/test_kernel.py \
		tests/sim/test_chaos_columnar.py tests/uarch

# The C kernel under AddressSanitizer and UndefinedBehaviorSanitizer: its
# own tests, the oracle tests of its branch pass, control pass and event
# merge, and the columnar equivalence suite, on a library that
# tests/sim/kernel_sanitizers.py builds with -O1 -g and the sanitizers
# into a temporary cache; the first report aborts the run.  Output is
# captured at the sys level only, so a report reaches the terminal.
test-sanitize:
	LD_PRELOAD=libasan.so.8 ASAN_OPTIONS=detect_leaks=0 $(PYTHON) -m pytest -q --capture=sys \
		-p tests.sim.kernel_sanitizers tests/sim/test_kernel.py \
		tests/sim/test_kernel_passes.py tests/sim/test_columnar_equivalence.py

# Columnar replay speedup floor: scalar vs columnar, asserting the >=4x
# steady-state and >=2.5x cold floors and refreshing BENCH_replay.json at
# the repo root.
bench-replay:
	$(PYTHON) -m pytest -q -s -m bench_replay benchmarks/test_bench_replay_speedup.py

# Guardrail overhead: sentinel-mode bookkeeping plus the amortised
# dual-engine replay must stay under the 5% budget; refreshes
# BENCH_guard.json at the repo root.
bench-guard:
	$(PYTHON) -m pytest -q -s benchmarks/test_bench_guard_overhead.py

# Campaign scaling curve: one board drained by 1/2/4 shards, asserting
# the 2-shard >=1.5x floor on multi-core hosts and refreshing
# BENCH_campaign.json at the repo root.
bench-campaign:
	$(PYTHON) -m pytest -q -s benchmarks/test_bench_campaign.py

# Lint-engine wall time: the serial lint of the `make lint` tree, 3 runs;
# records the median, IQR and finding count in BENCH_lint.json at the
# repo root (no floor).
bench-lint:
	$(PYTHON) -m pytest -q -s -m bench_lint benchmarks/test_bench_lint.py

# Replay-profiler overhead: traced+profiled columnar replay must stay
# within the 5% budget of the untraced hot path while attributing >=95%
# of simulated cycles; refreshes BENCH_prof.json at the repo root.
bench-prof:
	$(PYTHON) -m pytest -q -s benchmarks/test_bench_profiler_overhead.py

# Process start-up: `import repro.cli`, import plus GemStone(paper
# config), and that plus a warm report() on a result cache filled once, in
# fresh interpreters, median and IQR of 9 each; asserts only that no
# process imports any scipy module and that the warm reports replay
# nothing, and refreshes BENCH_startup.json at the repo root.
bench-startup:
	$(PYTHON) -m pytest -q -s benchmarks/test_bench_startup.py

# Full paper-figure benchmark suite, including the campaign scaling curve.
bench:
	$(PYTHON) -m pytest -q -s benchmarks

# Style and type checks: ruff (style/imports) and mypy (types) when they
# are installed.
lint-style:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else echo "ruff not installed; skipping style/import checks"; fi
	@if command -v mypy >/dev/null 2>&1; then \
		MYPYPATH=src mypy -p repro.analysis; \
	else echo "mypy not installed; skipping type checks"; fi

# Static analysis gate: the style and type checks, then the project's own
# determinism & worker-purity linter (always; `repro-lint --format json`
# emits machine-readable findings for CI annotation).  Known-bad rule
# fixtures are excluded by construction.
lint: lint-style
	$(PYTHON) -m repro.analysis src tests benchmarks examples \
		--exclude tests/analysis/fixtures

# Full local PR gate: the style and type checks, the tier-1 suite and the
# sanitized kernel.  Tier-1's tests/analysis/test_self_clean.py runs the
# repro-lint command of `lint` above, so the tree is linted once.
check: lint-style test test-sanitize
