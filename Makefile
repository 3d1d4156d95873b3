PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-chaos test-dist test-replay trace-smoke trace-campaign-smoke bench bench-smoke bench-replay bench-guard bench-campaign bench-lint bench-prof bench-startup lint check

# Tier-1: the full unit/integration suite (includes the chaos scenarios).
test:
	$(PYTHON) -m pytest -x -q

# Deterministic fault-injection scenarios only: worker crashes, hangs,
# poisoned jobs, cache corruption, power-sample loss, and the columnar
# guardrail scenarios (corrupt decoded columns, poisoned memos, NaN
# passes, worker OOM, poison-job circuit breaking) — each must recover
# to bit-identical results with the losses enumerated in the telemetry
# and every guard intervention recorded in the collection health.
# Includes the checkpoint/resume scenarios: the pipeline is killed after
# every phase (including through a guard-triggered fallback) and the
# --resume run must produce a byte-identical report.
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

# One tiny parallel collection end-to-end (pool + disk cache + dataset),
# so executor regressions surface without the full benchmark suite.
bench-smoke:
	$(PYTHON) -m pytest -q -m bench_smoke tests/sim/test_executor.py

# Replay-engine equivalence gates in one fast command: the scalar
# goldens, the randomized columnar-vs-scalar suite, the L2 walk and the
# columnar chaos scenarios, plus the cache/TLB/branch model tests that pin
# the batched LRU replay and the streaming L1D walk to the scalar models.
test-replay:
	$(PYTHON) -m pytest -q tests/sim/test_cpu_golden.py \
		tests/sim/test_columnar_equivalence.py \
		tests/sim/test_columnar_l2_walk.py \
		tests/sim/test_chaos_columnar.py tests/uarch

# Columnar replay speedup floor: scalar vs columnar and the decode-once
# DVFS sweep, asserting the >=4x steady-state floor and refreshing
# BENCH_replay.json at the repo root.
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
# process imports scipy.stats and that the warm reports replay nothing,
# and refreshes BENCH_startup.json at the repo root.
bench-startup:
	$(PYTHON) -m pytest -q -s benchmarks/test_bench_startup.py

# Full paper-figure benchmark suite, including the throughput benchmark.
bench:
	$(PYTHON) -m pytest -q -s benchmarks

# Static analysis gate: ruff (style/imports) and mypy (types) when they are
# installed, then the project's own determinism & worker-purity linter
# (always; `repro-lint --format json` emits machine-readable findings for
# CI annotation).  Known-bad rule fixtures are excluded by construction.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else echo "ruff not installed; skipping style/import checks"; fi
	@if command -v mypy >/dev/null 2>&1; then \
		MYPYPATH=src mypy -p repro.analysis; \
	else echo "mypy not installed; skipping type checks"; fi
	$(PYTHON) -m repro.analysis src tests benchmarks examples \
		--exclude tests/analysis/fixtures

# Full local PR gate: static analysis plus the tier-1 suite.
check: lint test
