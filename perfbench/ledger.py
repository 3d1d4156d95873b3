"""In-memory span ledger around the public calls into each layer.

The benchmark records its own spans (name, start, end, parent, run id)
around the layer entry points listed in :data:`LAYER_CALLS`, without
touching ``src/``: :func:`install` swaps each function or method for a
recording wrapper in every loaded module that binds it.  Spans stay in
memory; :meth:`Ledger.dump` writes them out when the run ends.

:func:`layer_metrics` joins these spans with the program's own tracer
records (``phase:*``, ``sim-job`` and ``replay/*``) into the per-layer
metrics of ``BENCHMARK.json``.  Both use ``time.perf_counter``; program
records are rebased onto it through the tracer's epoch.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

#: (span name, module, attribute) of every wrapped layer entry point.  A
#: dotted attribute names a method on a class of that module.
LAYER_CALLS = (
    ("compile_trace", "repro.workloads.trace", "compile_trace"),
    ("executor.run_many", "repro.sim.executor", "SimExecutor.run_many"),
    ("cache.get", "repro.sim.result_cache", "SimResultCache.get"),
    ("cache.put", "repro.sim.result_cache", "SimResultCache.put"),
    ("runstate.checkpoint", "repro.core.runstate", "RunState.checkpoint"),
    ("runstate.restore", "repro.core.runstate", "RunState.restore"),
    ("stats.ols", "repro.core.stats.ols", "fit_ols"),
    ("stats.stepwise", "repro.core.stats.stepwise", "forward_stepwise"),
    ("stats.hca", "repro.core.stats.cluster", "hierarchical_clustering"),
    ("stats.correlate", "repro.core.stats.correlate", "correlate_with_error"),
    ("power_model.fit", "repro.core.power_model", "PowerModelBuilder.fit"),
    ("platform.characterize", "repro.sim.platform",
     "HardwarePlatform.characterize"),
    ("report.render", "repro.core.report", "render_full_report"),
    # The parts of a sim-job that run outside the replay/* pass spans.
    ("sim.simulate", "repro.sim.cpu", "simulate"),
    ("sim.make_state", "repro.sim.cpu", "_make_state"),
    ("sim.data_warm", "repro.sim.cpu", "_data_warm_arrays"),
    ("sim.finalise", "repro.sim.cpu", "_finalise"),
    ("sim.decode_build", "repro.workloads.trace", "ReplayTables.columnar"),
    ("guard.validate", "repro.sim.guard", "validate_columnar"),
)

#: The 12 checkpointed pipeline phases, in pipeline order.
PHASES = (
    "dataset", "power-dataset", "workload-clusters", "pmc-correlation",
    "gem5-correlation", "regression-hw", "regression-gem5",
    "event-comparison", "power-model", "power-energy", "dvfs", "report",
)

#: The columnar replay passes with their own ``replay/*`` span.
PASSES = (
    "l2_walk", "l1d_pass", "dtlb_pass", "branch_pass", "control_pass",
    "merge_events", "itlb_pass", "l1i_pass", "decode",
)


class Ledger:
    """Spans recorded by the wrappers, kept in memory for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, func, args, kwargs, attrs=None):
        index = len(self.spans)
        span = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = func(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span.update(attrs(args, kwargs, result))
        return result

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def _span_attrs(name):
    """Per-span extras: hit/miss, restored, checkpoint size, engine."""
    if name == "cache.get":
        return lambda a, k, r: {"hit": r is not None}
    if name == "runstate.restore":
        return lambda a, k, r: {"restored": r is not None}
    if name == "runstate.checkpoint":
        def checkpoint(args, kwargs, written):
            path = args[0].checkpoint_path(args[1])
            size = os.path.getsize(path) if written and os.path.exists(path) else 0
            return {"bytes": size}
        return checkpoint
    if name == "sim.simulate":
        def engine(args, kwargs):
            return kwargs.get("engine", args[2] if len(args) > 2 else "auto")
        return lambda a, k, r: {"engine": engine(a, k)}
    if name == "compile_trace":
        def identity(args, kwargs, trace):
            n = kwargs.get("n_instrs", args[1] if len(args) > 1 else None)
            seed = kwargs.get("seed", args[2] if len(args) > 2 else None)
            return {"trace": [args[0].name, n, seed]}
        return identity
    return None


def install(ledger: Ledger) -> None:
    """Wrap every :data:`LAYER_CALLS` entry point so it records a span.

    Module-level functions are rebound in every loaded ``repro`` module
    that imported them by name, so call sites see the wrapper too.
    """
    import importlib

    for name, module_name, attr in LAYER_CALLS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, method)
        attrs = _span_attrs(name)

        @functools.wraps(original)
        def wrapper(*args, _f=original, _n=name, _a=attrs, **kwargs):
            return ledger.call(_n, _f, args, kwargs, _a)

        if owner_name:
            setattr(owner, method, wrapper)
            continue
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                getattr(loaded, method, None) is original
            ):
                setattr(loaded, method, wrapper)


# ------------------------------------------------------------------ metrics
def _outermost(spans, name):
    """Spans of ``name`` with no ancestor of the same name."""
    out = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent is None:
            out.append(span)
    return out


def _total(spans):
    return sum(span["end"] - span["start"] for span in spans)


def _family_self_times(records, prefix):
    """Self time per span name of a span family (``phase:``, ``replay/``).

    A span's self time is its duration minus that of its direct children
    *in the same family* — phases nest (``power-model`` pulls in
    ``power-dataset``), so summing durations would count time twice.
    """
    by_id = {r["id"]: r for r in records}
    out: Counter = Counter()
    for record in records:
        if not record["name"].startswith(prefix):
            continue
        out[record["name"]] += record["dur_us"] / 1e6
        parent = record["parent"]
        while parent is not None and not by_id[parent]["name"].startswith(prefix):
            parent = by_id[parent]["parent"]
        if parent is not None:
            out[by_id[parent]["name"]] -= record["dur_us"] / 1e6
    return out


def _union_within(windows, parts):
    """Seconds of ``windows`` covered by the union of ``parts``."""
    covered = 0.0
    parts = sorted(parts)
    for w_start, w_end in windows:
        cursor = w_start
        for p_start, p_end in parts:
            if p_end <= cursor or p_start >= w_end:
                continue
            start = max(p_start, cursor)
            end = min(p_end, w_end)
            if end > start:
                covered += end - start
                cursor = end
    return covered


def layer_metrics(ledger, program_records, epoch, run_s, trace_instructions,
                  retries):
    """Per-layer metrics of one traced run, keyed by BENCHMARK.json name.

    Args:
        ledger: The benchmark's own spans for the run.
        program_records: The program tracer's records.
        epoch: The program tracer's ``perf_counter`` epoch.
        run_s: The traced run's measured interval.
        trace_instructions: Instructions per trace (for ``minst_per_s``).
        retries: The executor's retry counter for the run.
    """
    spans = ledger.spans
    records = [r for r in program_records if r.get("kind") == "span"]
    m: dict[str, float] = {}

    compiles = _outermost(spans, "compile_trace")
    m["workloads.compile_s"] = _total(compiles)
    m["workloads.compile_calls"] = len(compiles)
    distinct = {tuple(s["trace"]) for s in compiles}
    m["workloads.unique_trace_ratio"] = (
        len(distinct) / len(compiles) if compiles else 0.0
    )

    jobs = [r for r in records if r["name"] == "sim-job"]
    job_s = sum(r["dur_us"] for r in jobs) / 1e6
    m["sim.replay_s"] = job_s
    m["sim.replay_jobs"] = len(jobs)
    m["sim.minst_per_s"] = (
        len(jobs) * trace_instructions / job_s / 1e6 if job_s > 0 else 0.0
    )
    passes = _family_self_times(records, "replay/")
    for name in PASSES:
        m[f"sim.pass.{name}_s"] = passes.get(f"replay/{name}", 0.0)
    pass_s = sum(passes.values())
    m["sim.pass_coverage"] = pass_s / job_s if job_s > 0 else 0.0
    # Everything a sim-job does outside the replay/* passes, measured by
    # the benchmark's own spans: sentinel scalar replays, decode builds,
    # decode validation, simulator state and warm-up construction, result
    # assembly and cache writes.
    sentinel = [s for s in spans
                if s["name"] == "sim.simulate" and s["engine"] == "scalar"]
    m["sim.sentinel_s"] = _total(sentinel)
    m["sim.decode_build_s"] = _total(_outermost(spans, "sim.decode_build"))
    m["sim.make_state_s"] = _total(_outermost(spans, "sim.make_state"))
    m["sim.data_warm_s"] = _total(_outermost(spans, "sim.data_warm"))
    m["sim.finalise_s"] = _total(_outermost(spans, "sim.finalise"))
    m["guard.validate_s"] = _total(_outermost(spans, "guard.validate"))
    windows = [
        (epoch + r["start_us"] / 1e6, epoch + (r["start_us"] + r["dur_us"]) / 1e6)
        for r in jobs
    ]
    parts = [
        (epoch + r["start_us"] / 1e6, epoch + (r["start_us"] + r["dur_us"]) / 1e6)
        for r in records if r["name"].startswith("replay/")
    ]
    parts += [
        (s["start"], s["end"]) for s in spans
        if s in sentinel or s["name"] in (
            "sim.decode_build", "sim.make_state", "sim.data_warm",
            "sim.finalise", "guard.validate", "cache.put",
        )
    ]
    m["sim.job_coverage"] = (
        _union_within(windows, parts) / job_s if job_s > 0 else 0.0
    )

    batches = _outermost(spans, "executor.run_many")
    m["executor.batch_s"] = _total(batches)
    m["executor.overhead_s"] = m["executor.batch_s"] - job_s
    m["executor.retries"] = retries

    gets = _outermost(spans, "cache.get")
    puts = _outermost(spans, "cache.put")
    hits = sum(1 for s in gets if s["hit"])
    m["result_cache.get_s"] = _total(gets)
    m["result_cache.put_s"] = _total(puts)
    m["result_cache.hits"] = hits
    m["result_cache.misses"] = len(gets) - hits
    m["result_cache.hit_ratio"] = hits / len(gets) if gets else 0.0

    m["platform.characterize_s"] = _total(
        _outermost(spans, "platform.characterize")
    )

    checkpoints = _outermost(spans, "runstate.checkpoint")
    restores = _outermost(spans, "runstate.restore")
    m["runstate.checkpoint_s"] = _total(checkpoints)
    m["runstate.checkpoint_bytes"] = sum(s["bytes"] for s in checkpoints)
    m["runstate.restore_s"] = _total(restores)
    m["runstate.phases_computed"] = sum(1 for s in checkpoints if s["bytes"])

    fits = _outermost(spans, "stats.ols")
    m["stats.ols_fits"] = len(fits)
    m["stats.ols_s"] = _total(fits)
    m["stats.stepwise_s"] = _total(_outermost(spans, "stats.stepwise"))
    m["stats.hca_s"] = _total(_outermost(spans, "stats.hca"))
    m["stats.correlate_s"] = _total(_outermost(spans, "stats.correlate"))
    m["power_model.fit_s"] = _total(_outermost(spans, "power_model.fit"))

    phases = _family_self_times(records, "phase:")
    for name in PHASES:
        m[f"phase.{name}_s"] = phases.get(f"phase:{name}", 0.0)
    m["report.render_s"] = _total(_outermost(spans, "report.render"))
    m["phase.coverage"] = sum(phases.values()) / run_s if run_s > 0 else 0.0

    return m
