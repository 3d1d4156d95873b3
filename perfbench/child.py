"""One benchmark process: a measured run, a set-up probe or set-up work.

Run by ``perfbench/run.py`` as ``python3 perfbench/child.py SPEC.json``
with ``src`` on ``PYTHONPATH``.  SPEC names a ``role`` and its arguments;
the result is written to ``SPEC["out"]`` as JSON.  Every role is a fresh
process, so each measured run pays its own imports and cold caches.

Roles:

* ``measure`` — one measured run of a workload (see ``run.py``).
* ``probe`` — imports and constructs the workload's program, then exits
  (a ``setup_s`` sample).
* ``build`` — once per checkout: the seed-independent reference cache and
  dataset digests every workload starts from or checks against.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import shutil
import sys
import time


def permuted(seed: int):
    """The validation and power workload tuples in the seed's order.

    Seed 0 is the paper order; any other seed shuffles both tuples.
    """
    from repro.workloads.suites import (
        power_modelling_workloads,
        validation_workloads,
    )

    validation = list(validation_workloads())
    power = list(power_modelling_workloads())
    if seed != 0:
        rng = random.Random(seed)
        rng.shuffle(validation)
        rng.shuffle(power)
    return tuple(validation), tuple(power)


def paper_config(seed: int, **overrides):
    """The paper configuration: A15, 60 000 instructions, jobs=1, defaults."""
    from repro.core.pipeline import GemStoneConfig

    validation, power = permuted(seed)
    return GemStoneConfig(
        core="A15", workloads=validation, power_workloads=power, **overrides
    )


def workload_config(spec: dict, trace: bool = False):
    """The GemStone config of the measured program of ``spec``."""
    run_dir = spec["dir"]
    return paper_config(
        spec["seed"],
        cache_dir=os.path.join(run_dir, "cache"),
        checkpoint_dir=os.path.join(run_dir, "ckpt"),
        trace=trace,
    )


# ---------------------------------------------------------------- outputs
def dataset_digests(gemstone) -> dict:
    """Order-independent digests of the validation and power datasets.

    Rows are keyed by (workload, frequency) and hashed in key order, so a
    permuted workload order yields the same digest iff every row is equal.
    """
    def digest(rows):
        h = hashlib.sha256()
        for row in sorted(rows, key=lambda r: (r.workload, r.freq_hz)):
            h.update(pickle.dumps(row, protocol=4))
        return h.hexdigest()

    return {
        "validation": digest(gemstone.dataset.runs),
        "power": digest(gemstone.power_dataset),
    }


def outputs(gemstone, config, report: str) -> dict:
    """What the correctness gate checks, read from the memoised products."""
    telemetry = gemstone.executor.telemetry
    names = [p.name for p in config.resolve_workloads()]
    return {
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "accuracy": [
            gemstone.dataset.time_mape(),
            gemstone.power_model.quality.mape,
            gemstone.power_energy.energy_mape(),
        ],
        "datasets": dataset_digests(gemstone),
        "order_ok": list(gemstone.dataset.workloads) == names,
        "jobs_attempted": telemetry.jobs_submitted - telemetry.jobs_deduplicated,
        "jobs_failed": len(gemstone.health.failures),
    }


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


# ------------------------------------------------------------------ roles
def measure(spec: dict) -> dict:
    from repro.core.pipeline import GemStone

    trace = bool(spec["trace"])
    config = workload_config(spec, trace=trace)
    gemstone = GemStone(config)
    setup_s = time.monotonic() - spec["spawn"]

    if trace:
        import ledger

        spans = ledger.Ledger(f"{spec['workload']}-{spec['seed']}")
        ledger.install(spans)

    cpu0 = _cpu_seconds()
    started = time.perf_counter()
    report = gemstone.report()
    run_s = time.perf_counter() - started
    cpu_s = _cpu_seconds() - cpu0

    out = {"setup_s": setup_s, "run_s": run_s, "cpu_s": cpu_s}
    out.update(outputs(gemstone, config, report))
    if trace:
        spans.dump(spec["spans_out"])
        out["layers"] = ledger.layer_metrics(
            spans,
            gemstone.tracer.records,
            gemstone.tracer._epoch,
            run_s,
            config.trace_instructions,
            gemstone.executor.telemetry.job_retries,
        )
    return out


def probe(spec: dict) -> dict:
    from repro.core.pipeline import GemStone

    GemStone(workload_config(spec))
    return {"setup_s": time.monotonic() - spec["spawn"]}


def build(spec: dict) -> dict:
    """Seed-independent references, built once per checkout.

    ``cache`` holds every (trace, machine) result of the paper config.
    Result-cache entries are content addressed, so they serve every
    workload order.
    """
    from repro.core.pipeline import GemStone

    state = spec["state"]
    scratch = os.path.join(state, "scratch")
    config = paper_config(
        0,
        cache_dir=os.path.join(state, "cache"),
        checkpoint_dir=scratch,
    )
    gemstone = GemStone(config)
    out = outputs(gemstone, config, gemstone.report())
    shutil.rmtree(scratch)
    return out


ROLES = {
    "measure": measure,
    "probe": probe,
    "build": build,
}


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    result = ROLES[spec["role"]](spec)
    with open(spec["out"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
