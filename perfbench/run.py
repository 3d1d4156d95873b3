"""End-to-end performance ledger of ``gemstone report`` on the paper config.

Run from the repository root::

    python3 perfbench/run.py --workload report-cold --seed 0 --seconds 5 --trace 0

Every measured run is a fresh ``perfbench/child.py`` process; this driver
does the set-up around it, gates every run's outputs, prints every metric
by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 when a
correctness gate fails and 2 when the benchmark cannot run at all.  See
``perfbench/README.md`` for the workloads, the metrics and the gates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
STATE = ".perfbench"
WORKLOADS = ("report-cold", "report-warm")
#: A child running longer than this is killed (the run must end in 180 s).
CHILD_TIMEOUT_S = 150.0
#: Measured runs stop starting new repetitions after this much wall time.
RUN_BUDGET_S = 70.0
SETUP_SAMPLES = 3
COVERAGE_FLOOR = 0.95
#: Relative tolerance on the accuracy metrics for a permuted workload
#: order: summing the same errors in another order moves the last digits.
PERMUTED_RTOL = 1e-9


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


# ------------------------------------------------------------------ helpers
def spawn(role: str, spec: dict, scratch: str) -> tuple[dict, float]:
    """Run one child role; returns (its result, peak RSS MB of its tree)."""
    os.makedirs(scratch, exist_ok=True)
    spec = dict(spec, role=role, out=os.path.join(scratch, f"{role}.out.json"))
    spec_path = os.path.join(scratch, f"{role}.spec.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    # The child's setup_s runs from this stamp (CLOCK_MONOTONIC is shared
    # by every process on the host).
    spec["spawn"] = time.monotonic()
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    # Children write to stderr only, so the driver's result stays last.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path],
        env=env, stdout=sys.stderr,
    )
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError(f"{role} child exceeded {CHILD_TIMEOUT_S:.0f} s")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{role} child exited with {proc.returncode}")
    with open(spec["out"]) as handle:
        result = json.load(handle)
    return result, usage.ru_maxrss / 1024.0


def source_fingerprint() -> str:
    """Digest of the program's sources and of the child that builds."""
    paths = [os.path.join(HERE, "child.py")]
    for dirpath, dirnames, filenames in os.walk("src"):
        dirnames.sort()
        paths += [os.path.join(dirpath, n) for n in sorted(filenames)
                  if n.endswith(".py")]
    h = hashlib.sha256()
    for path in paths:
        h.update(path.encode())
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def ensure_build() -> tuple[dict, str, float]:
    """The per-checkout reference build; made on first use (timed apart)."""
    fingerprint = source_fingerprint()
    build_dir = os.path.join(STATE, "build")
    manifest = os.path.join(build_dir, "build.json")
    if os.path.exists(manifest):
        with open(manifest) as handle:
            built = json.load(handle)
        if built.get("fingerprint") == fingerprint:
            return built, build_dir, 0.0
        shutil.rmtree(build_dir)
    started = time.monotonic()
    staging = os.path.join(STATE, f"build.tmp-{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    try:
        refs, _ = spawn("build", {"state": staging}, os.path.join(staging, "io"))
        shutil.rmtree(os.path.join(staging, "io"))
        built = {"fingerprint": fingerprint, "refs": refs}
        with open(os.path.join(staging, "build.json"), "w") as handle:
            json.dump(built, handle)
        os.replace(staging, build_dir)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return built, build_dir, time.monotonic() - started


def host_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "loadavg": list(os.getloadavg()),
    }


def blas_threads(numpy) -> int:
    """OpenBLAS's thread count, or -1 when it cannot be read."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return -1


# -------------------------------------------------------------------- gates
def check_seed_ledger(seeds_dir: str, seed: int, facts: dict) -> list[str]:
    """Compare facts with those earlier runs of this seed recorded.

    The first run of a seed records them, so runs of different workloads
    with one seed (cold and warm) must agree with each other.
    """
    os.makedirs(seeds_dir, exist_ok=True)
    path = os.path.join(seeds_dir, f"{seed}.json")
    entry = {}
    if os.path.exists(path):
        with open(path) as handle:
            entry = json.load(handle)
    problems = [
        f"{name} differs from an earlier run of seed {seed}"
        for name, value in facts.items()
        if name in entry and entry[name] != value
    ]
    if not problems and any(name not in entry for name in facts):
        entry.update(facts)
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(entry, handle)
        os.replace(tmp, path)
    return problems


def gate(rep: dict, seed: int, refs: dict, expected: dict,
         seeds_dir: str) -> list[str]:
    """Every correctness problem of one measured run (empty when correct)."""
    problems = []
    if rep["jobs_failed"]:
        problems.append(f"{rep['jobs_failed']} simulation job(s) failed")
    if not rep["order_ok"]:
        problems.append("dataset rows are not in the configured order")
    if rep["datasets"] != refs["datasets"]:
        problems.append("datasets differ from the reference build")
    want = expected["accuracy"]
    got = rep["accuracy"]
    if seed == 0:
        if got != want:
            problems.append(f"accuracy {got} != expected {want}")
    elif any(abs(g - w) > PERMUTED_RTOL * abs(w) for g, w in zip(got, want)):
        problems.append(f"accuracy {got} is not expected {want}")
    if seed == 0 and rep["report_sha256"] != expected["report_sha256"]:
        problems.append("report differs from the expected seed-0 report")
    problems += check_seed_ledger(seeds_dir, seed, {
        "accuracy": got, "report_sha256": rep["report_sha256"],
    })
    return problems


def build_problems(refs: dict, expected: dict) -> list[str]:
    """The reference build must reproduce the expected seed-0 outputs."""
    problems = []
    if refs["report_sha256"] != expected["report_sha256"]:
        problems.append("reference report is not the expected one")
    if refs["accuracy"] != expected["accuracy"]:
        problems.append("reference accuracy is not the expected one")
    return problems


# ---------------------------------------------------------------- workloads
class Run:
    """One invocation: set-up, measured repetitions and their gates."""

    def __init__(self, args, build_dir: str):
        self.args = args
        self.build_dir = build_dir
        self.dir = os.path.join(
            STATE, "runs", f"{args.workload}-s{args.seed}-{os.getpid()}"
        )
        self.setup_work_s = 0.0
        self.count = 0

    def spec(self, directory: str, trace: bool = False) -> dict:
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "dir": directory,
            "trace": trace,
        }

    def measure(self, trace: bool) -> dict:
        """One measured run in a fresh process, on freshly set-up state."""
        self.count += 1
        rep_dir = os.path.join(self.dir, f"rep{self.count}")
        started = time.monotonic()
        workload = self.args.workload
        if workload == "report-warm":
            shutil.copytree(os.path.join(self.build_dir, "cache"),
                            os.path.join(rep_dir, "cache"))
        os.makedirs(rep_dir, exist_ok=True)
        self.setup_work_s += time.monotonic() - started
        spec = self.spec(rep_dir, trace)
        if trace:
            traces = os.path.join(STATE, "traces")
            os.makedirs(traces, exist_ok=True)
            spec["spans_out"] = os.path.join(
                traces, f"{workload}-s{self.args.seed}.spans.jsonl"
            )
        rep, rss = spawn("measure", spec, rep_dir + "-io")
        rep["peak_rss_mb"] = rss
        shutil.rmtree(rep_dir, ignore_errors=True)
        shutil.rmtree(rep_dir + "-io", ignore_errors=True)
        return rep

    def probe(self) -> float:
        self.count += 1
        probe_dir = os.path.join(self.dir, f"probe{self.count}")
        result, _ = spawn("probe", self.spec(probe_dir), probe_dir + "-io")
        return result["setup_s"]


def run(args, refs: dict, build_dir: str, expected: dict):
    """Measure one workload.

    Returns ``(metrics, problems, info)``: the metrics to report, one list
    of gate failures per measured run, and the per-run details printed
    beside the metrics.
    """
    bench = Run(args, build_dir)
    started = time.monotonic()
    try:
        reps = []
        if args.trace:
            reps.append(bench.measure(trace=False))
            reps.append(bench.measure(trace=True))
        else:
            while True:
                reps.append(bench.measure(trace=False))
                measured = sum(r["run_s"] for r in reps)
                spent = time.monotonic() - started
                per_rep = spent / len(reps)
                if measured >= args.seconds or spent + per_rep > RUN_BUDGET_S:
                    break
            setups = [r["setup_s"] for r in reps]
            while len(setups) < SETUP_SAMPLES:
                setups.append(bench.probe())
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)

    base = build_problems(refs, expected)
    problems = [
        base + gate(r, args.seed, refs, expected,
                    os.path.join(build_dir, "seeds"))
        for r in reps
    ]
    jobs_failed = sum(r["jobs_failed"] for r in reps)
    jobs_attempted = sum(r["jobs_attempted"] for r in reps)
    info = {
        "setup_work_s": bench.setup_work_s,
        "reps": [
            {k: r[k] for k in ("run_s", "cpu_s", "setup_s", "peak_rss_mb")}
            for r in reps
        ],
        "jobs_failed_frac": jobs_failed / max(1, jobs_attempted),
    }
    if args.trace:
        untraced, traced = reps
        metrics = dict(traced["layers"])
        metrics["obs.trace_overhead_frac"] = traced["run_s"] / untraced["run_s"] - 1
        metrics["jobs_failed_frac"] = info["jobs_failed_frac"]
        if metrics["phase.coverage"] < COVERAGE_FLOOR:
            problems[1].append(
                f"phase self times cover {metrics['phase.coverage']:.3f} "
                f"of run_s (< {COVERAGE_FLOOR})"
            )
        if metrics["sim.replay_jobs"] and metrics["sim.job_coverage"] < COVERAGE_FLOOR:
            problems[1].append(
                f"replay ledger covers {metrics['sim.job_coverage']:.3f} "
                f"of sim-job time (< {COVERAGE_FLOOR})"
            )
    else:
        accuracy = reps[0]["accuracy"]
        metrics = {
            "run_s": statistics.median(r["run_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "time_mape_pct": accuracy[0],
            "power_model_mape_pct": accuracy[1],
            "energy_mape_pct": accuracy[2],
        }
    return metrics, problems, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)
    host = host_record()
    try:
        built, build_dir, build_s = ensure_build()
        metrics, problems, info = run(args, built["refs"], build_dir, expected)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    with open("BENCHMARK.json") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"perfbench: measured {sorted(set(metrics) ^ set(units))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 2
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"reps {len(info['reps'])}")
    print(f"setup-work build_s {build_s:.3f} setup_work_s "
          f"{info['setup_work_s']:.3f}")
    print(f"gate jobs_failed_frac {info['jobs_failed_frac']}")
    for index, rep in enumerate(info["reps"]):
        print(f"rep {index + 1} run_s {rep['run_s']!r} cpu_s {rep['cpu_s']!r} "
              f"setup_s {rep['setup_s']!r} peak_rss_mb {rep['peak_rss_mb']!r}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    failed = sum(1 for p in problems if p)
    for index, run_problems in enumerate(problems):
        for problem in run_problems:
            print(f"FAIL run {index + 1}: {problem}")
    result = {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
