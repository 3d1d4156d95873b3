"""Simulation jobs and the on-disk memoisation of their results.

GemStone is rerun constantly — after every model adjustment, every simulator
update (Section VII's workflow).  A result depends only on its
:class:`SimJob`: the trace *recipe* (every profile field, target length,
seed, trace-compiler version) and the *entire* machine configuration (not
just its name — ablation studies mutate configs in place).  So
:attr:`SimJob.key` names a result before any trace is compiled; the cache,
the executor and the campaign board key on it.

Entries are sealed in the checksummed envelope of :mod:`repro.atomicio`,
which also states the write, quarantine and locking contract.  Corrupt
entries are quarantined to ``<cache>/quarantine/`` and counted in the
``sim.cache.*`` metrics; a full or read-only cache directory degrades the
cache to uncached operation with a single warning instead of aborting a
batch.  Mutations run under the directory's advisory lock, so processes
sharing one directory — campaign shards, concurrent runs — cannot race a
quarantine against a replace.

The hardware platform and the gem5 simulation both accept a ``cache_dir``;
re-running an evaluation after a restart then costs seconds, not minutes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from functools import cached_property

from repro.atomicio import (
    atomic_write_text,
    file_lock,
    quarantine,
    remove_quietly,
    seal,
    unseal,
)
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.sim.cpu import SimResult
from repro.sim.machine import CacheGeometry, MachineConfig
from repro.uarch.tlb import TlbHierarchyConfig
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import (
    SyntheticTrace,
    compile_trace,
    recipe_digest,
    slice_trace,
    window_digest,
)

logger = get_logger(__name__)

#: Name of the advisory lock file inside each cache directory.  It never
#: matches the ``*.json`` entry pattern, so ``clear``/``__len__`` ignore it.
LOCK_FILE_NAME = ".lock"

#: Bump when SimResult's meaning or the entry format changes; invalidates
#: every cached entry (v5: entries keyed by the recipe-addressed SimJob.key).
CACHE_SCHEMA_VERSION = 5


#: Machine fingerprints by configuration value.
_FINGERPRINTS: dict[MachineConfig, str] = {}


def machine_fingerprint(machine: MachineConfig) -> str:
    """Stable hash of every field of a machine configuration.

    Each distinct configuration is hashed once per process; the memo is
    keyed by value, so an edited configuration is a new key.
    """
    fingerprint = _FINGERPRINTS.get(machine)
    if fingerprint is None:
        payload = json.dumps(dataclasses.asdict(machine), sort_keys=True)
        fingerprint = hashlib.sha1(payload.encode()).hexdigest()
        _FINGERPRINTS[machine] = fingerprint
    return fingerprint


def machine_from_spec(spec: dict) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from its ``asdict`` form."""
    data = dict(spec)
    for level in ("l1i", "l1d", "l2"):
        data[level] = CacheGeometry(**data[level])
    data["tlb"] = TlbHierarchyConfig(**data["tlb"])
    return MachineConfig(**data)


@dataclass(frozen=True)
class SimJob:
    """One simulation: a trace recipe replayed on one machine configuration.

    The unit of work of the executor, the result cache and the campaign
    board.  A job carries the recipe, not the trace: :meth:`compile` builds
    the trace on demand, and :attr:`key` names the result without
    compiling.

    The trace is compiled with the profile's default seed
    (``workload_seed(name)``), so a recipe is the profile plus its length.

    Attributes:
        profile: Workload profile the trace is compiled from.
        n_instrs: Target trace length (``compile_trace``'s ``n_instrs``).
        machine: Machine configuration the trace is replayed on.
        window: Optional dynamic-block window ``(start, end)``: the job
            replays ``slice_trace(trace, start, end)`` of the recipe's
            trace instead of the whole trace.
    """

    profile: WorkloadProfile
    n_instrs: int
    machine: MachineConfig
    window: tuple[int, int] | None = None

    @cached_property
    def recipe(self) -> str:
        """Digest of the trace recipe (the compiled trace's ``digest``).

        Windows of one recipe share it: they share one compiled trace.
        """
        return recipe_digest(self.profile, self.n_instrs)

    @cached_property
    def key(self) -> str:
        """The job's identity: replayed trace's digest plus machine
        fingerprint.  An unwindowed job replays its recipe's trace."""
        digest = self.recipe
        if self.window is not None:
            digest = window_digest(digest, *self.window)
        raw = f"{digest}|{machine_fingerprint(self.machine)}"
        return hashlib.sha1(raw.encode()).hexdigest()

    def compile_recipe(self) -> SyntheticTrace:
        """Compile the recipe's whole trace (the job's window ignored)."""
        return compile_trace(self.profile, self.n_instrs)

    def compile(self) -> SyntheticTrace:
        """Compile the trace the job replays (its window, if it has one)."""
        return self.window_of(self.compile_recipe())

    def window_of(self, trace: SyntheticTrace) -> SyntheticTrace:
        """The job's window of ``trace``, the trace compiled from its recipe."""
        return trace if self.window is None else slice_trace(trace, *self.window)

    @classmethod
    def from_spec(cls, spec: dict) -> "SimJob":
        """Rebuild a job from its ``dataclasses.asdict`` form."""
        window = spec.get("window")
        return cls(
            profile=WorkloadProfile(**spec["profile"]),
            n_instrs=spec["n_instrs"],
            machine=machine_from_spec(spec["machine"]),
            window=None if window is None else tuple(window),
        )


class SimResultCache:
    """A directory of checksummed, JSON-serialised :class:`SimResult` objects.

    Args:
        directory: Cache directory (created on demand).  When creation or a
            write fails (full or read-only filesystem) the cache degrades to
            uncached operation — reads still work where possible, writes
            become no-ops — after a single warning.
        faults: Optional :class:`~repro.sim.faults.FaultPlan`; its
            ``corrupt-cache`` faults garble matching writes so the
            quarantine path can be exercised deterministically.
        metrics: Shared :class:`~repro.obs.metrics.MetricsRegistry` the
            cache bumps its counters in; private when not given.  They are
            ``sim.cache.hits`` (reads answered from a verified entry),
            ``sim.cache.misses`` (reads with no entry on disk),
            ``sim.cache.quarantined`` (corrupt entries moved aside) and
            ``sim.cache.put_failures`` (writes abandoned because the
            directory is unusable).
    """

    def __init__(
        self,
        directory: str,
        faults=None,
        metrics: MetricsRegistry | None = None,
    ):
        self.directory = directory
        self.faults = faults
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.degraded = False
        self._warned = False
        self._put_counts: dict[str, int] = {}
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            self._degrade(exc)

    @property
    def quarantine_dir(self) -> str:
        """Where corrupt entries are preserved for post-mortems."""
        return os.path.join(self.directory, "quarantine")

    @property
    def _lock_path(self) -> str:
        return os.path.join(self.directory, LOCK_FILE_NAME)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def _degrade(self, exc: OSError) -> None:
        self.degraded = True
        self.metrics.counter("sim.cache.put_failures").inc()
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"simulation cache at {self.directory} is unusable ({exc}); "
                "degrading to uncached operation",
                RuntimeWarning,
                stacklevel=3,
            )

    def get(self, job: SimJob) -> SimResult | None:
        """Cached result for this job, or None on a miss.

        An entry failing the envelope check, or whose payload does not
        decode, is quarantined under the directory lock — so a concurrent
        shard's fresh ``put`` of the same key cannot be swept away between
        our corrupt read and the move — and counts as a miss.  Campaign
        workers use this to adopt a result a crashed shard already stored.
        """
        path = self._path(job.key)
        try:
            _, body = unseal(path, CACHE_SCHEMA_VERSION)
            payload = json.loads(body)
            result = SimResult(
                machine=job.machine,
                trace_name=payload["trace_name"],
                threads=int(payload["threads"]),
                counts={k: float(v) for k, v in payload["counts"].items()},
                core_cycles=float(payload["core_cycles"]),
                dram_stall_weight=float(payload["dram_stall_weight"]),
                components={
                    k: float(v) for k, v in payload["components"].items()
                },
            )
        except FileNotFoundError:
            self.metrics.counter("sim.cache.misses").inc()
            return None
        except (OSError, KeyError, TypeError, ValueError, AttributeError) as exc:
            logger.debug("quarantining cache entry %s: %s", path, exc)
            self.metrics.counter("sim.cache.quarantined").inc()
            try:
                with file_lock(self._lock_path):
                    quarantine(path, self.quarantine_dir)
            except OSError as lock_exc:
                logger.debug("cache lock unavailable (%s); quarantining unlocked", lock_exc)
                quarantine(path, self.quarantine_dir)
            return None
        self.metrics.counter("sim.cache.hits").inc()
        return result

    def put(self, job: SimJob, result: SimResult) -> None:
        """Store one job's result (sealed, under the directory lock).

        A failed write (full or read-only filesystem) degrades the cache to
        uncached operation with a single warning; it never raises mid-batch.
        """
        if self.degraded:
            return
        key = job.key
        path = self._path(key)
        payload = {
            "trace_name": result.trace_name,
            "threads": result.threads,
            "counts": result.counts,
            "core_cycles": result.core_cycles,
            "dram_stall_weight": result.dram_stall_weight,
            "components": result.components,
        }
        nth_put = self._put_counts.get(key, 0) + 1
        self._put_counts[key] = nth_put
        corrupt = self.faults is not None and self.faults.corrupts_cache(
            job.profile.name, nth_put
        )
        try:
            with file_lock(self._lock_path):
                if corrupt:
                    # Injected corruption: a truncated write, as if the
                    # process died (or the disk filled) mid-header.
                    atomic_write_text(
                        path, f'{{"schema": {CACHE_SCHEMA_VERSION}, "sha1": "dead'
                    )
                else:
                    seal(
                        path,
                        json.dumps(payload, sort_keys=True).encode(),
                        CACHE_SCHEMA_VERSION,
                    )
        except OSError as exc:
            self._degrade(exc)

    def clear(self) -> int:
        """Remove all cached entries; returns the number removed."""
        removed = 0
        try:
            names = os.listdir(self.directory)
        except OSError as exc:
            logger.debug("cache clear skipped, %s unlistable: %s", self.directory, exc)
            return 0
        for name in names:
            if name.endswith(".json"):
                removed += remove_quietly(os.path.join(self.directory, name))
        return removed

    def __len__(self) -> int:
        try:
            names = os.listdir(self.directory)
        except OSError as exc:
            logger.debug("cache len 0, %s unlistable: %s", self.directory, exc)
            return 0
        return sum(1 for name in names if name.endswith(".json"))

