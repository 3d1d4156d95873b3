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
sharing one directory — executor workers, campaign shards — cannot race a
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
from repro.workloads.trace import SyntheticTrace, compile_trace, recipe_digest

logger = get_logger(__name__)

#: Name of the advisory lock file inside each cache directory.  It never
#: matches the ``*.json`` entry pattern, so ``clear``/``__len__`` ignore it.
LOCK_FILE_NAME = ".lock"

#: Bump when SimResult's meaning or the entry format changes; invalidates
#: every cached entry (v5: entries keyed by the recipe-addressed SimJob.key).
CACHE_SCHEMA_VERSION = 5


def machine_fingerprint(machine: MachineConfig) -> str:
    """Stable hash of every field of a machine configuration."""
    payload = json.dumps(dataclasses.asdict(machine), sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()


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
    """

    profile: WorkloadProfile
    n_instrs: int
    machine: MachineConfig

    @cached_property
    def recipe(self) -> str:
        """Digest of the trace recipe (the compiled trace's ``digest``)."""
        return recipe_digest(self.profile, self.n_instrs)

    @cached_property
    def key(self) -> str:
        """The job's identity: recipe digest plus machine fingerprint."""
        raw = f"{self.recipe}|{machine_fingerprint(self.machine)}"
        return hashlib.sha1(raw.encode()).hexdigest()

    def compile(self) -> SyntheticTrace:
        """Compile the job's trace."""
        return compile_trace(self.profile, self.n_instrs)

    @classmethod
    def from_spec(cls, spec: dict) -> "SimJob":
        """Rebuild a job from its ``dataclasses.asdict`` form."""
        return cls(
            profile=WorkloadProfile(**spec["profile"]),
            n_instrs=spec["n_instrs"],
            machine=machine_from_spec(spec["machine"]),
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


def cache_spec(cache: SimResultCache | None) -> str | None:
    """Picklable description of a cache, for reconstruction in workers.

    Pool workers cannot receive the cache object itself (it holds the
    parent's metrics registry); they receive its directory and
    rebuild an equivalent writer over it.
    """
    return None if cache is None else cache.directory


def open_cache_spec(spec: str | None, faults=None) -> SimResultCache | None:
    """Rebuild the cache a :func:`cache_spec` value describes."""
    return None if spec is None else SimResultCache(spec, faults=faults)
