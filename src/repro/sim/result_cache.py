"""On-disk memoisation of simulation results, with integrity checking.

GemStone is rerun constantly — after every model adjustment, every simulator
update (Section VII's workflow).  Simulation results depend only on the
(trace, machine configuration) pair, both of which are fully deterministic,
so they are safely memoised on disk: the cache key hashes the *entire*
machine configuration (not just its name — ablation studies mutate configs
in place) together with the trace identity.

Entries are sealed in the checksummed envelope of :mod:`repro.atomicio`,
which also states the write, quarantine and locking contract.  Corrupt
entries are quarantined to ``<cache>/quarantine/`` and counted in
:class:`CacheTelemetry`; a full or read-only cache directory degrades the
cache to uncached operation with a single warning instead of aborting a
batch.  Mutations run under the directory's advisory lock, so processes
sharing one directory — executor workers, campaign shards — cannot race a
quarantine against a replace.

The hardware platform and the gem5 simulation both accept a ``cache_dir``;
re-running an evaluation after a restart then costs seconds, not minutes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import warnings

from repro.atomicio import (
    atomic_write_text,
    file_lock,
    quarantine,
    seal,
    unseal,
)
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, MetricView
from repro.sim.cpu import SimResult
from repro.sim.machine import MachineConfig
from repro.workloads.trace import SyntheticTrace

logger = get_logger(__name__)

#: Name of the advisory lock file inside each cache directory.  It never
#: matches the ``*.json`` entry pattern, so ``clear``/``__len__`` ignore it.
LOCK_FILE_NAME = ".lock"

#: Bump when SimResult's meaning or the entry format changes; invalidates
#: every cached entry (v4: the shared repro.atomicio envelope).
CACHE_SCHEMA_VERSION = 4


def machine_fingerprint(machine: MachineConfig) -> str:
    """Stable hash of every field of a machine configuration."""
    payload = json.dumps(dataclasses.asdict(machine), sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()


def cache_key(trace: SyntheticTrace, machine: MachineConfig) -> str:
    """Cache key for one (trace, machine) simulation."""
    raw = "|".join(
        [
            f"v{CACHE_SCHEMA_VERSION}",
            trace.name,
            str(trace.seed),
            str(trace.n_instrs),
            machine_fingerprint(machine),
        ]
    )
    return hashlib.sha1(raw.encode()).hexdigest()


class CacheTelemetry(MetricView):
    """Counters for one cache instance's lifetime.

    A view over the ``sim.cache.*`` counters of a
    :class:`~repro.obs.metrics.MetricsRegistry` (shared with the executor
    when the cache is built by one); the attribute API is unchanged.

    Attributes:
        hits: Reads answered from a verified entry.
        misses: Reads with no entry on disk.
        quarantined: Corrupt entries moved to the quarantine directory.
        put_failures: Writes abandoned because the directory is unusable.
    """

    _fields = {
        name: f"sim.cache.{name}"
        for name in ("hits", "misses", "quarantined", "put_failures")
    }


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
            ``sim.cache.*`` counters live in; private when not given.
    """

    def __init__(
        self,
        directory: str,
        faults=None,
        metrics: MetricsRegistry | None = None,
    ):
        self.directory = directory
        self.faults = faults
        self.telemetry = CacheTelemetry(metrics)
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
        self.telemetry.put_failures += 1
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"simulation cache at {self.directory} is unusable ({exc}); "
                "degrading to uncached operation",
                RuntimeWarning,
                stacklevel=3,
            )

    def _load(self, key: str, decode):
        """``decode(payload)`` of one verified entry, or None on a miss.

        An entry failing the envelope check, or whose payload does not
        decode, is quarantined under the directory lock — so a concurrent
        shard's fresh ``put`` of the same key cannot be swept away between
        our corrupt read and the move — and counts as a miss.
        """
        path = self._path(key)
        try:
            _, body = unseal(path, CACHE_SCHEMA_VERSION)
            value = decode(json.loads(body))
        except FileNotFoundError:
            self.telemetry.misses += 1
            return None
        except (OSError, KeyError, TypeError, ValueError, AttributeError) as exc:
            logger.debug("quarantining cache entry %s: %s", path, exc)
            self.telemetry.quarantined += 1
            try:
                with file_lock(self._lock_path):
                    quarantine(path, self.quarantine_dir)
            except OSError as lock_exc:
                logger.debug("cache lock unavailable (%s); quarantining unlocked", lock_exc)
                quarantine(path, self.quarantine_dir)
            return None
        self.telemetry.hits += 1
        return value

    def get(
        self, trace: SyntheticTrace, machine: MachineConfig
    ) -> SimResult | None:
        """Cached result for this simulation, or None.

        Entries failing the integrity check are quarantined and treated as
        misses.
        """
        return self._load(
            cache_key(trace, machine),
            lambda payload: SimResult(
                machine=machine,
                trace_name=payload["trace_name"],
                threads=int(payload["threads"]),
                counts={k: float(v) for k, v in payload["counts"].items()},
                core_cycles=float(payload["core_cycles"]),
                dram_stall_weight=float(payload["dram_stall_weight"]),
                components={
                    k: float(v) for k, v in payload["components"].items()
                },
            ),
        )

    def verify(self, key: str) -> bool:
        """True when an intact entry exists for this key.

        Campaign workers use this to adopt results a crashed shard already
        stored (by key, without re-deriving the trace): corrupt entries are
        quarantined so the job is recomputed; a missing entry is False.
        """
        return self._load(key, lambda payload: True) is not None

    def put(
        self, trace: SyntheticTrace, machine: MachineConfig, result: SimResult
    ) -> None:
        """Store one simulation result (sealed, under the directory lock).

        A failed write (full or read-only filesystem) degrades the cache to
        uncached operation with a single warning; it never raises mid-batch.
        """
        if self.degraded:
            return
        key = cache_key(trace, machine)
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
            trace.name, nth_put
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
                with contextlib.suppress(OSError):
                    os.remove(os.path.join(self.directory, name))
                    removed += 1
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

    Pool workers cannot receive the cache object itself (it holds a
    metrics registry and open telemetry); they receive its directory and
    rebuild an equivalent writer over it.
    """
    return None if cache is None else cache.directory


def open_cache_spec(spec: str | None, faults=None) -> SimResultCache | None:
    """Rebuild the cache a :func:`cache_spec` value describes."""
    return None if spec is None else SimResultCache(spec, faults=faults)
