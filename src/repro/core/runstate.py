"""Crash-safe, restartable pipeline runs: one checkpoint per phase.

A full GemStone evaluation is a long multi-phase pipeline (characterise ->
simulate -> analyse -> report, Section VII).  The simulation layer already
memoises per-job results on disk, but every *analysis* product
above it was all-or-nothing: a crash or SIGTERM during ``GemStone.report()``
threw away each completed phase.  This module makes a run restartable:

* A :class:`RunManifest` describes the *resolved* configuration — only
  the fields that affect results (core, machine, workload recipe digests,
  frequencies, trace length, analysis knobs, fault plan), never execution
  knobs like ``engine`` or ``cache_dir`` that are bit-identical by
  construction.
* Each phase's ``phase_key`` fingerprints only the description fields
  that phase (and its ancestors in :data:`PHASE_GRAPH`) consumes.  It is
  a checkpoint's one identity, as :attr:`~repro.sim.result_cache.SimJob.key`
  is a result-cache entry's: two configurations that agree on those fields
  produce the bit-identical payload.
* A :class:`RunState` keeps one **checkpoint artifact per phase**
  (``<dir>/<phase>.ckpt``): the pickled payload sealed in the
  :mod:`repro.atomicio` envelope, whose header records the phase and its
  phase key.  A checkpoint failing *any* envelope, header, phase-key or
  unpickling check is quarantined to ``<dir>/quarantine/`` and
  recomputed — corrupt or stale state is never trusted.  A rerun on the
  same directory therefore restores every phase whose inputs did not
  change: rerunning an interrupted run finishes it, and editing
  ``n_workload_clusters`` re-runs clustering and its dependents while the
  datasets, correlations and power model restore from disk.
* :meth:`RunState.interruptible` installs SIGINT/SIGTERM handlers that
  trace the interruption and exit; because every checkpoint is written
  atomically *when its phase completes*, the state on disk is restartable
  at any kill point.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
import signal
import warnings
from dataclasses import dataclass
from typing import Any, Iterator

from repro.atomicio import quarantine, seal, unseal
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

#: Bump when the checkpoint envelope format changes; old artifacts
#: are then quarantined and recomputed instead of being misread (v2: the
#: manifest records workload recipe digests instead of names).
RUNSTATE_SCHEMA_VERSION = 2

#: Every checkpointable phase, in canonical pipeline order.
PHASES = (
    "dataset",
    "power-dataset",
    "workload-clusters",
    "pmc-correlation",
    "gem5-correlation",
    "regression-hw",
    "regression-gem5",
    "event-comparison",
    "power-model",
    "power-energy",
    "dvfs",
    "report",
)

#: Which manifest-description fields each phase consumes, and which phases
#: feed it.  The transitive closure of (own fields + ancestors' fields)
#: defines a phase's :meth:`RunManifest.phase_key`: two configurations that
#: agree on exactly those fields produce bit-identical payloads for the
#: phase, so its checkpoint serves both.
PHASE_GRAPH: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "dataset": (
        (),
        ("runstate_schema", "core", "machine", "workloads", "frequencies",
         "trace_instructions", "faults"),
    ),
    "power-dataset": (
        (),
        ("runstate_schema", "core", "power_workloads", "frequencies",
         "trace_instructions", "faults"),
    ),
    "workload-clusters": (
        ("dataset",), ("analysis_freq_hz", "n_workload_clusters"),
    ),
    "pmc-correlation": (("dataset",), ("analysis_freq_hz",)),
    "gem5-correlation": (("dataset",), ("analysis_freq_hz",)),
    "regression-hw": (("dataset",), ("analysis_freq_hz",)),
    "regression-gem5": (("dataset",), ("analysis_freq_hz",)),
    "event-comparison": (
        ("dataset", "workload-clusters"), ("analysis_freq_hz",),
    ),
    "power-model": (
        ("power-dataset",),
        ("core", "power_model_terms", "gem5_restrained_power_model"),
    ),
    "power-energy": (("dataset", "workload-clusters", "power-model"), ()),
    "dvfs": (("dataset", "workload-clusters", "power-model"), ()),
    "report": (tuple(p for p in PHASES if p != "report"), ()),
}


@dataclass(frozen=True)
class RunManifest:
    """Identity of one run configuration.

    Attributes:
        fingerprint: sha1 over the sorted-JSON ``description`` — the whole
            configuration's key (a campaign board syncs on it).
        description: The resolved, result-affecting configuration fields;
            :meth:`phase_key` hashes each phase's subset of them.
    """

    fingerprint: str
    description: dict

    @classmethod
    def from_config(cls, config: Any) -> "RunManifest":
        """Fingerprint a resolved :class:`~repro.core.pipeline.GemStoneConfig`.

        Only result-affecting fields participate: execution knobs
        (``retry``, ``engine``, ``guard_level``, ``cache_dir``,
        ``checkpoint_dir``) are bit-identical by construction and
        deliberately excluded, so re-running with another engine or cache
        restores the same checkpoints.
        Workloads are recorded by recipe digest, so a profile edited under
        a catalog name invalidates the phases that consumed it.
        """
        from repro.sim.result_cache import machine_fingerprint
        from repro.workloads.trace import recipe_digest

        faults = (
            dataclasses.asdict(config.faults)
            if config.faults is not None
            else None
        )

        def digests(profiles):
            return [recipe_digest(p, config.trace_instructions) for p in profiles]

        description = {
            "runstate_schema": RUNSTATE_SCHEMA_VERSION,
            "core": config.core,
            "machine": machine_fingerprint(config.resolve_machine()),
            "workloads": digests(config.resolve_workloads()),
            "power_workloads": digests(config.resolve_power_workloads()),
            "frequencies": [float(f) for f in config.resolve_frequencies()],
            "analysis_freq_hz": float(config.analysis_freq_hz),
            "trace_instructions": int(config.trace_instructions),
            "n_workload_clusters": int(config.n_workload_clusters),
            "power_model_terms": int(config.power_model_terms),
            "gem5_restrained_power_model": bool(
                config.gem5_restrained_power_model
            ),
            "faults": faults,
        }
        payload = json.dumps(description, sort_keys=True)
        return cls(
            fingerprint=hashlib.sha1(payload.encode()).hexdigest(),
            description=description,
        )

    def phase_key(self, phase: str) -> str:
        """Fingerprint of the description subset one phase depends on.

        Built from :data:`PHASE_GRAPH`: the phase's own fields plus the
        phase keys of its parents, recursively — so a change to any
        ancestor's inputs propagates down, while unrelated edits leave the
        key (and therefore the checkpoint) valid.  Unknown phases, and
        manifests whose description lacks a required field (hand-built
        test manifests), fall back to the full ``fingerprint`` — any
        configuration change then invalidates every phase, never yielding
        a false match.
        """
        spec = PHASE_GRAPH.get(phase)
        if spec is None:
            return self.fingerprint
        parents, fields = spec
        if any(name not in self.description for name in fields):
            return self.fingerprint
        payload = {
            "phase": phase,
            "fields": {name: self.description[name] for name in fields},
            "parents": {p: self.phase_key(p) for p in parents},
        }
        return hashlib.sha1(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()


class RunState:
    """One checkpoint directory, read and written under one :class:`RunManifest`.

    A checkpoint's identity is its sealed ``phase_key``: :meth:`restore`
    accepts an artifact only when its envelope verifies and its header
    names the phase and the phase key ``manifest`` derives for it, so a
    directory shared by differently configured runs serves each the
    phases whose inputs they agree on.

    Args:
        directory: Checkpoint directory (created on demand).  When creation
            or a write fails (read-only or full filesystem) the run state
            degrades to *inert* — computation proceeds uncheckpointed —
            after a single warning, mirroring the simulation cache.
        manifest: Identity of the run; each checkpoint is bound to the
            manifest's key for its phase.
        tracer: Optional :class:`~repro.obs.tracer.Tracer`; checkpoint,
            restore, quarantine and interruption become trace events.
        metrics: Shared :class:`~repro.obs.metrics.MetricsRegistry` the
            run state bumps its counters in; private when not given.  They
            are ``core.runstate.restored``, ``.checkpointed`` and
            ``.quarantined`` (corrupt or stale checkpoints moved aside).
    """

    def __init__(
        self,
        directory: str,
        manifest: RunManifest,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.directory = directory
        self.manifest = manifest
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.inert = False
        self._warned = False
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            self._degrade(exc)

    # ------------------------------------------------------------------ paths
    @property
    def quarantine_dir(self) -> str:
        """Where corrupt or stale checkpoints are preserved for post-mortems."""
        return os.path.join(self.directory, "quarantine")

    def checkpoint_path(self, phase: str) -> str:
        return os.path.join(self.directory, f"{phase}.ckpt")

    # -------------------------------------------------------------- degrading
    def _degrade(self, exc: OSError) -> None:
        self.inert = True
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"checkpoint directory {self.directory} is unusable ({exc}); "
                "continuing without checkpoints",
                RuntimeWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------ checkpoints
    def checkpoint(self, phase: str, payload: Any) -> bool:
        """Atomically persist one phase's payload; True when written."""
        if self.inert:
            return False
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            seal(
                self.checkpoint_path(phase),
                body,
                RUNSTATE_SCHEMA_VERSION,
                phase=phase,
                phase_key=self.manifest.phase_key(phase),
            )
        except OSError as exc:
            self._degrade(exc)
            return False
        self.metrics.counter("core.runstate.checkpointed").inc()
        self.tracer.event("checkpointed", phase=phase, n_bytes=len(body))
        return True

    def restore(self, phase: str) -> Any | None:
        """The payload checkpointed for ``phase``, or None.

        A checkpoint that fails any envelope, phase, phase-key or
        unpickling check — corrupt, or written under a configuration that
        changed an input of the phase — is quarantined and None is
        returned; the phase is then recomputed.
        """
        if self.inert:
            return None
        path = self.checkpoint_path(phase)
        try:
            header, body = unseal(path, RUNSTATE_SCHEMA_VERSION)
            if header.get("phase") != phase:
                raise ValueError(f"phase {header.get('phase')!r}")
            if header.get("phase_key") != self.manifest.phase_key(phase):
                raise ValueError("stale phase key")
            payload = pickle.loads(body)
        except FileNotFoundError:
            return None
        except Exception as exc:  # noqa: BLE001 - any corruption -> recompute
            reason = f"{type(exc).__name__}: {exc}"
            quarantine(path, self.quarantine_dir)
            self.metrics.counter("core.runstate.quarantined").inc()
            self.tracer.event(
                "runstate-quarantined", artifact=f"{phase}.ckpt", reason=reason
            )
            return None
        self.metrics.counter("core.runstate.restored").inc()
        self.tracer.event("restored", phase=phase)
        return payload

    def completed_phases(self) -> list[str]:
        """Phases with a checkpoint artifact on disk, in pipeline order."""
        return [
            phase
            for phase in PHASES
            if os.path.exists(self.checkpoint_path(phase))
        ]

    # ----------------------------------------------------------------- signals
    @contextlib.contextmanager
    def interruptible(self) -> Iterator[None]:
        """Install SIGINT/SIGTERM handlers that leave a restartable state.

        On either signal the tracer records the interruption, the previous
        handler is restored, and the process exits via
        ``KeyboardInterrupt`` (SIGINT) or ``SystemExit(128 + signum)``
        (SIGTERM).  Checkpoints are written atomically as phases complete,
        so no flushing of partial state is needed — whatever finished is
        already durable.  Outside the main thread (where ``signal`` is
        unavailable) this is a no-op.
        """
        if self.inert:
            yield
            return
        previous: dict[int, Any] = {}

        def _handler(signum: int, frame: Any) -> None:
            self.tracer.event("interrupted", signal=int(signum))
            with contextlib.suppress(ValueError, OSError):
                signal.signal(signum, previous.get(signum, signal.SIG_DFL))
            if signum == signal.SIGINT:
                raise KeyboardInterrupt
            raise SystemExit(128 + signum)

        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous[signum] = signal.signal(signum, _handler)
        except ValueError:
            # Not the main thread: signals cannot be installed here.
            yield
            return
        try:
            yield
        finally:
            for signum, prev in previous.items():
                with contextlib.suppress(ValueError, OSError):
                    signal.signal(signum, prev)
