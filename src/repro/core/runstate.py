"""Crash-safe, resumable pipeline runs: journal + phase checkpoints.

A full GemStone evaluation is a long multi-phase pipeline (characterise ->
simulate -> analyse -> report, Section VII).  The simulation layer already
memoises per-job results on disk, but every *analysis* product
above it was all-or-nothing: a crash or SIGTERM during ``GemStone.report()``
threw away each completed phase.  This module makes a run restartable:

* A :class:`RunManifest` fingerprints the *resolved* configuration — only
  the fields that affect results (core, machine, workload recipe digests,
  frequencies, trace length, analysis knobs, fault plan), never execution
  knobs like ``engine`` or ``cache_dir`` that are bit-identical by
  construction.  A checkpoint directory written under a different
  fingerprint is detected and quarantined, never reused.
* A :class:`RunState` owns a **run journal** (a
  :class:`~repro.atomicio.Journal`) and one **checkpoint artifact per
  phase**: the pickled payload sealed in the :mod:`repro.atomicio`
  envelope, whose header also records the phase, fingerprint and phase
  key.  A checkpoint failing *any* envelope, header or unpickling check is
  quarantined to ``<dir>/quarantine/`` and recomputed — corrupt state is
  never trusted.
* :meth:`RunState.interruptible` installs SIGINT/SIGTERM handlers that
  journal the interruption and exit; because every checkpoint is written
  atomically *when its phase completes*, the state on disk is resumable at
  any kill point.
* **Phase splicing** makes recomputation after a config edit *minimal*
  rather than total: each phase's checkpoint carries a ``phase_key`` — a
  fingerprint over only the description fields that phase (and its
  ancestors in :data:`PHASE_GRAPH`) actually consumes.  When a directory
  holds a different run's artifacts, checkpoints whose phase key still
  matches the new manifest are kept and restored ("spliced"); only the
  invalidated subgraph is quarantined and recomputed.  Editing
  ``n_workload_clusters``, for example, re-runs clustering and its
  dependents while the datasets, correlations and power model restore
  from disk.

Journal records carry monotonic sequence numbers rather than timestamps:
the run layer lives inside :mod:`repro.core`, where wall-clock reads are a
determinism lint error (DET002) — and byte-identical resumed reports need
no clocks anyway.
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

from repro.atomicio import (
    EnvelopeError,
    Journal,
    atomic_write_text,
    quarantine,
    seal,
    unseal,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

#: Bump when the journal/checkpoint envelope format changes; old artifacts
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
#: phase, so its checkpoint can be spliced between them.
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
    """Identity of one run configuration, as stored in a checkpoint dir.

    Attributes:
        fingerprint: sha1 over the sorted-JSON ``description`` — the key
            every checkpoint in the directory is bound to.
        description: The resolved, result-affecting configuration fields
            (kept human-readable in ``manifest.json`` for post-mortems).
    """

    fingerprint: str
    description: dict

    @classmethod
    def from_config(cls, config: Any) -> "RunManifest":
        """Fingerprint a resolved :class:`~repro.core.pipeline.GemStoneConfig`.

        Only result-affecting fields participate: execution knobs
        (``retry``, ``engine``, ``guard_level``, ``cache_dir``,
        ``checkpoint_dir``, ``resume``) are bit-identical by construction
        and deliberately excluded, so re-running with another engine or
        cache resumes the same state.
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
        test manifests), fall back to the full ``fingerprint`` — splicing
        then degrades to the old all-or-nothing behaviour, never to a
        false match.
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


def _recorded_phase_key(path: str) -> str | None:
    """The ``phase_key`` in a checkpoint's verified header, or None."""
    try:
        header, _ = unseal(path, RUNSTATE_SCHEMA_VERSION)
    except (OSError, EnvelopeError):
        return None
    return header.get("phase_key")


class RunState:
    """One checkpoint directory bound to one :class:`RunManifest`.

    Args:
        directory: Checkpoint directory (created on demand).  When creation
            or a write fails (read-only or full filesystem) the run state
            degrades to *inert* — computation proceeds uncheckpointed —
            after a single warning, mirroring the simulation cache.
        manifest: Identity of the run; every artifact is bound to its
            fingerprint.
        resume: Restore checkpoints written by a previous run.  When
            False, existing checkpoints are left on disk but never read;
            fresh phases overwrite them atomically.
        tracer: Optional :class:`~repro.obs.tracer.Tracer`; checkpoint,
            restore, quarantine and interruption become trace events.
        metrics: Shared :class:`~repro.obs.metrics.MetricsRegistry` the
            run state bumps its counters in; private when not given.  They
            are ``core.runstate.restored``, ``.checkpointed``,
            ``.quarantined`` (corrupt or stale artifacts moved aside),
            ``.spliced`` (a previous run's checkpoints kept) and
            ``.journal_records_dropped`` (torn journal lines an append
            truncated).

    A directory holding a *different* fingerprint's artifacts is detected
    on open: everything in it is quarantined and the run starts fresh.
    """

    def __init__(
        self,
        directory: str,
        manifest: RunManifest,
        resume: bool = False,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.directory = directory
        self.manifest = manifest
        self.resume = resume
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.inert = False
        self._warned = False
        self._journal = Journal(self.journal_path)
        spliced: list[str] = []
        try:
            os.makedirs(directory, exist_ok=True)
            existing = self._read_manifest_fingerprint()
            if existing is not None and existing != manifest.fingerprint:
                # A corrupt manifest ("") attributes nothing in the
                # directory to any run, so nothing is spliced.
                spliced = self._sweep_stale(splice=existing != "")
                existing = None
            if existing is None:
                atomic_write_text(
                    self.manifest_path,
                    json.dumps(
                        {
                            "schema": RUNSTATE_SCHEMA_VERSION,
                            "fingerprint": manifest.fingerprint,
                            "config": manifest.description,
                        },
                        indent=2,
                        sort_keys=True,
                    ),
                )
        except OSError as exc:
            self._degrade(exc)
            return
        self.journal(
            "run-start",
            fingerprint=manifest.fingerprint,
            resume=bool(resume),
        )
        if spliced:
            self.journal("phases-spliced", phases=spliced)
            self.tracer.event("phases-spliced", phases=spliced)

    # ------------------------------------------------------------------ paths
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, "manifest.json")

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, "journal.jsonl")

    @property
    def quarantine_dir(self) -> str:
        """Where corrupt or stale artifacts are preserved for post-mortems."""
        return os.path.join(self.directory, "quarantine")

    def checkpoint_path(self, phase: str) -> str:
        return os.path.join(self.directory, f"{phase}.ckpt")

    def _read_manifest_fingerprint(self) -> str | None:
        """Fingerprint recorded in the directory, or None when fresh.

        A corrupt or unreadable manifest returns the empty string, which
        never matches a real fingerprint — the directory is then treated
        as stale and quarantined wholesale.
        """
        try:
            with open(self.manifest_path) as handle:
                data = json.load(handle)
            fingerprint = data["fingerprint"]
            if not isinstance(fingerprint, str):
                raise TypeError("fingerprint must be a string")
            return fingerprint
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            return ""

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

    def _sweep_stale(self, splice: bool) -> list[str]:
        """Quarantine a mismatched run's artifacts; return the kept phases.

        The manifest and journal belong to the *old* run and always go.
        With ``splice``, each checkpoint stays if and only if the phase key
        in its header matches what the *new* manifest derives for that
        phase — meaning every input the phase consumes is unchanged and its
        payload would be recomputed bit-identically.
        """
        spliced: list[str] = []
        for name in sorted(os.listdir(self.directory)):
            path = os.path.join(self.directory, name)
            if name.endswith(".ckpt"):
                phase = name[: -len(".ckpt")]
                if splice and _recorded_phase_key(path) == self.manifest.phase_key(phase):
                    spliced.append(phase)
                    continue
            elif name not in ("journal.jsonl", "manifest.json"):
                continue
            quarantine(path, self.quarantine_dir)
            self.metrics.counter("core.runstate.quarantined").inc()
        self.metrics.counter("core.runstate.spliced").inc(len(spliced))
        return spliced

    # ---------------------------------------------------------------- journal
    def journal(self, event: str, **fields: Any) -> None:
        """Append one record to the run journal (fsync'd)."""
        if self.inert:
            return
        try:
            self._journal.append(event, **fields)
        except OSError as exc:
            self._degrade(exc)
        else:
            self.metrics.counter("core.runstate.journal_records_dropped").inc(
                self._journal.dropped
            )

    def read_journal(self) -> list[dict]:
        """Verified journal records, oldest first.

        A torn or corrupt line (a crash mid-append) invalidates itself and
        everything after it; the next append truncates them and counts
        them, so reading never changes the count.
        """
        return self._journal.read()

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
                fingerprint=self.manifest.fingerprint,
                phase_key=self.manifest.phase_key(phase),
            )
        except OSError as exc:
            self._degrade(exc)
            return False
        self.metrics.counter("core.runstate.checkpointed").inc()
        self.journal("checkpointed", phase=phase, n_bytes=len(body))
        self.tracer.event("checkpointed", phase=phase, n_bytes=len(body))
        return True

    def restore(self, phase: str) -> Any | None:
        """The payload checkpointed for ``phase``, or None.

        Only consulted on a ``resume`` run.  A checkpoint that fails any
        envelope, phase, fingerprint or unpickling check is quarantined and
        None is returned — the phase is then recomputed.
        """
        if self.inert or not self.resume:
            return None
        path = self.checkpoint_path(phase)
        try:
            header, body = unseal(path, RUNSTATE_SCHEMA_VERSION)
            if header.get("phase") != phase:
                raise ValueError(f"phase {header.get('phase')!r}")
            if header.get("fingerprint") != self.manifest.fingerprint and (
                header.get("phase_key") != self.manifest.phase_key(phase)
            ):
                raise ValueError("fingerprint mismatch")
            payload = pickle.loads(body)
        except FileNotFoundError:
            return None
        except Exception as exc:  # noqa: BLE001 - any corruption -> recompute
            reason = f"{type(exc).__name__}: {exc}"
            quarantine(path, self.quarantine_dir)
            self.metrics.counter("core.runstate.quarantined").inc()
            self.journal("quarantined", artifact=f"{phase}.ckpt", reason=reason)
            self.tracer.event(
                "runstate-quarantined", artifact=f"{phase}.ckpt", reason=reason
            )
            return None
        self.metrics.counter("core.runstate.restored").inc()
        self.journal("restored", phase=phase)
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
        """Install SIGINT/SIGTERM handlers that leave a resumable state.

        On either signal the journal records the interruption (fsync'd),
        the previous handler is restored, and the process exits via
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
            self.journal("interrupted", signal=int(signum))
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
