"""Robustness rules: ROB001 (handler swallows BaseException), ROB002
(non-atomic artifact write in a crash-safe layer), ROB003 (silent
degradation in a recovery path), ROB004 (file lock acquired without a
try/finally release).

The executor and cache recovery paths deliberately catch ``Exception`` to
degrade gracefully (serial fallback, cache quarantine) — that is policy.
What must never happen is a *bare* ``except:`` or ``except BaseException:``
that also swallows ``KeyboardInterrupt``/``SystemExit``: a hung worker
becomes unkillable and a poisoned batch reports success.  Re-raising
handlers (``raise`` with no argument) are exempt.

ROB002 enforces the other half of the crash-safety contract: inside
``repro.sim`` and ``repro.core`` every artifact must reach disk through
:mod:`repro.atomicio` — an atomic replace (tmp file + fsync +
``os.replace``), a sealed envelope, or a :class:`repro.atomicio.Journal`
append.  A plain ``open(path, "w")`` truncates the previous artifact before
the new bytes land, and ``os.rename`` is the clobber-prone cousin of
``os.replace`` — both leave a torn file behind a crash, which is exactly
what the checkpoint/resume layer exists to prevent.

ROB004 enforces the locking contract of :mod:`repro.atomicio`, the one
module that calls ``flock`` (its :func:`~repro.atomicio.file_lock` serves
the campaign board and the result cache): an advisory
``fcntl.flock``/``lockf`` acquisition must be immediately followed by a
``try`` whose ``finally`` unlocks (``LOCK_UN``) or closes the handle.  A
worker that raises between acquire and release holds the board or cache
lock for as long as the handle lives; under lease-based work stealing
that wedges every other shard sharing the directory.

ROB003 enforces the guardrail contract of :mod:`repro.sim.guard`: a
recovery handler inside ``repro.sim`` that degrades (engine fallback,
quarantine, skipped entry) must leave a trace — a
:class:`~repro.sim.guard.GuardEvent`/health record, a registry counter
bump, a tracer event or at minimum a log line.  A handler that just
``return``s a default swallows the *fact* that something went wrong, which
is exactly the "silent wrong number" failure mode the guard layer exists
to kill.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import BaseChecker, rule


def _names_base_exception(node: ast.expr | None) -> bool:
    if node is None:
        return True  # bare ``except:``
    if isinstance(node, ast.Name):
        return node.id == "BaseException"
    if isinstance(node, ast.Tuple):
        return any(_names_base_exception(element) for element in node.elts)
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )


@rule(
    "ROB001",
    "handler swallows BaseException",
    Severity.ERROR,
    "A bare except (or except BaseException) also catches KeyboardInterrupt "
    "and SystemExit, turning fault recovery into an unkillable process that "
    "reports success; catch Exception, or re-raise.",
)
class SwallowedBaseExceptionChecker(BaseChecker):
    """Flags bare/``BaseException`` handlers that do not re-raise."""

    def _check_handlers(self, node: ast.Try) -> None:
        for handler in node.handlers:
            if _names_base_exception(handler.type) and not _reraises(handler):
                what = (
                    "bare 'except:'"
                    if handler.type is None
                    else "'except BaseException:'"
                )
                self.report(
                    handler,
                    f"{what} swallows KeyboardInterrupt/SystemExit; catch "
                    "Exception (or narrower), or re-raise",
                )

    def visit_Try(self, node: ast.Try) -> None:
        self._check_handlers(node)
        self.generic_visit(node)

    # Python 3.11+ ``except*`` groups; same hazard, same rule.
    def visit_TryStar(self, node: ast.Try) -> None:
        self._check_handlers(node)
        self.generic_visit(node)


def _open_mode(node: ast.Call) -> str | None:
    """The mode string of an ``open``-style call, if statically known.

    Returns ``"r"`` when no mode is given (the default), the constant
    string when one is, and ``None`` for a dynamic mode expression —
    dynamic modes get the benefit of the doubt.
    """
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


#: Terminal attribute names whose call counts as "the degradation was
#: recorded": guard/health records, registry counter bumps
#: (``metrics.counter(name).inc()``), span/tracer attributes, structured
#: logging, warnings.
_EMISSION_CALLS = frozenset(
    {
        "record",
        "inc",
        "record_failure",
        "record_guard_event",
        "absorb",
        "absorb_guard_events",
        "event",
        "set",
        "warn",
        "debug",
        "info",
        "warning",
        "error",
        "exception",
        "critical",
        "_degrade",
    }
)


def _emits_record(handler: ast.ExceptHandler) -> bool:
    """Whether a handler leaves any trace of the failure it absorbed.

    Recognised traces: re-raising (or raising a transformed error), calling
    an emission-style method (:data:`_EMISSION_CALLS` — guard events,
    health records, registry counter bumps such as
    ``self.metrics.counter("sim.cache.misses").inc()``, tracer events, log
    calls, warnings, the cache's degrade helper), constructing a
    ``GuardEvent`` (the guard layer's structured record of a degradation),
    or an augmented attribute assignment (the executor's
    ``self.telemetry.jobs_failed += 1``).
    """
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _EMISSION_CALLS:
                return True
            if isinstance(func, ast.Name) and func.id == "GuardEvent":
                return True
        if isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Attribute
        ):
            return True
    return False


@rule(
    "ROB003",
    "silent degradation in a recovery path",
    Severity.ERROR,
    "An engine-fallback or quarantine handler that absorbs an exception "
    "without emitting a GuardEvent, health record, counter bump, tracer "
    "event or log line hides that the run degraded — the silent-wrong-"
    "number failure mode the guard layer exists to prevent.",
    scope=("repro.sim",),
)
class SilentDegradationChecker(BaseChecker):
    """Flags named-exception handlers in ``repro.sim`` that leave no trace.

    Bare and ``BaseException`` handlers are ROB001's domain and skipped
    here, so one bad handler never double-reports.
    """

    def _check_handlers(self, node: ast.Try) -> None:
        for handler in node.handlers:
            if _names_base_exception(handler.type):
                continue
            if not _emits_record(handler):
                caught = ast.unparse(handler.type)
                self.report(
                    handler,
                    f"'except {caught}:' degrades silently; record the "
                    "fallback (GuardEvent/health record, registry counter, "
                    "tracer event or log line) or re-raise",
                )

    def visit_Try(self, node: ast.Try) -> None:
        self._check_handlers(node)
        self.generic_visit(node)

    def visit_TryStar(self, node: ast.Try) -> None:
        self._check_handlers(node)
        self.generic_visit(node)


@rule(
    "ROB002",
    "non-atomic artifact write",
    Severity.ERROR,
    "In the crash-safe layers a plain open(..., 'w'/'x') truncates the old "
    "artifact before the new bytes are durable, and os.rename clobbers "
    "non-atomically; a crash mid-write leaves a torn file that a resumed "
    "run would trust.  Route writes through repro.atomicio (tmp file + "
    "fsync + os.replace, or a repro.atomicio.Journal append).",
    scope=("repro.sim", "repro.core"),
)
class NonAtomicWriteChecker(BaseChecker):
    """Flags in-place artifact writes that bypass ``repro.atomicio``."""

    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.imports.resolve(node.func)
        if name in ("open", "io.open", "builtins.open"):
            mode = _open_mode(node)
            if mode is not None and mode[:1] in ("w", "x"):
                self.report(
                    node,
                    f"open(..., {mode!r}) writes the artifact in place; "
                    "use repro.atomicio.atomic_write_text/atomic_write_bytes "
                    "(or append to a repro.atomicio.Journal)",
                )
        elif name == "os.rename":
            self.report(
                node,
                "os.rename is the clobber-prone spelling; use os.replace — "
                "ideally via repro.atomicio, which pairs it with a same-"
                "directory tmp file and fsync",
            )
        self.generic_visit(node)


#: The advisory-lock entry points behind repro.atomicio.file_lock.
_FLOCK_CALLS = ("fcntl.flock", "fcntl.lockf")


def _lock_flags(node: ast.Call) -> set[str]:
    """Every ``LOCK_*`` flag named anywhere in a call's arguments.

    Walks the argument expressions, so composed flags
    (``LOCK_EX | LOCK_NB``) and both spellings (``fcntl.LOCK_EX`` and a
    from-imported ``LOCK_EX``) are all seen.
    """
    flags: set[str] = set()
    for arg in list(node.args) + [kw.value for kw in node.keywords]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Attribute) and sub.attr.startswith("LOCK_"):
                flags.add(sub.attr)
            elif isinstance(sub, ast.Name) and sub.id.startswith("LOCK_"):
                flags.add(sub.id)
    return flags


@rule(
    "ROB004",
    "file lock acquired without try/finally release",
    Severity.ERROR,
    "A worker that raises between flock(LOCK_EX) and its LOCK_UN holds the "
    "board or cache lock for as long as the handle lives; under lease-based "
    "work stealing that wedges every other shard sharing the directory.  "
    "Follow the acquisition immediately with try/finally that unlocks "
    "(LOCK_UN) or closes the handle.",
    scope=("repro.atomicio",),
)
class FileLockReleaseChecker(BaseChecker):
    """Flags ``fcntl.flock``/``lockf`` acquisitions outside the safe shape.

    The only accepted shape for an exclusive/shared acquisition is::

        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            ...
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    (closing or ``.release()``-ing the handle in the ``finally`` also
    counts — the kernel drops an flock with its last open descriptor).
    Anything else — an acquisition inside an expression, or followed by
    unprotected statements — is flagged.
    """

    def run(self, tree: ast.Module) -> list[Finding]:
        self._safe_acquires: set[int] = set()
        self._collect_safe(tree)
        return super().run(tree)

    def _collect_safe(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            body = getattr(node, "body", None)
            if not isinstance(body, list):
                continue
            for block in (body, getattr(node, "orelse", []),
                          getattr(node, "finalbody", [])):
                self._scan_block(block)

    def _scan_block(self, block: list[ast.stmt]) -> None:
        for stmt, successor in zip(block, block[1:]):
            call = self._acquire_call(stmt)
            if call is None or not isinstance(successor, ast.Try):
                continue
            if self._releases(successor.finalbody):
                self._safe_acquires.add(id(call))

    def _acquire_call(self, stmt: ast.stmt) -> ast.Call | None:
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and self._is_acquire(stmt.value)
        ):
            return stmt.value
        return None

    def _is_acquire(self, call: ast.Call) -> bool:
        name = self.ctx.imports.resolve(call.func)
        return name in _FLOCK_CALLS and bool(
            _lock_flags(call) & {"LOCK_EX", "LOCK_SH"}
        )

    def _releases(self, finalbody: list[ast.stmt]) -> bool:
        for stmt in finalbody:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                name = self.ctx.imports.resolve(node.func)
                if name in _FLOCK_CALLS and "LOCK_UN" in _lock_flags(node):
                    return True
                if isinstance(node.func, ast.Attribute) and node.func.attr in (
                    "close", "release",
                ):
                    return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_acquire(node) and id(node) not in self._safe_acquires:
            self.report(
                node,
                "file lock acquired without an immediate try/finally "
                "release; an exception before LOCK_UN wedges every other "
                "worker sharing the directory",
            )
        self.generic_visit(node)
