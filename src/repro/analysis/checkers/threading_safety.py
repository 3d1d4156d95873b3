"""Thread-safety rules: THR001 (unlocked shared writes from a thread),
THR002 (lock acquired without ``with``/try-finally), THR003 (flag fields
read unsynchronised across a thread boundary).

The scope is where the threads are: the campaign's lease heartbeat
(:mod:`repro.sim.campaign`) is the only ``threading.Thread`` in the
package, and a test keeps every module that starts one inside the scope.
The rules keep the boundary honest: state shared between a thread and
the main thread is only touched under the owning lock, and plain boolean
flags are not a synchronisation primitive.

THR001/THR003 need the project call graph (a write is "on the thread
side" if it happens in the ``Thread`` target *or any callee*), so they run
as project-phase passes; THR002 is a purely local shape check.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding, Severity
from repro.analysis.names import dotted_parts
from repro.analysis.project import ClassSummary, ModuleSummary, ProjectIndex
from repro.analysis.rules import BaseChecker, ProjectChecker, project_rule, rule

#: Every module that starts a thread: today the campaign lease heartbeat.
#: A module that starts a new one joins the scope with it.
THREADING_SCOPE = ("repro.sim.campaign",)


def _is_lockish_chain(parts: list[str] | None) -> bool:
    if not parts:
        return False
    last = parts[-1].lower()
    return "lock" in last or "mutex" in last


@project_rule(
    "THR001",
    "shared attribute written from a thread without the owning lock",
    Severity.ERROR,
    "An attribute written by a background thread (the Thread target or "
    "any of its callees) and also touched by main-thread methods is a data "
    "race unless every write holds the class's lock; a race here corrupts "
    "the lease and job state that the campaign's recovery trusts.",
    scope=THREADING_SCOPE,
)
class SharedWriteProjectChecker(ProjectChecker):
    """Cross-references thread-reachable methods against unlocked writes.

    A finding needs all of: the class owns a lock attribute; the writing
    method is reachable from a ``threading.Thread`` target through the
    call graph; the write is not under a ``with <lock>:`` block; and the
    attribute is also accessed from at least one method *outside* the
    thread-reachable set (including ``__init__``) — i.e. it is genuinely
    shared across the boundary, not thread-private state.
    """

    def check(self, index: ProjectIndex) -> None:
        reachable = set(index.thread_reachable())
        if not reachable:
            return
        for summary in index.modules.values():
            if not self.applies(summary.module):
                continue
            for cls in summary.classes.values():
                if cls.lock_attrs:
                    self._check_class(index, summary, cls, reachable)

    def _check_class(
        self,
        index: ProjectIndex,
        summary: ModuleSummary,
        cls: ClassSummary,
        reachable: set[str],
    ) -> None:
        private = set(cls.lock_attrs) | set(cls.event_attrs)
        outside_attrs: set[str] = set()
        for qualname in cls.method_qualnames:
            if qualname in reachable:
                continue
            method = index.functions[qualname]
            outside_attrs.update(a.attr for a in method.attr_accesses)
        for qualname in cls.method_qualnames:
            if qualname not in reachable:
                continue
            method = index.functions[qualname]
            for access in method.attr_accesses:
                if access.kind == "read" or access.locked:
                    continue
                if access.attr in private or access.attr not in outside_attrs:
                    continue
                self.report(
                    summary.path,
                    access.line,
                    access.col,
                    f"attribute {access.attr!r} is written from the "
                    f"supervisor thread (via {method.name!r}) without "
                    f"holding the owning lock, but is shared with "
                    "main-thread methods; wrap the write in the class's "
                    "lock",
                )


@rule(
    "THR002",
    "lock acquired without `with` or try/finally release",
    Severity.ERROR,
    "A bare .acquire() that is not immediately followed by try/finally "
    ".release() leaks the lock on any exception, deadlocking every other "
    "thread that touches the shared state; `with lock:` is the only shape "
    "that cannot leak.",
    scope=THREADING_SCOPE,
)
class AcquireReleaseChecker(BaseChecker):
    """Flags ``.acquire()`` calls outside the safe structural patterns.

    The only accepted shape for a manual acquire is::

        lock.acquire()
        try:
            ...
        finally:
            lock.release()

    Everything else — acquire inside an expression, acquire followed by
    unprotected statements — is flagged.  ``with lock:`` never calls
    ``.acquire()`` in source, so it is trivially clean.
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
            receiver = dotted_parts(call.func.value)  # type: ignore[attr-defined]
            if self._releases(successor.finalbody, receiver):
                self._safe_acquires.add(id(call))

    def _acquire_call(self, stmt: ast.stmt) -> ast.Call | None:
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "acquire"
        ):
            return stmt.value
        return None

    def _releases(
        self, finalbody: list[ast.stmt], receiver: list[str] | None
    ) -> bool:
        for stmt in finalbody:
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr == "release"
                and dotted_parts(stmt.value.func.value) == receiver
            ):
                return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
            and _is_lockish_chain(dotted_parts(node.func.value))
            and id(node) not in self._safe_acquires
        ):
            self.report(
                node,
                "lock acquired without `with` or an immediate try/finally "
                "release; an exception between acquire and release "
                "deadlocks every other thread — use `with lock:`",
            )
        self.generic_visit(node)


@project_rule(
    "THR003",
    "flag attribute read unsynchronised across the thread boundary",
    Severity.WARNING,
    "A plain boolean attribute written on one side of a thread "
    "boundary and read without the lock on the other is a "
    "visibility hazard and an un-signallable race; use threading.Event "
    "(exempt from this rule) or read the flag under the owning lock.",
    scope=THREADING_SCOPE,
)
class FlagVisibilityProjectChecker(ProjectChecker):
    """Finds bool flags crossing the thread boundary without the lock.

    For every class-body attribute initialised to a bool literal: an
    *unlocked* read in a method on one side of the thread boundary, paired
    with any write on the other side, flags the read site.  Attributes
    holding ``threading.Event`` are exempt — that is the sanctioned
    primitive for exactly this signalling pattern.
    """

    def check(self, index: ProjectIndex) -> None:
        reachable = set(index.thread_reachable())
        if not reachable:
            return
        for summary in index.modules.values():
            if not self.applies(summary.module):
                continue
            for cls in summary.classes.values():
                self._check_class(index, summary, cls, reachable)

    def _check_class(
        self,
        index: ProjectIndex,
        summary: ModuleSummary,
        cls: ClassSummary,
        reachable: set[str],
    ) -> None:
        flags = set(cls.bool_flag_attrs) - set(cls.event_attrs)
        if not flags:
            return
        writers: dict[str, set[bool]] = {attr: set() for attr in sorted(flags)}
        for qualname in cls.method_qualnames:
            method = index.functions[qualname]
            on_thread = qualname in reachable
            for access in method.attr_accesses:
                if access.attr in flags and access.kind in ("write", "mutate"):
                    writers[access.attr].add(on_thread)
        for qualname in cls.method_qualnames:
            method = index.functions[qualname]
            on_thread = qualname in reachable
            for access in method.attr_accesses:
                if (
                    access.kind != "read"
                    or access.locked
                    or access.attr not in flags
                ):
                    continue
                if (not on_thread) not in writers[access.attr]:
                    continue  # no write on the opposite side → no race
                self.report(
                    summary.path,
                    access.line,
                    access.col,
                    f"boolean flag {access.attr!r} is read without the "
                    "owning lock while the other side of the thread "
                    "boundary writes it; use threading.Event or read "
                    "under the lock",
                )
