"""Worker-purity rules: PURE001 (impure/unpicklable submitted callables)
and PURE002 (mutable default arguments).

:class:`~repro.sim.executor.SimExecutor`'s bit-identical-recovery guarantee
holds only because every job is a pure function of its payload: a crashed
or timed-out pool job is *rerun serially in the parent* and must produce
the same bytes.  A submitted callable that reads or mutates module-level
state computes different answers in the worker and the parent; a closure
or lambda does not survive pickling at all and silently degrades every
batch to the serial path.

PURE001 runs in two phases.  The per-file checker vets the submit site
itself (lambdas, closures, direct impurity of a same-module function); the
project-phase pass (:class:`SubmitPurityProjectChecker`) walks the
cross-module call graph and flags the site if *any* reachable callee —
bounded depth, cycle-safe — is impure, which the old same-module one-level
check could not see.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import DEFAULT_MAX_DEPTH
from repro.analysis.findings import Severity
from repro.analysis.project import ProjectIndex, first_impurity
from repro.analysis.rules import (
    BaseChecker,
    ProjectChecker,
    attach_project_pass,
    rule,
)


@rule(
    "PURE001",
    "callable submitted to a worker pool is impure or unpicklable",
    Severity.ERROR,
    "Pool workers rerun in the parent on crash/timeout must reproduce the "
    "same bytes, so submitted callables may not touch module-level mutable "
    "state anywhere in their call graph; lambdas and nested functions "
    "additionally fail pickling and silently force the serial fallback.",
)
class SubmitPurityChecker(BaseChecker):
    """Resolves ``pool.submit(fn, ...)`` sites and vets ``fn`` locally.

    Lambdas, closures and direct impurity of a same-module function are
    reported here; transitive (and cross-module) impurity is reported by
    the project-phase pass over the call graph.
    """

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
        ):
            self._check_submitted(node, node.args[0])
        self.generic_visit(node)

    def _check_submitted(self, site: ast.Call, callable_expr: ast.expr) -> None:
        # functools.partial(f, ...) submits f with bound arguments.
        if isinstance(callable_expr, ast.Call):
            resolved = self.ctx.imports.resolve(callable_expr.func)
            if resolved == "functools.partial" and callable_expr.args:
                self._check_submitted(site, callable_expr.args[0])
            return
        if isinstance(callable_expr, ast.Lambda):
            self.report(
                site,
                "lambda submitted to a worker pool cannot be pickled; "
                "submit a module-level function",
            )
            return
        if not isinstance(callable_expr, ast.Name):
            return
        name = callable_expr.id
        if name in self.ctx.inventory.nested_functions or (
            name in self.ctx.inventory.lambda_bound
        ):
            self.report(
                site,
                f"{name!r} is a closure (nested function or lambda binding) "
                "and cannot be pickled for a worker pool; hoist it to "
                "module level",
            )
            return
        fn = self.ctx.inventory.top_functions.get(name)
        if fn is None:
            return
        reason = first_impurity(fn, self.ctx.inventory)
        if reason is not None:
            self.report(
                site,
                f"submitted function {name!r} {reason}; workers must be "
                "pure functions of their payload",
            )


@attach_project_pass("PURE001")
class SubmitPurityProjectChecker(ProjectChecker):
    """Flags submit sites whose *transitive* call graph reaches impurity.

    For every ``pool.submit(fn, ...)`` site in the run, walk the resolved
    call graph from ``fn`` (bounded by :data:`DEFAULT_MAX_DEPTH`, cycles
    handled by the BFS visited set) and report the first impure function
    reached — ordered by (depth, qualified name), so the finding is
    deterministic.  One finding per site; sites the per-file checker
    already reported (same-module direct impurity) are skipped.
    """

    def check(self, index: ProjectIndex) -> None:
        for summary in index.modules.values():
            if not self.applies(summary.module):
                continue
            for site in summary.submit_sites:
                self._check_site(index, summary, site)

    def _check_site(self, index: ProjectIndex, summary, site) -> None:
        root = index.resolve_function(site.candidates)
        if root is None:
            return
        if root.module == summary.module and root.impurity is not None:
            # The per-file checker already reported this site.
            return
        if root.impurity is not None:
            self.report(
                summary.path,
                site.line,
                site.col,
                f"submitted function {site.display_name!r} {root.impurity}; "
                "workers must be pure functions of their payload",
            )
            return
        reached = index.graph.reachable(
            (root.qualname,), DEFAULT_MAX_DEPTH, include_roots=False
        )
        for reach in sorted(
            reached.values(), key=lambda r: (r.depth, r.qualname)
        ):
            callee = index.functions.get(reach.qualname)
            if callee is None or callee.impurity is None:
                continue
            message = (
                f"submitted function {site.display_name!r} calls "
                f"{callee.name!r}, which {callee.impurity}; workers must "
                "be pure functions of their payload"
            )
            if reach.depth >= 2:
                message += f" (via {reach.via()})"
            self.report(summary.path, site.line, site.col, message)
            return


#: Calls producing a fresh mutable container.
_MUTABLE_FACTORIES = frozenset(
    {
        "list", "dict", "set", "bytearray",
        "collections.defaultdict", "collections.deque",
        "collections.OrderedDict", "collections.Counter",
    }
)


@rule(
    "PURE002",
    "mutable default argument",
    Severity.ERROR,
    "A mutable default is created once at def-time and shared across every "
    "call, so state leaks between invocations — the classic source of "
    "run-order-dependent results.",
)
class MutableDefaultChecker(BaseChecker):
    """Flags list/dict/set (and friends) used as parameter defaults."""

    def _check_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        defaults = [
            default
            for default in (*node.args.defaults, *node.args.kw_defaults)
            if default is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                self.report(
                    default,
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside the function",
                )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                   ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            resolved = self.ctx.imports.resolve(node.func)
            return resolved in _MUTABLE_FACTORIES
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)
