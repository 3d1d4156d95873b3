"""Performance rule: PERF001 (per-element Python loop over a numpy array).

The replay hot path (:mod:`repro.sim`, :mod:`repro.uarch`) is columnar:
traces are decoded once into struct-of-arrays numpy batches and replayed
as vectorized passes.  A ``for`` loop that iterates a numpy array — or
``range(len(arr))`` over one — pays one interpreter round-trip *and one
scalar boxing* per element, which is exactly the cost profile the
columnar engine exists to avoid; indexing ``arr[i]`` inside such a loop
is slower still.  Sequential residues that genuinely cannot be
vectorized (LRU state machines, program-order walks) should iterate plain
Python lists — ``.tolist()`` the array once, which is also faster than
iterating the array — or carry an explicit ``# repro: noqa[PERF001]``
naming the reason the loop must stay scalar.

The rule is a heuristic over one file: it tracks names bound to numpy
calls (``x = np.flatnonzero(...)``), propagates through subscripts and
aliases, and flags ``for``/comprehension iteration over such values,
including through ``enumerate``/``zip``/``reversed`` and the
``range(len(...))`` index-loop idiom.  Rebinding a name to ``.tolist()``
(or any non-numpy expression) clears it.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Severity
from repro.analysis.rules import BaseChecker, rule

#: Builtin wrappers whose iteration is element-wise over their arguments.
_ITER_WRAPPERS = frozenset(
    {"enumerate", "zip", "reversed", "iter", "map", "filter", "sorted"}
    | {
        f"builtins.{name}"
        for name in ("enumerate", "zip", "reversed", "iter", "map", "filter",
                     "sorted")
    }
)


@rule(
    "PERF001",
    "per-element Python loop over a numpy array",
    Severity.WARNING,
    "The replay hot path is columnar: numpy batches with vectorized "
    "passes.  Iterating a numpy array element-by-element (directly, via "
    "enumerate/zip, or as range(len(arr))) costs one interpreter "
    "round-trip and one scalar boxing per element.  Vectorize the pass, "
    "or .tolist() the array once for a genuinely sequential residue "
    "(also faster), or suppress with a reason.",
    scope=("repro.sim", "repro.uarch"),
)
class NumpyElementLoopChecker(BaseChecker):
    """Flags ``for``/comprehension iteration over numpy-bound values."""

    def run(self, tree: ast.Module) -> list:
        # Pre-pass: every simple-name binding in the file, in line order,
        # marked numpy / not-numpy by its right-hand side.  Lookups take
        # the latest binding at or above the use line, so re-binding a
        # name to ``.tolist()`` clears it from there on.
        self._bindings: dict[str, list[tuple[int, bool]]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            is_numpy = self._is_numpy_expr(value)
            for target in targets:
                if isinstance(target, ast.Name):
                    self._bindings.setdefault(target.id, []).append(
                        (node.lineno, is_numpy)
                    )
        for entries in self._bindings.values():
            entries.sort()
        return super().run(tree)

    # ------------------------------------------------------------ lookup

    def _name_is_numpy(self, name: str, at_line: int) -> bool:
        entries = self._bindings.get(name)
        if not entries:
            return False
        # Latest binding at or above the use; a name first bound further
        # down the file (another function's local, say) is not tracked —
        # missing that is cheaper than flagging a parameter that happens
        # to share its name.
        before = [is_numpy for line, is_numpy in entries if line <= at_line]
        return before[-1] if before else False

    def _is_numpy_expr(self, node: ast.expr) -> bool:
        """Whether ``node`` (heuristically) evaluates to a numpy array."""
        if isinstance(node, ast.Call):
            name = self.ctx.imports.resolve(node.func)
            return name is not None and (
                name == "numpy" or name.startswith("numpy.")
            )
        if isinstance(node, ast.Subscript):
            # Slices of arrays are arrays; integer indexing yields a
            # scalar, which nothing iterates — over-approximating is fine.
            return self._is_numpy_expr(node.value)
        if isinstance(node, ast.Name):
            return self._name_is_numpy(node.id, node.lineno)
        return False

    # ---------------------------------------------------------- checking

    def _numpy_iteration(self, iterable: ast.expr) -> str | None:
        """A message if ``iterable`` walks a numpy array, else None."""
        if isinstance(iterable, ast.Call):
            name = self.ctx.imports.resolve(iterable.func)
            if name in _ITER_WRAPPERS:
                for arg in iterable.args:
                    message = self._numpy_iteration(arg)
                    if message is not None:
                        return message
                return None
            if name in ("range", "builtins.range"):
                for call in ast.walk(iterable):
                    if (
                        isinstance(call, ast.Call)
                        and self.ctx.imports.resolve(call.func)
                        in ("len", "builtins.len")
                        and len(call.args) == 1
                        and self._is_numpy_expr(call.args[0])
                    ):
                        return (
                            "range(len(...)) over a numpy array drives a "
                            "per-element Python loop; vectorize the pass "
                            "or iterate a .tolist() copy"
                        )
                return None
        if self._is_numpy_expr(iterable):
            return (
                "iterating a numpy array element-by-element; vectorize "
                "the pass or iterate a .tolist() copy (faster and "
                "unboxed)"
            )
        return None

    def visit_For(self, node: ast.For) -> None:
        message = self._numpy_iteration(node.iter)
        if message is not None:
            self.report(node, message)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        message = self._numpy_iteration(node.iter)
        if message is not None:
            self.report(node.iter, message)
        self.generic_visit(node)
