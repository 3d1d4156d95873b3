"""Project-wide symbol table, fact extraction and the ``ProjectIndex``.

Single-file AST rules see one module at a time; the invariants they guard
stopped being single-file long ago (pool workers calling across modules,
heartbeat threads sharing state with the campaign board, decoded columns
flowing between ``repro.sim`` and ``repro.uarch``).  This module extracts a
compact :class:`ModuleSummary` from every analysed file — the facts a
cross-module pass needs, without keeping ASTs alive — and assembles them
into a :class:`ProjectIndex`: a symbol table plus a deterministic
:class:`~repro.analysis.callgraph.CallGraph`, resolved through each
file's :class:`~repro.analysis.names.ImportMap`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.callgraph import DEFAULT_MAX_DEPTH, CallGraph, Reach
from repro.analysis.names import ImportMap, absolutize, dotted_parts

__all__ = [
    "AttrAccess",
    "CallSite",
    "ClassSummary",
    "ClockCall",
    "FunctionSummary",
    "ModuleInventory",
    "ModuleSummary",
    "ProjectIndex",
    "SubmitSite",
    "ThreadSpawn",
    "first_impurity",
    "summarize_module",
    "DEFAULT_MAX_DEPTH",
    "DETERMINISTIC_SCOPE",
    "WALL_CLOCK_AND_ENTROPY",
]

#: Modules whose code must be a deterministic function of explicit inputs.
#: Canonical definition (the DET checkers re-export it): the project layer
#: needs it too, and it must not import checker modules.
DETERMINISTIC_SCOPE = (
    "repro.sim",
    "repro.uarch",
    "repro.workloads",
    "repro.core",
    "repro.events",
)

#: Wall-clock and entropy sources that must never feed a deterministic
#: code path.  time.perf_counter / time.monotonic are deliberately absent:
#: telemetry may measure durations as long as results do not depend on them.
WALL_CLOCK_AND_ENTROPY = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
        "secrets.choice",
    }
)

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "appendleft",
        "extendleft", "popleft", "sort", "reverse",
    }
)

#: Module-level factory calls whose bound name reads as effectively
#: constant even when lowercase: process-local observability handles whose
#: state never feeds back into results.
_CONSTANT_FACTORIES = frozenset(
    {
        "logging.getLogger",
        "repro.obs.log.get_logger",
        "get_logger",
    }
)

#: Lock-producing constructors for lock-attribute discovery.
_LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
    }
)

_EVENT_FACTORY = "threading.Event"


def _is_constant_style(name: str) -> bool:
    """Module bindings that read as constants/classes, not mutable state."""
    stripped = name.strip("_")
    if not stripped:
        return True
    if name.startswith("__") and name.endswith("__"):
        return True
    return stripped[0].isupper()


# ---------------------------------------------------------------------------
# Per-file fact records (all hashable value objects)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CallSite:
    """One statically resolvable call inside a function body.

    Attributes:
        candidates: Fully qualified names the target may resolve to (the
            resolution is conservative; unresolvable receivers are simply
            not recorded).
        line: 1-based source line of the call.
        col: 1-based source column of the call.
        value_used: Whether the call's return value is consumed (anything
            but a bare expression statement).
    """

    candidates: tuple[str, ...]
    line: int
    col: int
    value_used: bool


@dataclass(frozen=True)
class ClockCall:
    """A direct wall-clock/entropy call (DET taint source)."""

    name: str
    line: int
    col: int
    value_used: bool


@dataclass(frozen=True)
class AttrAccess:
    """One ``self.<attr>`` access inside a method.

    ``kind`` is ``"read"``, ``"write"`` (assignment/augassign) or
    ``"mutate"`` (in-place mutator method call); ``locked`` records whether
    the access sits lexically inside a ``with <lock>:`` block.
    """

    attr: str
    line: int
    col: int
    kind: str
    locked: bool


@dataclass(frozen=True)
class FunctionSummary:
    """Cross-module-relevant facts about one function or method."""

    qualname: str
    module: str
    name: str
    line: int
    col: int
    owner_class: str | None
    impurity: str | None
    calls: tuple[CallSite, ...]
    clock_calls: tuple[ClockCall, ...]
    attr_accesses: tuple[AttrAccess, ...]


@dataclass(frozen=True)
class ClassSummary:
    """Thread-safety-relevant facts about one class."""

    qualname: str
    name: str
    line: int
    method_qualnames: tuple[str, ...]
    lock_attrs: tuple[str, ...]
    event_attrs: tuple[str, ...]
    bool_flag_attrs: tuple[str, ...]


@dataclass(frozen=True)
class ThreadSpawn:
    """One ``threading.Thread(target=...)`` construction site."""

    target_candidates: tuple[str, ...]
    line: int
    col: int


@dataclass(frozen=True)
class SubmitSite:
    """One ``pool.submit(fn, ...)`` site with a named, resolvable ``fn``."""

    display_name: str
    candidates: tuple[str, ...]
    line: int
    col: int


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the project phase needs to know about one file."""

    module: str
    path: str
    is_package: bool
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    submit_sites: tuple[SubmitSite, ...] = ()
    thread_spawns: tuple[ThreadSpawn, ...] = ()


# ---------------------------------------------------------------------------
# Module inventory + impurity judgement (shared with the PURE001 checker)
# ---------------------------------------------------------------------------

@dataclass
class ModuleInventory:
    """Module-level facts needed to judge a function's worker purity."""

    top_functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    mutable_globals: set[str] = field(default_factory=set)
    nested_functions: set[str] = field(default_factory=set)
    lambda_bound: set[str] = field(default_factory=set)

    @classmethod
    def from_tree(
        cls, tree: ast.Module, imports: ImportMap | None = None
    ) -> "ModuleInventory":
        inventory = cls()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inventory.top_functions[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign):
                if _is_constant_factory_call(stmt.value, imports):
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and not _is_constant_style(
                        target.id
                    ):
                        inventory.mutable_globals.add(target.id)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(stmt, ast.AnnAssign) and _is_constant_factory_call(
                    stmt.value, imports
                ):
                    continue
                target = stmt.target
                if isinstance(target, ast.Name) and not _is_constant_style(
                    target.id
                ):
                    inventory.mutable_globals.add(target.id)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                if inner is node:
                    continue
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inventory.nested_functions.add(inner.name)
                elif isinstance(inner, ast.Assign) and isinstance(
                    inner.value, ast.Lambda
                ):
                    for target in inner.targets:
                        if isinstance(target, ast.Name):
                            inventory.lambda_bound.add(target.id)
        return inventory


def _is_constant_factory_call(
    value: ast.expr | None, imports: ImportMap | None
) -> bool:
    """``logger = get_logger(__name__)``-style effectively-constant bindings."""
    if not isinstance(value, ast.Call):
        return False
    if imports is not None:
        resolved = imports.resolve(value.func)
        if resolved in _CONSTANT_FACTORIES:
            return True
    parts = dotted_parts(value.func)
    return bool(parts) and parts[-1] in ("get_logger", "getLogger")


def _local_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameter and locally-bound names that shadow module globals."""
    args = fn.args
    names = {
        arg.arg
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        )
    }
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def first_impurity(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    inventory: ModuleInventory,
) -> str | None:
    """First reason ``fn`` is not worker-pure, or None if it looks pure."""
    local = _local_names(fn)

    def is_global(name: str) -> bool:
        return name in inventory.mutable_globals and name not in local

    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            return f"declares 'global {', '.join(node.names)}'"
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if is_global(node.id):
                return f"reads module-level mutable state {node.id!r}"
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                base: ast.expr = target
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if isinstance(base, ast.Name) and is_global(base.id):
                    return f"writes module-level state {base.id!r}"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
            and isinstance(node.func.value, ast.Name)
            and is_global(node.func.value.id)
        ):
            return (
                f"mutates module-level state {node.func.value.id!r} via "
                f".{node.func.attr}()"
            )
    return None


# ---------------------------------------------------------------------------
# Summarisation
# ---------------------------------------------------------------------------

def _bare_statement_calls(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[int]:
    """ids of Call nodes whose value is discarded (bare ``f()`` statements)."""
    bare: set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            bare.add(id(node.value))
    return bare


class _Resolver:
    """Shared name-resolution helpers for one module's summarisation."""

    def __init__(self, module: str, is_package: bool, imports: ImportMap,
                 top_level: set[str]):
        self.module = module
        self.is_package = is_package
        self.imports = imports
        self.top_level = top_level

    def qualify(self, dotted: str) -> str:
        """Absolutize an import-resolved dotted path."""
        return absolutize(dotted, self.module, self.is_package)

    def reference_candidates(
        self, node: ast.expr, owner_class: str | None
    ) -> tuple[str, ...]:
        """Qualified names a function *reference* may denote (not a call)."""
        parts = dotted_parts(node)
        if not parts:
            return ()
        if parts[0] == "self" and owner_class is not None and len(parts) == 2:
            return (f"{self.module}.{owner_class}.{parts[1]}",)
        if len(parts) == 1:
            name = parts[0]
            if name in self.top_level:
                return (f"{self.module}.{name}",)
            if self.imports.is_imported(name):
                return (self.qualify(self.imports.resolve(node) or name),)
            return ()
        resolved = self.imports.resolve(node)
        if resolved is None:
            return ()
        head = parts[0]
        if self.imports.is_imported(head):
            return (self.qualify(resolved),)
        if head in self.top_level:
            # Class attribute chains (Class.method) on a local class.
            return (f"{self.module}.{resolved}",)
        return ()


class _FunctionVisitor(ast.NodeVisitor):
    """Collects call sites, clock calls and attr accesses for one function.

    Nested function/lambda bodies are included (their effects run when the
    outer function runs — a deliberate over-approximation that keeps the
    graph sound for purity and taint propagation).
    """

    def __init__(self, resolver: _Resolver, owner_class: str | None,
                 lock_attrs: set[str]):
        self.resolver = resolver
        self.owner_class = owner_class
        self.lock_attrs = lock_attrs
        self.calls: list[CallSite] = []
        self.clock_calls: list[ClockCall] = []
        self.attr_accesses: list[AttrAccess] = []
        self._bare: set[int] = set()
        self._lock_depth = 0

    def collect(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._bare = _bare_statement_calls(fn)
        for stmt in fn.body:
            self.visit(stmt)

    # ------------------------------------------------------------- lock scope
    def _is_lockish(self, node: ast.expr) -> bool:
        parts = dotted_parts(node)
        if not parts:
            return False
        last = parts[-1].lower()
        if "lock" in last or "mutex" in last:
            return True
        return (
            len(parts) == 2
            and parts[0] == "self"
            and parts[1] in self.lock_attrs
        )

    def visit_With(self, node: ast.With) -> None:
        locked = any(self._is_lockish(item.context_expr) for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
        if locked:
            self._lock_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if locked:
            self._lock_depth -= 1

    visit_AsyncWith = visit_With

    # ------------------------------------------------------------- attr facts
    def _record_attr(self, attr: str, node: ast.AST, kind: str) -> None:
        self.attr_accesses.append(
            AttrAccess(
                attr=attr,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                kind=kind,
                locked=self._lock_depth > 0,
            )
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            if isinstance(node.ctx, ast.Store):
                self._record_attr(node.attr, node, "write")
            elif isinstance(node.ctx, ast.Load):
                self._record_attr(node.attr, node, "read")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self._record_attr(target.attr, node, "write")
            self.visit(node.value)
            return
        self.generic_visit(node)

    # ------------------------------------------------------------- call facts
    def visit_Call(self, node: ast.Call) -> None:
        value_used = id(node) not in self._bare
        # In-place mutator on a self attribute counts as a write.
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATOR_METHODS
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            self._record_attr(func.value.attr, node, "mutate")
        resolved = self.resolver.imports.resolve(func)
        if resolved is not None:
            resolved = self.resolver.qualify(resolved)
        if resolved in WALL_CLOCK_AND_ENTROPY:
            self.clock_calls.append(
                ClockCall(
                    name=resolved,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    value_used=value_used,
                )
            )
        candidates = self.resolver.reference_candidates(func, self.owner_class)
        if candidates:
            self.calls.append(
                CallSite(
                    candidates=candidates,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    value_used=value_used,
                )
            )
        self.generic_visit(node)


def _class_facts(
    node: ast.ClassDef, resolver: _Resolver
) -> tuple[set[str], set[str], set[str]]:
    """(lock_attrs, event_attrs, bool_flag_attrs) for one class body."""
    lock_attrs: set[str] = set()
    event_attrs: set[str] = set()
    flags: set[str] = set()
    for inner in ast.walk(node):
        if not isinstance(inner, ast.Assign):
            continue
        for target in inner.targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            value = inner.value
            if isinstance(value, ast.Call):
                resolved = resolver.imports.resolve(value.func)
                if resolved is not None:
                    resolved = resolver.qualify(resolved)
                if resolved in _LOCK_FACTORIES:
                    lock_attrs.add(target.attr)
                elif resolved == _EVENT_FACTORY:
                    event_attrs.add(target.attr)
            elif isinstance(value, ast.Constant) and isinstance(
                value.value, bool
            ):
                flags.add(target.attr)
    return lock_attrs, event_attrs, flags


def _summarize_function(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    resolver: _Resolver,
    inventory: ModuleInventory,
    owner_class: str | None,
    lock_attrs: set[str],
) -> FunctionSummary:
    visitor = _FunctionVisitor(resolver, owner_class, lock_attrs)
    visitor.collect(fn)
    qual = (
        f"{resolver.module}.{owner_class}.{fn.name}"
        if owner_class
        else f"{resolver.module}.{fn.name}"
    )
    return FunctionSummary(
        qualname=qual,
        module=resolver.module,
        name=fn.name,
        line=fn.lineno,
        col=fn.col_offset + 1,
        owner_class=owner_class,
        impurity=first_impurity(fn, inventory) if owner_class is None else None,
        calls=tuple(visitor.calls),
        clock_calls=tuple(visitor.clock_calls),
        attr_accesses=tuple(visitor.attr_accesses),
    )


def summarize_module(
    tree: ast.Module,
    module: str,
    path: str,
    imports: ImportMap,
    inventory: ModuleInventory,
    is_package: bool = False,
) -> ModuleSummary:
    """Extract the project-phase facts from one parsed module."""
    top_level = set(inventory.top_functions) | {
        stmt.name for stmt in tree.body if isinstance(stmt, ast.ClassDef)
    }
    resolver = _Resolver(module, is_package, imports, top_level)

    functions: dict[str, FunctionSummary] = {}
    classes: dict[str, ClassSummary] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary = _summarize_function(stmt, resolver, inventory, None, set())
            functions[summary.qualname] = summary
        elif isinstance(stmt, ast.ClassDef):
            lock_attrs, event_attrs, flags = _class_facts(stmt, resolver)
            method_quals: list[str] = []
            for inner in stmt.body:
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    summary = _summarize_function(
                        inner, resolver, inventory, stmt.name, lock_attrs
                    )
                    functions[summary.qualname] = summary
                    method_quals.append(summary.qualname)
            classes[f"{module}.{stmt.name}"] = ClassSummary(
                qualname=f"{module}.{stmt.name}",
                name=stmt.name,
                line=stmt.lineno,
                method_qualnames=tuple(method_quals),
                lock_attrs=tuple(sorted(lock_attrs)),
                event_attrs=tuple(sorted(event_attrs)),
                bool_flag_attrs=tuple(sorted(flags)),
            )

    submit_sites = _collect_submit_sites(tree, resolver)
    thread_spawns = _collect_thread_spawns(tree, resolver)
    return ModuleSummary(
        module=module,
        path=path,
        is_package=is_package,
        functions=functions,
        classes=classes,
        submit_sites=submit_sites,
        thread_spawns=thread_spawns,
    )


def _collect_submit_sites(
    tree: ast.Module, resolver: _Resolver
) -> tuple[SubmitSite, ...]:
    sites: list[SubmitSite] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
        ):
            continue
        callable_expr = node.args[0]
        # functools.partial(f, ...) submits f with bound arguments.
        if isinstance(callable_expr, ast.Call):
            resolved = resolver.imports.resolve(callable_expr.func)
            if resolved == "functools.partial" and callable_expr.args:
                callable_expr = callable_expr.args[0]
            else:
                continue
        if not isinstance(callable_expr, (ast.Name, ast.Attribute)):
            continue
        candidates = resolver.reference_candidates(callable_expr, None)
        if not candidates:
            continue
        parts = dotted_parts(callable_expr)
        sites.append(
            SubmitSite(
                display_name=parts[-1] if parts else "<callable>",
                candidates=candidates,
                line=node.lineno,
                col=node.col_offset + 1,
            )
        )
    return tuple(sites)


def _collect_thread_spawns(
    tree: ast.Module, resolver: _Resolver
) -> tuple[ThreadSpawn, ...]:
    spawns: list[ThreadSpawn] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = resolver.imports.resolve(node.func)
        if resolved is None or resolver.qualify(resolved) != "threading.Thread":
            continue
        target: ast.expr | None = None
        for keyword in node.keywords:
            if keyword.arg == "target":
                target = keyword.value
        if target is None and len(node.args) >= 2:
            target = node.args[1]
        if target is None:
            continue
        owner = _enclosing_class(tree, node)
        candidates = resolver.reference_candidates(target, owner)
        if candidates:
            spawns.append(
                ThreadSpawn(
                    target_candidates=candidates,
                    line=node.lineno,
                    col=node.col_offset + 1,
                )
            )
    return tuple(spawns)


def _enclosing_class(tree: ast.Module, node: ast.AST) -> str | None:
    """Name of the class whose body (transitively) contains ``node``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for inner in ast.walk(stmt):
                if inner is node:
                    return stmt.name
    return None


# ---------------------------------------------------------------------------
# The assembled index
# ---------------------------------------------------------------------------

class ProjectIndex:
    """Symbol table + call graph over every analysed module.

    Built once per lint run from the per-file summaries; project-scope
    rules (:class:`~repro.analysis.rules.ProjectChecker` subclasses)
    traverse it instead of re-walking ASTs.
    """

    def __init__(self, summaries: list[ModuleSummary]):
        #: module name -> summary, insertion-ordered by sorted module name.
        self.modules: dict[str, ModuleSummary] = {
            summary.module: summary
            for summary in sorted(summaries, key=lambda s: s.module)
        }
        #: qualified function name -> summary, across all modules.
        self.functions: dict[str, FunctionSummary] = {}
        #: qualified class name -> summary, across all modules.
        self.classes: dict[str, ClassSummary] = {}
        for summary in self.modules.values():
            self.functions.update(summary.functions)
            self.classes.update(summary.classes)
        self.graph = CallGraph()
        #: (caller, callee) -> any call site consumes the return value.
        self.value_edges: dict[tuple[str, str], bool] = {}
        #: (caller, callee) -> first (line, col, path) call site, for reports.
        self.call_sites: dict[tuple[str, str], CallSite] = {}
        for function in self.functions.values():
            for site in function.calls:
                for callee in self._resolve_callable(site.candidates):
                    edge = (function.qualname, callee)
                    self.graph.add_edge(*edge)
                    self.value_edges[edge] = (
                        self.value_edges.get(edge, False) or site.value_used
                    )
                    self.call_sites.setdefault(edge, site)
        self.graph.seal()

    def _resolve_callable(self, candidates: tuple[str, ...]) -> list[str]:
        """Map reference candidates onto known call-graph nodes.

        A candidate naming a known class resolves to its ``__init__`` (the
        code that actually runs at the call site); unknown names resolve to
        nothing — the graph only contains code we have summaries for.
        """
        resolved: list[str] = []
        for candidate in candidates:
            if candidate in self.functions:
                resolved.append(candidate)
            elif candidate in self.classes:
                init = f"{candidate}.__init__"
                if init in self.functions:
                    resolved.append(init)
        return resolved

    def resolve_function(self, candidates: tuple[str, ...]) -> FunctionSummary | None:
        """First candidate with a summary (candidate order is meaningful)."""
        for candidate in self._resolve_callable(candidates):
            return self.functions[candidate]
        return None

    def thread_entry_points(self) -> tuple[str, ...]:
        """Qualified names of every resolved ``threading.Thread`` target."""
        roots: set[str] = set()
        for summary in self.modules.values():
            for spawn in summary.thread_spawns:
                for candidate in self._resolve_callable(spawn.target_candidates):
                    roots.add(candidate)
        return tuple(sorted(roots))

    def thread_reachable(
        self, max_depth: int = DEFAULT_MAX_DEPTH
    ) -> dict[str, Reach]:
        """Functions reachable from any thread entry point."""
        return self.graph.reachable(self.thread_entry_points(), max_depth)

    def path_of(self, module: str) -> str:
        """Report path for a module name (falls back to the name itself)."""
        summary = self.modules.get(module)
        return summary.path if summary is not None else module
