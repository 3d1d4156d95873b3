"""Rule registry and the checker base class.

Every rule is a small :class:`ast.NodeVisitor` subclass registered with the
:func:`rule` decorator.  Registration carries the catalogue metadata — id,
one-line name, severity, rationale, and an optional *module scope* — so the
engine, the CLI's ``--list-rules`` table, and the README catalogue all share
one source of truth.

Scoped rules only run for modules whose dotted name falls under one of the
scope prefixes (``DET001`` cares about ``repro.sim`` but not about a report
renderer); unscoped rules run everywhere.
"""

from __future__ import annotations

import ast
import dataclasses
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.findings import Finding, Severity
from repro.analysis.names import ImportMap

if TYPE_CHECKING:
    from repro.analysis.project import ModuleInventory, ProjectIndex


@dataclass(frozen=True)
class LintContext:
    """Per-file facts shared by every checker run against the file.

    Attributes:
        path: The path findings are reported under.
        module: Dotted module name derived from the file's package location
            (or forced via ``--assume-module``); drives rule scoping.
        imports: Import-alias map for qualified-name resolution.
        inventory: Module-level facts for worker-purity judgements, built
            once per file and shared with the module summary.
    """

    path: str
    module: str
    imports: ImportMap
    inventory: "ModuleInventory"


@dataclass(frozen=True)
class Rule:
    """Catalogue entry for one registered rule.

    Attributes:
        id: Stable identifier (``DET001``); what suppressions name.
        name: One-line summary for reports and ``--list-rules``.
        severity: Default severity of the rule's findings.
        rationale: Why the rule exists, in one or two sentences.
        scope: Module-name prefixes the rule is restricted to (None = all).
        checker: Visitor class implementing the rule, or None for rules
            emitted by the engine itself (suppression hygiene, parse errors).
        project_checker: Optional project-phase pass run once over the
            assembled :class:`~repro.analysis.project.ProjectIndex` after
            all files are summarised; a rule may have a per-file checker,
            a project checker, or both (PURE001 has both).
    """

    id: str
    name: str
    severity: Severity
    rationale: str
    scope: tuple[str, ...] | None = None
    checker: type["BaseChecker"] | None = field(default=None, compare=False)
    project_checker: type["ProjectChecker"] | None = field(
        default=None, compare=False
    )

    def applies_to(self, module: str) -> bool:
        """Whether this rule runs for a module with the given dotted name."""
        if self.scope is None:
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )


#: The global rule catalogue, keyed by rule id (insertion == registration
#: order; reports re-sort by location so this order is cosmetic only).
REGISTRY: dict[str, Rule] = {}


def register(rule_: Rule) -> None:
    """Add a rule to the catalogue, rejecting duplicate ids."""
    if rule_.id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule_.id!r}")
    REGISTRY[rule_.id] = rule_


def rule(
    rule_id: str,
    name: str,
    severity: Severity,
    rationale: str,
    scope: tuple[str, ...] | None = None,
) -> Callable[[type["BaseChecker"]], type["BaseChecker"]]:
    """Class decorator registering a checker under ``rule_id``."""

    def decorate(cls: type["BaseChecker"]) -> type["BaseChecker"]:
        register(
            Rule(
                id=rule_id,
                name=name,
                severity=severity,
                rationale=rationale,
                scope=scope,
                checker=cls,
            )
        )
        return cls

    return decorate


def project_rule(
    rule_id: str,
    name: str,
    severity: Severity,
    rationale: str,
    scope: tuple[str, ...] | None = None,
) -> Callable[[type["ProjectChecker"]], type["ProjectChecker"]]:
    """Class decorator registering a project-phase-only rule."""

    def decorate(cls: type["ProjectChecker"]) -> type["ProjectChecker"]:
        register(
            Rule(
                id=rule_id,
                name=name,
                severity=severity,
                rationale=rationale,
                scope=scope,
                project_checker=cls,
            )
        )
        return cls

    return decorate


def attach_project_pass(
    rule_id: str,
) -> Callable[[type["ProjectChecker"]], type["ProjectChecker"]]:
    """Attach a project-phase pass to an already-registered per-file rule."""

    def decorate(cls: type["ProjectChecker"]) -> type["ProjectChecker"]:
        existing = REGISTRY.get(rule_id)
        if existing is None:
            raise ValueError(f"cannot attach project pass: no rule {rule_id!r}")
        if existing.project_checker is None:
            REGISTRY[rule_id] = dataclasses.replace(
                existing, project_checker=cls
            )
        return cls

    return decorate


class BaseChecker(ast.NodeVisitor):
    """An AST pass that reports findings for exactly one rule.

    Subclasses implement ``visit_*`` methods and call :meth:`report`;
    the engine constructs one checker instance per (rule, file) pair.
    """

    def __init__(self, rule_: Rule, ctx: LintContext) -> None:
        self.rule = rule_
        self.ctx = ctx
        self.findings: list[Finding] = []

    def run(self, tree: ast.Module) -> list[Finding]:
        """Walk the tree and return the findings, in visit order."""
        self.visit(tree)
        return self.findings

    def report(self, node: ast.AST, message: str) -> None:
        """Record one violation at ``node``'s location."""
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=self.rule.id,
                message=message,
                severity=self.rule.severity,
            )
        )


class ProjectChecker:
    """A project-phase pass run once over the assembled index.

    Where :class:`BaseChecker` sees one file's AST, a project checker sees
    the cross-module :class:`~repro.analysis.project.ProjectIndex` (symbol
    table + call graph) and reports findings against any file in the run.
    Module scoping still applies, but at the *finding* site: subclasses
    call :meth:`applies` before reporting into a module.
    """

    def __init__(self, rule_: Rule) -> None:
        self.rule = rule_
        self.findings: list[Finding] = []

    def run(self, index: "ProjectIndex") -> list[Finding]:
        """Inspect the index and return findings (any file, any order)."""
        self.check(index)
        return self.findings

    def check(self, index: "ProjectIndex") -> None:
        """Subclass hook: traverse the index and call :meth:`report`."""
        raise NotImplementedError

    def applies(self, module: str) -> bool:
        """Whether this rule's scope covers ``module``."""
        return self.rule.applies_to(module)

    def report(self, path: str, line: int, col: int, message: str) -> None:
        """Record one violation at an explicit location."""
        self.findings.append(
            Finding(
                path=path,
                line=line,
                col=col,
                rule=self.rule.id,
                message=message,
                severity=self.rule.severity,
            )
        )
