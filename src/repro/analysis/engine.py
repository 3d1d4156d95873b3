"""The lint engine: discovery, the three-phase driver, suppressions.

A run has three phases, in one process:

* **Phase A — per-file analysis.**  Tokenize for ``# repro: noqa[...]``
  comments → parse once → run every in-scope per-file rule → extract a
  :class:`~repro.analysis.project.ModuleSummary`.  The result
  (:class:`FileAnalysis`) is a pure function of one file's bytes.
* **Phase B — project analysis.**  Assemble all summaries into a
  :class:`~repro.analysis.project.ProjectIndex` (symbol table + call
  graph) and run every :class:`~repro.analysis.rules.ProjectChecker`.
* **Phase C — merge.**  Per file: local + project findings → same-line
  suppressions → suppression-hygiene findings → sort.  Output order is
  (path, line, col, rule), so every run over the same bytes is
  byte-identical.

``lint_source``/``lint_file`` run the same pipeline over a single-file
project, so one-module call chains (a submitted function calling an
impure same-module helper) are still caught without any project setup.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import repro.analysis.checkers  # noqa: F401  (registers the rule catalogue)
from repro.analysis.findings import Finding, Severity
from repro.analysis.names import ImportMap
from repro.analysis.project import (
    ModuleInventory,
    ModuleSummary,
    ProjectIndex,
    summarize_module,
)
from repro.analysis.rules import REGISTRY, LintContext, Rule
from repro.analysis.suppressions import SuppressionIndex

# Engine-emitted rules: not checker-backed, but part of the catalogue so
# --list-rules, --select/--ignore and the README table cover them.
for _engine_rule in (
    Rule(
        id="PARSE001",
        name="file does not parse",
        severity=Severity.ERROR,
        rationale="A file that fails ast.parse cannot be analysed; the "
        "syntax error is surfaced as a finding instead of a crash.",
    ),
    Rule(
        id="SUP001",
        name="unused suppression",
        severity=Severity.WARNING,
        rationale="A '# repro: noqa[RULE]' escape that no longer fires is "
        "a stale blind spot; delete it when the code is fixed.",
    ),
    Rule(
        id="SUP002",
        name="malformed or blanket suppression",
        severity=Severity.WARNING,
        rationale="Suppressions must name explicit, known rule ids so each "
        "escape stays auditable.",
    ),
):
    REGISTRY.setdefault(_engine_rule.id, _engine_rule)

#: Directory basenames never descended into during discovery.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".hg", ".mypy_cache",
                           ".ruff_cache", ".pytest_cache", "build", "dist"})

#: Files marking a directory as a source/checkout root rather than a
#: package, even when a stray ``__init__.py`` sits next to them.
_ROOT_MARKERS = ("pyproject.toml", "setup.py", "setup.cfg", ".git")


@dataclass(frozen=True)
class LintConfig:
    """Engine configuration shared by the CLI and the Python API.

    Attributes:
        select: Run only these rule ids (None = all registered).
        ignore: Rule ids excluded from the run.
        assume_module: Force this dotted module name for every file
            (fixture linting) instead of deriving it from the package tree.
        exclude: Path prefixes (files or directories) skipped during
            discovery; matched against normalised relative paths.
    """

    select: frozenset[str] | None = None
    ignore: frozenset[str] = frozenset()
    assume_module: str | None = None
    exclude: tuple[str, ...] = ()

    def active_rules(self) -> list[Rule]:
        """The registered rules enabled by this configuration."""
        return [
            rule_
            for rule_id, rule_ in REGISTRY.items()
            if (self.select is None or rule_id in self.select)
            and rule_id not in self.ignore
        ]

    def filtered_out(self) -> frozenset[str]:
        """Rule ids excluded by select/ignore (for suppression hygiene)."""
        active = {rule_.id for rule_ in self.active_rules()}
        return frozenset(REGISTRY) - active

    def unknown_rule_ids(self) -> list[str]:
        """Ids named in select/ignore that are not in the catalogue."""
        named = set(self.select or ()) | set(self.ignore)
        return sorted(named - set(REGISTRY))


def derive_module(path: str) -> str:
    """Dotted module name from the file's package (``__init__.py``) chain.

    The walk stops at the source root even when a stray ``__init__.py``
    sits above it: a directory named ``src``, a directory whose name is
    not a valid identifier, or a directory carrying a checkout marker
    (``pyproject.toml``, ``setup.py``, ``setup.cfg``, ``.git``) never
    contributes a segment.  Without this, linting a checkout that happens
    to live inside a package leaks extra leading segments into every
    module name and silently changes rule scoping.
    """
    absolute = os.path.abspath(path)
    stem = os.path.splitext(os.path.basename(absolute))[0]
    parts: list[str] = [] if stem == "__init__" else [stem]
    parent = os.path.dirname(absolute)
    while os.path.isfile(os.path.join(parent, "__init__.py")):
        base = os.path.basename(parent)
        if base == "src" or not base.isidentifier():
            break
        if any(
            os.path.exists(os.path.join(parent, marker))
            for marker in _ROOT_MARKERS
        ):
            break
        parts.append(base)
        parent = os.path.dirname(parent)
    parts.reverse()
    return ".".join(parts) if parts else stem


def _is_excluded(path: str, exclude: tuple[str, ...]) -> bool:
    normalised = os.path.normpath(path)
    for prefix in exclude:
        clean = os.path.normpath(prefix)
        if normalised == clean or normalised.startswith(clean + os.sep):
            return True
    return False


def iter_python_files(
    paths: Sequence[str], exclude: tuple[str, ...] = ()
) -> list[str]:
    """Expand files/directories into a sorted, de-duplicated .py file list.

    Explicit file arguments are honoured regardless of extension (so
    fixture files can be linted directly); directory walks collect ``*.py``
    only, skipping caches, VCS internals and hidden directories.

    Raises:
        FileNotFoundError: For a path that does not exist.
    """
    collected: list[str] = []
    for path in paths:
        if _is_excluded(path, exclude):
            continue
        if os.path.isfile(path):
            collected.append(path)
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path!r}")
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d
                for d in dirs
                if d not in _SKIPPED_DIRS
                and not d.startswith(".")
                and not _is_excluded(os.path.join(root, d), exclude)
            )
            for name in sorted(files):
                full = os.path.join(root, name)
                if name.endswith(".py") and not _is_excluded(full, exclude):
                    collected.append(full)
    return sorted(dict.fromkeys(collected))


# ---------------------------------------------------------------------------
# Phase A: per-file analysis
# ---------------------------------------------------------------------------

@dataclass
class FileAnalysis:
    """The result of analysing one file in isolation.

    Attributes:
        path: Report path.
        module: Dotted module name used for rule scoping.
        findings: Per-file rule findings, *pre-suppression*.
        summary: Module summary for the project phase (None on parse error).
        suppressions: The file's ``# repro: noqa`` index.
    """

    path: str
    module: str
    findings: list[Finding]
    summary: ModuleSummary | None
    suppressions: SuppressionIndex


def analyze_source(
    source: str,
    path: str = "<string>",
    module: str | None = None,
    config: LintConfig | None = None,
    is_package: bool = False,
) -> FileAnalysis:
    """Phase A over one source string: local rules + module summary."""
    config = config or LintConfig()
    module = module or config.assume_module or derive_module(path)
    suppressions = SuppressionIndex.from_source(source)
    active = {rule_.id: rule_ for rule_ in config.active_rules()}

    findings: list[Finding] = []
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        if "PARSE001" in active:
            line = getattr(exc, "lineno", None) or 1
            col = getattr(exc, "offset", None) or 1
            findings.append(
                Finding(
                    path=path, line=line, col=col, rule="PARSE001",
                    message=f"file does not parse: {exc.msg if isinstance(exc, SyntaxError) else exc}",
                    severity=Severity.ERROR,
                )
            )
        return FileAnalysis(
            path=path, module=module, findings=findings, summary=None,
            suppressions=suppressions,
        )

    imports = ImportMap.from_tree(tree)
    inventory = ModuleInventory.from_tree(tree, imports)
    ctx = LintContext(
        path=path, module=module, imports=imports, inventory=inventory
    )
    for rule_ in active.values():
        if rule_.checker is None or not rule_.applies_to(module):
            continue
        findings.extend(rule_.checker(rule_, ctx).run(tree))

    summary = summarize_module(
        tree, module=module, path=path, imports=imports, inventory=inventory,
        is_package=is_package,
    )
    return FileAnalysis(
        path=path, module=module, findings=findings, summary=summary,
        suppressions=suppressions,
    )


def analyze_file(path: str, config: LintConfig | None = None) -> FileAnalysis:
    """Phase A over one file (unreadable/undecodable → PARSE001)."""
    config = config or LintConfig()
    try:
        with open(path, "rb") as handle:
            source = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return FileAnalysis(
            path=path,
            module=config.assume_module or derive_module(path),
            findings=[
                Finding(
                    path=path, line=1, col=1, rule="PARSE001",
                    message=f"file cannot be read: {exc}",
                    severity=Severity.ERROR,
                )
            ],
            summary=None,
            suppressions=SuppressionIndex.from_source(""),
        )
    return analyze_source(
        source,
        path=path,
        config=config,
        is_package=os.path.basename(path) == "__init__.py",
    )


# ---------------------------------------------------------------------------
# Phase B: project rules
# ---------------------------------------------------------------------------

def run_project_rules(
    analyses: Sequence[FileAnalysis], config: LintConfig
) -> list[Finding]:
    """Run every active project-phase rule over the assembled index."""
    summaries = [a.summary for a in analyses if a.summary is not None]
    if not summaries:
        return []
    index = ProjectIndex(summaries)
    findings: list[Finding] = []
    for rule_ in config.active_rules():
        if rule_.project_checker is None:
            continue
        findings.extend(rule_.project_checker(rule_).run(index))
    return findings


# ---------------------------------------------------------------------------
# Phase C: merge, suppress, hygiene
# ---------------------------------------------------------------------------

def finalize_file(
    analysis: FileAnalysis,
    project_findings: Sequence[Finding],
    config: LintConfig,
) -> list[Finding]:
    """Merge one file's local + project findings into its final list."""
    active = {rule_.id for rule_ in config.active_rules()}
    merged = sorted([*analysis.findings, *project_findings])
    kept = [
        finding
        for finding in merged
        if not analysis.suppressions.try_suppress(finding)
    ]
    hygiene = analysis.suppressions.hygiene_findings(
        path=analysis.path,
        known_rules=frozenset(REGISTRY),
        filtered_out=config.filtered_out(),
    )
    kept.extend(finding for finding in hygiene if finding.rule in active)
    return sorted(kept)


def _lint(
    analyses: Sequence[FileAnalysis], config: LintConfig
) -> list[Finding]:
    """Phases B and C over analysed files: the sorted final findings."""
    by_path: dict[str, list[Finding]] = {}
    for finding in run_project_rules(analyses, config):
        by_path.setdefault(finding.path, []).append(finding)
    return sorted(
        finding
        for analysis in analyses
        for finding in finalize_file(
            analysis, by_path.get(analysis.path, ()), config
        )
    )


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def lint_source(
    source: str,
    path: str = "<string>",
    module: str | None = None,
    config: LintConfig | None = None,
) -> list[Finding]:
    """Lint one source string as a single-file project.

    Args:
        source: Python source text.
        path: Path findings are reported under.
        module: Dotted module name for rule scoping; defaults to
            ``config.assume_module`` or a name derived from ``path``.
        config: Engine configuration (defaults to everything enabled).
    """
    config = config or LintConfig()
    analysis = analyze_source(source, path=path, module=module, config=config)
    return _lint([analysis], config)


def lint_file(path: str, config: LintConfig | None = None) -> list[Finding]:
    """Lint one file from disk as a single-file project."""
    config = config or LintConfig()
    return _lint([analyze_file(path, config=config)], config)


def lint_paths(
    paths: Iterable[str], config: LintConfig | None = None
) -> list[Finding]:
    """Lint files and directory trees as one project; the CLI's workhorse.

    Args:
        paths: Files and/or directories to lint.
        config: Engine configuration.

    Returns:
        All findings sorted by (path, line, col, rule).
    """
    config = config or LintConfig()
    files = iter_python_files(list(paths), exclude=config.exclude)
    return _lint([analyze_file(path, config) for path in files], config)
