"""Static analysis for reproducibility invariants (``repro-lint``).

The paper's validation methodology only means anything if the same config
always yields the same dataset; PR 1/2 made that a runtime contract
(bit-identical parallel execution, checksummed caching, seeded fault
injection).  This subsystem enforces the *static* half: custom AST rules
that no off-the-shelf linter expresses —

======== ===================================================================
DET001   unseeded / global-state RNG construction in sim, uarch, workloads
DET002   wall-clock or entropy calls (``time.time``, ``datetime.now``,
         ``os.urandom``, ``uuid.uuid4``) in deterministic code paths
DET003   unordered-set iteration order escaping into ordered results
DET004   wall-clock/entropy values reaching deterministic code through the
         project call graph (interprocedural DET002)
PURE001  impure or unpicklable callables submitted to a worker pool —
         checked transitively over the cross-module call graph
PURE002  mutable default arguments
ROB001+  robustness family (swallowed ``BaseException`` & friends)
OBS001   print() in library code instead of the obs logging layer
PERF001  numpy anti-patterns that silently fall back to Python loops
THR001   shared attributes written from a thread without the owning lock
THR002   locks acquired without ``with`` / try-finally release
THR003   boolean flags read unsynchronised across the thread boundary
NUM001   mixed float32/float64 arithmetic (silent upcast)
NUM002   ``sum``/``cumsum`` on narrow int dtypes without explicit ``dtype=``
NUM003   boolean-mask indexing on arrays with unasserted shapes
SUP001   unused ``# repro: noqa[RULE]`` suppressions
SUP002   malformed or blanket suppressions
PARSE001 files that do not parse
======== ===================================================================

Analysis is project-wide: each file is parsed once, in one process, and
its summary feeds a cross-module symbol table + call graph
(:mod:`repro.analysis.project`), which the THR rules, DET004 and the
interprocedural half of PURE001 traverse.

Run it via ``repro-lint``, ``python -m repro.analysis`` or
``gemstone lint``; suppress a single line with ``# repro: noqa[RULE]``.
"""

from __future__ import annotations

from repro.analysis.cli import main
from repro.analysis.engine import (
    REGISTRY,
    FileAnalysis,
    LintConfig,
    analyze_file,
    analyze_source,
    derive_module,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import ModuleSummary, ProjectIndex
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import LintContext, ProjectChecker, Rule

__all__ = [
    "FileAnalysis",
    "Finding",
    "LintConfig",
    "LintContext",
    "ModuleSummary",
    "ProjectChecker",
    "ProjectIndex",
    "REGISTRY",
    "Rule",
    "Severity",
    "analyze_file",
    "analyze_source",
    "derive_module",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "render_json",
    "render_text",
]
