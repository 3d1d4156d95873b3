"""The ``repro-lint`` command line (also ``python -m repro.analysis`` and
``gemstone lint``).

Exit codes follow linter convention: 0 = clean, 1 = findings, 2 = usage
or internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.analysis.engine import REGISTRY, LintConfig, lint_paths
from repro.analysis.reporters import render_json, render_text


def _emit(text: str) -> None:
    """``print`` that treats the consumer closing the pipe early (e.g.
    ``repro-lint --list-rules | head``) as end-of-output, not an error."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at /dev/null so the interpreter-exit flush of the
        # dead pipe does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _rule_table() -> str:
    """The ``--list-rules`` catalogue, one block per rule."""
    blocks = []
    for rule_ in sorted(REGISTRY.values(), key=lambda r: r.id):
        scope = ", ".join(rule_.scope) if rule_.scope else "all modules"
        blocks.append(
            f"{rule_.id} [{rule_.severity}] {rule_.name}\n"
            f"    scope: {scope}\n"
            f"    {rule_.rationale}"
        )
    return "\n".join(blocks)


def _parse_rule_list(raw: str) -> frozenset[str]:
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-lint argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Determinism & worker-purity linter for the repro codebase: "
            "custom AST rules (unseeded RNG, wall-clock in sim paths, "
            "set-order leaks, impure pool workers, mutable defaults, "
            "swallowed BaseException) that no off-the-shelf linter covers."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: ./src, plus ./tests "
        "when present)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is versioned and machine-readable)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="PATH",
        help="path prefix to skip during discovery (repeatable)",
    )
    parser.add_argument(
        "--assume-module",
        default=None,
        metavar="MODULE",
        help="treat every linted file as this dotted module (fixture "
        "linting; scoped rules normally key off the package location)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _default_paths() -> list[str]:
    paths = [path for path in ("src", "tests") if os.path.isdir(path)]
    return paths or ["."]


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code (0/1/2)."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.list_rules:
        _emit(_rule_table())
        return 0

    config = LintConfig(
        select=_parse_rule_list(args.select) if args.select else None,
        ignore=_parse_rule_list(args.ignore) if args.ignore else frozenset(),
        assume_module=args.assume_module,
        exclude=tuple(args.exclude),
    )
    unknown = config.unknown_rule_ids()
    if unknown:
        parser.error(
            "unknown rule id(s): " + ", ".join(unknown)
            + " (see --list-rules)"
        )

    try:
        findings = lint_paths(args.paths or _default_paths(), config=config)
    except FileNotFoundError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error: report, don't traceback-spam
        print(
            f"repro-lint: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2

    renderer = render_json if args.format == "json" else render_text
    _emit(renderer(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
