"""No module under ``src/repro`` imports a name it never uses.

An AST scan in the spirit of pyflakes' F401, so the check runs with the
tier-1 suite whether or not ruff is installed.  Module-level imports
only (including those under a top-level ``if``/``try``); a name counts
as used when the module reads it anywhere, in a quoted annotation too.
Package ``__init__.py`` files, names listed in ``__all__`` and lines
marked ``# noqa: F401`` are re-exports and are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _module_imports(tree: ast.Module):
    """``(bound name, line)`` for every import at module level."""
    statements = list(tree.body)
    while statements:
        node = statements.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            statements += node.body + node.orelse
            statements += getattr(node, "finalbody", [])
            for handler in getattr(node, "handlers", []):
                statements += handler.body
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            yield from (a.annotation for a in every if a.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {
                    n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
                }
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[tuple[str, int]]:
    """``(name, line)`` of every module-level import ``path`` never uses."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree) | _exported(tree)
    return [
        (name, line)
        for name, line in _module_imports(tree)
        if name not in used and "# noqa: F401" not in lines[line - 1]
    ]


def test_the_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import os\nimport time\n"
        "from typing import Any, Sequence\n"
        "from json import dumps  # noqa: F401\n"
        "__all__ = ['loads']\n"
        "try:\n    from json import loads\nexcept ImportError:\n"
        "    import pickle\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    os.getcwd()\n"
    )
    assert unused_imports(module) == [("time", 2), ("Any", 3), ("pickle", 9)]


def test_no_module_has_an_unused_import():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 50
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in paths
        if path.name != "__init__.py"
        for name, line in unused_imports(path)
    ]
    assert found == []
