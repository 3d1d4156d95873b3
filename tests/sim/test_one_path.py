"""One way into the simulator, pinned on the source tree.

Library code replays a trace through :class:`~repro.sim.executor.SimExecutor`,
which applies the result cache, the guards, tracing and job keys to every
replay.  Two modules sit under it: the guard layer, which every executor
replay passes through, and the executor itself.  The Section VII
improvement loop is the one named exception: it keeps each compiled trace
across its greedy rounds, which per-round executor batches would drop.
Every replay builds a fresh micro-architectural state, and only the two
engines build one.

``examples/`` and ``benchmarks/`` may call the public ``simulate``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

#: Modules allowed to call ``repro.sim.cpu.simulate``.
SIMULATE_CALLERS = {
    "repro.sim.executor",
    "repro.sim.guard",
    "repro.core.improvement",
}

#: Modules allowed to build a replay's state with ``_make_state``.
STATE_BUILDERS = {"repro.sim.cpu", "repro.sim.columnar"}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), ast.parse(path.read_text(), str(path))


def _uses(tree: ast.Module, name: str) -> bool:
    """Whether ``tree`` imports ``name`` from ``repro.sim`` / ``repro.sim.cpu``
    (under any alias) or calls something called ``name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (
            "repro.sim",
            "repro.sim.cpu",
        ):
            if any(alias.name == name for alias in node.names):
                return True
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None
            )
            if called == name:
                return True
    return False


@pytest.mark.parametrize(
    "source",
    [
        "from repro.sim.cpu import simulate\n",
        "from repro.sim import simulate as replay\nreplay(t, m)\n",
        "import repro.sim.cpu as cpu\ncpu.simulate(t, m)\n",
    ],
    ids=["import", "aliased", "attribute"],
)
def test_detects_a_direct_simulate(source):
    assert _uses(ast.parse(source), "simulate")


def test_only_the_executor_guard_and_improvement_call_simulate():
    callers = {name for name, tree in _modules() if _uses(tree, "simulate")}
    # The package's own definition and re-export are not calls.
    callers -= {"repro.sim.cpu", "repro.sim"}
    assert callers <= SIMULATE_CALLERS, sorted(callers - SIMULATE_CALLERS)
    assert {"repro.sim.guard", "repro.core.improvement"} <= callers


def test_only_the_engines_build_replay_state():
    builders = {
        name for name, tree in _modules() if _uses(tree, "_make_state")
    }
    assert builders == STATE_BUILDERS
