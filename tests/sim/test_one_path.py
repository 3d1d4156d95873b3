"""One way into the simulator and one scheduler, pinned on the source tree.

Library code replays a trace through :class:`~repro.sim.executor.SimExecutor`,
which applies the result cache, the guards, tracing and job keys to every
replay.  Only the guard layer under it, which every executor replay
passes through, calls ``simulate``.  Every scalar replay builds a fresh
micro-architectural state, and only the scalar engine builds one: the
columnar engine replays its caches and TLBs in the compiled kernel and
keeps only a fresh RAS and indirect predictor.  Only the sharded campaign
(:mod:`repro.sim.campaign`) runs simulations across processes: no other
module imports ``concurrent.futures`` or ``multiprocessing`` or builds a
process pool.
Only the compiled replay kernel (:mod:`repro.sim.kernel`) loads native code
or runs the C compiler: no other module imports ``ctypes`` or
``subprocess`` or names a compiler.

``examples/`` and ``benchmarks/`` may call the public ``simulate``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

#: The one module allowed to call ``repro.sim.cpu.simulate``.
SIMULATE_CALLERS = {"repro.sim.guard"}

#: Modules allowed to build a replay's state with ``_make_state``.
STATE_BUILDERS = {"repro.sim.cpu"}

#: The one module allowed to start processes.
PROCESS_STARTERS = {"repro.sim.campaign"}

#: Modules that start processes, and the calls that build a pool or fork.
PROCESS_MODULES = ("concurrent.futures", "multiprocessing")
POOL_BUILDERS = {"ProcessPoolExecutor", "Pool", "fork"}

#: The one module allowed to load native code or run the C compiler.
NATIVE_MODULES = {"repro.sim.kernel"}

#: Modules that load native code or run programs, and compiler names.
NATIVE_IMPORTS = ("ctypes", "subprocess")
COMPILERS = {"cc", "gcc", "clang"}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), ast.parse(path.read_text(), str(path))


def _called(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


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
        if isinstance(node, ast.Call) and _called(node) == name:
            return True
    return False


def _imports(tree: ast.Module, modules) -> bool:
    """Whether ``tree`` imports one of ``modules`` (any form, any alias)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        if any(
            name == module or name.startswith(module + ".")
            for name in names
            for module in modules
        ):
            return True
    return False


def _starts_processes(tree: ast.Module) -> bool:
    """Whether ``tree`` imports a process module (any form, any alias) or
    calls something that builds a process pool or forks."""
    return _imports(tree, PROCESS_MODULES) or any(
        isinstance(node, ast.Call) and _called(node) in POOL_BUILDERS
        for node in ast.walk(tree)
    )


def _goes_native(tree: ast.Module) -> bool:
    """Whether ``tree`` imports ``ctypes`` or ``subprocess``, or has a
    string that starts with a compiler's name."""
    return _imports(tree, NATIVE_IMPORTS) or any(
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.partition(" ")[0] in COMPILERS
        for node in ast.walk(tree)
    )


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


def test_only_the_guard_calls_simulate():
    callers = {name for name, tree in _modules() if _uses(tree, "simulate")}
    # The package's own definition and re-export are not calls.
    callers -= {"repro.sim.cpu", "repro.sim"}
    assert callers == SIMULATE_CALLERS, sorted(callers ^ SIMULATE_CALLERS)


def test_only_the_scalar_engine_builds_replay_state():
    builders = {
        name for name, tree in _modules() if _uses(tree, "_make_state")
    }
    assert builders == STATE_BUILDERS


@pytest.mark.parametrize(
    "source",
    [
        "import concurrent.futures\n",
        "from concurrent.futures import ProcessPoolExecutor\n",
        "from concurrent import futures\n",
        "import multiprocessing as mp\n",
        "from multiprocessing.pool import ThreadPool\n",
        "pool = Pool(2)\n",
        "with cf.ProcessPoolExecutor() as pool:\n    pass\n",
        "pid = os.fork()\n",
    ],
    ids=[
        "import", "from-import", "package-import", "aliased", "submodule",
        "pool", "attribute-pool", "fork",
    ],
)
def test_detects_a_process_start(source):
    assert _starts_processes(ast.parse(source))


def test_ignores_words_that_only_look_alike():
    assert not _starts_processes(
        ast.parse("import concurrency\nrestraint_pool(core)\n")
    )


def test_only_the_campaign_starts_processes():
    starters = {name for name, tree in _modules() if _starts_processes(tree)}
    assert starters == PROCESS_STARTERS, sorted(starters ^ PROCESS_STARTERS)


@pytest.mark.parametrize(
    "source",
    [
        "import ctypes\n",
        "from ctypes import CDLL\n",
        "import ctypes.util as cu\n",
        "import subprocess\n",
        "from subprocess import run\n",
        "os.system('gcc -O2 k.c')\n",
        "shutil.which('cc')\n",
    ],
    ids=["ctypes", "from-ctypes", "ctypes-util", "subprocess",
         "from-subprocess", "compiler-command", "compiler-name"],
)
def test_detects_native_code(source):
    assert _goes_native(ast.parse(source))


def test_ignores_strings_that_only_look_alike():
    assert not _goes_native(ast.parse("x = 'ccache'\ny = 'access'\n"))


def test_only_the_kernel_goes_native():
    native = {name for name, tree in _modules() if _goes_native(tree)}
    assert native == NATIVE_MODULES, sorted(native ^ NATIVE_MODULES)
