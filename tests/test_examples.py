"""The scripts under ``examples/`` run to completion.

Each script runs in a new interpreter with ``src`` on ``PYTHONPATH`` and
the test process's environment otherwise (so the replay kernel's build
cache under ``XDG_CACHE_HOME`` is shared), from an empty working
directory that it must leave empty.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent.parent
EXAMPLES = SRC.parent / "examples"
SCRIPTS = sorted(path.name for path in EXAMPLES.glob("*.py"))


def test_the_examples_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / script)], cwd=tmp_path, env=env,
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
    assert not list(tmp_path.iterdir())
