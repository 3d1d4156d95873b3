"""Pytest plugin of ``make test-sanitize``: the kernel under sanitizers.

Loaded with ``-p tests.sim.kernel_sanitizers``, it replaces the kernel's
optimisation flag with AddressSanitizer and UndefinedBehaviorSanitizer
flags before the first build, and points the library cache at a fresh
temporary directory, so the sanitized library neither evicts nor is
evicted by the optimised one.  The interpreter must preload the ASan
runtime (``LD_PRELOAD=libasan.so.8``); with ``-fno-sanitize-recover=all``
the first report aborts the run.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile

import pytest

from repro.sim import kernel

SANITIZER_FLAGS = (
    "-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
)

_CACHE_DIRS: list[str] = []


def pytest_configure(config):
    if not hasattr(ctypes.CDLL(None), "__asan_init"):
        pytest.exit("the ASan runtime is not preloaded (LD_PRELOAD)", returncode=2)
    kernel.FLAGS = (
        *SANITIZER_FLAGS, *(flag for flag in kernel.FLAGS if not flag.startswith("-O"))
    )
    cache = tempfile.mkdtemp(prefix="kernel-sanitizers-")
    _CACHE_DIRS.append(cache)
    os.environ["XDG_CACHE_HOME"] = cache


def pytest_unconfigure(config):
    for cache in _CACHE_DIRS:
        shutil.rmtree(cache, ignore_errors=True)
