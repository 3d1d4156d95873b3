"""Known-bad fixture: exactly one finding for each core repro-lint rule.

Linted with ``--assume-module repro.sim._fixture`` so the scoped
determinism and performance rules apply; tests assert the rule ids are
exactly {DET001, DET002, DET003, OBS001, OBS002 (x2), PERF001, PURE001,
PURE002, ROB001, ROB002, ROB003}, plus one ROB004 when linted as
``repro.atomicio`` (its scope).  Never imported; excluded from self-clean.
"""

import fcntl
import random
import time

import numpy as np
from concurrent.futures import ProcessPoolExecutor

_tally = {"calls": 0}


def det001():
    return random.random()


def det002():
    return time.time()


def det003(names):
    return [name for name in set(names)]


def pure001_worker(x):
    return _tally["calls"] + x


def pure001():
    with ProcessPoolExecutor() as pool:
        return pool.submit(pure001_worker, 1).result()


def pure002(acc=[]):
    acc.append(1)
    return acc


def rob001():
    try:
        return 1
    except:
        return 0


def rob002(path, payload):
    with open(path, "w") as handle:
        handle.write(payload)


def obs001(value):
    print(value)


def perf001(values):
    keys = np.asarray(values)
    return [key + 1 for key in keys]


def rob003(path):
    try:
        return open(path).read()
    except OSError:
        return None


def rob004(handle):
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    handle.write(b"unsafe between acquire and unlock")
    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def obs002_span(tracer):
    tracer.span("leaked")


def obs002_metric(registry):
    return registry.counter("Bad-Name")
