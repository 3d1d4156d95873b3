"""Per-rule fixture tests for ROB001, ROB002, ROB003 and ROB004."""

from __future__ import annotations

import pytest

from tests.analysis import lint_snippet, rule_ids

pytestmark = pytest.mark.lint


class TestRob001SwallowedBaseException:
    @pytest.mark.parametrize(
        "snippet",
        [
            "def f():\n    try:\n        return 1\n    except:\n        return 0\n",
            "def f():\n    try:\n        return 1\n    except BaseException:\n        return 0\n",
            "def f():\n    try:\n        return 1\n"
            "    except (ValueError, BaseException):\n        return 0\n",
            "def f():\n    try:\n        return 1\n"
            "    except BaseException as exc:\n        return str(exc)\n",
        ],
        ids=["bare", "base-exception", "tuple", "named"],
    )
    def test_flags_swallowing_handlers(self, snippet):
        assert rule_ids(lint_snippet(snippet)) == ["ROB001"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # Catching Exception is policy (graceful degradation), not
            # ROB001 — recorded here so ROB003 stays quiet too.
            "def f(log):\n    try:\n        return 1\n"
            "    except Exception:\n        log.warning('fell back')\n        return 0\n",
            "def f(log):\n    try:\n        return 1\n"
            "    except OSError:\n        log.debug('fell back')\n        return 0\n",
            # Re-raising handlers do not swallow.
            "def f():\n    try:\n        return 1\n"
            "    except BaseException:\n        raise\n",
            "def f():\n    try:\n        return 1\n"
            "    except:\n        log()\n        raise\n",
            "def f():\n    try:\n        return 1\n    finally:\n        pass\n",
        ],
        ids=["exception", "oserror", "reraise", "log-reraise", "finally"],
    )
    def test_allows_narrow_or_reraising_handlers(self, snippet):
        assert lint_snippet(snippet) == []

    def test_flags_each_bad_handler(self):
        snippet = (
            "def f(log):\n"
            "    try:\n"
            "        return 1\n"
            "    except ValueError:\n"
            "        log.debug('fell back')\n"
            "        return 2\n"
            "    except BaseException:\n"
            "        return 0\n"
        )
        assert rule_ids(lint_snippet(snippet)) == ["ROB001"]


class TestRob003SilentDegradation:
    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(path):\n    try:\n        return open(path).read()\n"
            "    except OSError:\n        return None\n",
            "def f(x):\n    try:\n        return 1 / x\n"
            "    except (ZeroDivisionError, OverflowError):\n        return 0.0\n",
            "def f(x):\n    try:\n        return int(x)\n"
            "    except ValueError as exc:\n        pass\n",
        ],
        ids=["return-default", "tuple", "pass"],
    )
    def test_flags_silent_handlers(self, snippet):
        assert rule_ids(lint_snippet(snippet)) == ["ROB003"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # A log line is the minimum acceptable trace.
            "def f(log, path):\n    try:\n        return open(path).read()\n"
            "    except OSError:\n        log.debug('unreadable')\n        return None\n",
            # Bumping a telemetry counter records the degradation.
            "def f(self, x):\n    try:\n        return int(x)\n"
            "    except ValueError:\n        self.telemetry.rejected += 1\n"
            "        return 0\n",
            # So does bumping a registry counter by its dotted name.
            "def f(self, x):\n    try:\n        return int(x)\n"
            "    except ValueError:\n"
            "        self.metrics.counter('sim.x.rejected').inc()\n"
            "        return 0\n",
            # Constructing a GuardEvent is the guard layer's record.
            "def f(events, x):\n    try:\n        return int(x)\n"
            "    except ValueError:\n"
            "        events.append(GuardEvent(kind='bad'))\n        return 0\n",
            # Raising a transformed error propagates, nothing is hidden.
            "def f(x):\n    try:\n        return int(x)\n"
            "    except ValueError as exc:\n        raise RuntimeError(x) from exc\n",
            # Tracer events count as emission.
            "def f(tracer, x):\n    try:\n        return int(x)\n"
            "    except ValueError:\n        tracer.event('guard')\n        return 0\n",
        ],
        ids=[
            "log", "counter", "registry-inc", "guard-event",
            "transform-raise", "tracer",
        ],
    )
    def test_allows_recording_handlers(self, snippet):
        assert lint_snippet(snippet) == []

    def test_an_inc_outside_the_handler_leaves_it_silent(self):
        # The bump must be in the handler: one on the happy path records
        # nothing about the failure the empty handler absorbs.
        snippet = (
            "def f(self, x):\n    try:\n"
            "        self.metrics.counter('sim.x.parsed').inc()\n"
            "        return int(x)\n"
            "    except ValueError:\n        pass\n"
        )
        assert rule_ids(lint_snippet(snippet)) == ["ROB003"]

    def test_bare_handlers_are_rob001s_domain(self):
        # One bad handler never double-reports across the two rules.
        snippet = "def f():\n    try:\n        return 1\n    except:\n        return 0\n"
        assert rule_ids(lint_snippet(snippet)) == ["ROB001"]

    def test_out_of_scope_modules_are_not_checked(self):
        snippet = (
            "def f(x):\n    try:\n        return int(x)\n"
            "    except ValueError:\n        return 0\n"
        )
        assert lint_snippet(snippet, module="repro.core._snippet") == []


class TestRob002NonAtomicWrite:
    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(path):\n    with open(path, 'w') as h:\n        h.write('x')\n",
            "def f(path):\n    with open(path, 'wb') as h:\n        h.write(b'x')\n",
            "def f(path):\n    with open(path, 'x') as h:\n        h.write('x')\n",
            "def f(path):\n    with open(path, mode='w') as h:\n        h.write('x')\n",
            "import io\n\ndef f(path):\n    return io.open(path, 'w')\n",
            "import os\n\ndef f(a, b):\n    os.rename(a, b)\n",
            "from os import rename\n\ndef f(a, b):\n    rename(a, b)\n",
        ],
        ids=[
            "write", "write-binary", "exclusive", "mode-kw",
            "io-open", "os-rename", "from-import-rename",
        ],
    )
    def test_flags_in_place_writes(self, snippet):
        assert rule_ids(lint_snippet(snippet)) == ["ROB002"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # Reads are fine, with or without an explicit mode.
            "def f(path):\n    with open(path) as h:\n        return h.read()\n",
            "def f(path):\n    with open(path, 'rb') as h:\n        return h.read()\n",
            # Append-only journals are the sanctioned non-atomic pattern.
            "def f(path):\n    with open(path, 'a') as h:\n        h.write('x')\n",
            # A dynamic mode expression gets the benefit of the doubt.
            "def f(path, mode):\n    return open(path, mode)\n",
            # os.replace is the atomic spelling ROB002 asks for.
            "import os\n\ndef f(a, b):\n    os.replace(a, b)\n",
        ],
        ids=["read", "read-binary", "append", "dynamic-mode", "os-replace"],
    )
    def test_allows_reads_appends_and_replace(self, snippet):
        assert lint_snippet(snippet) == []

    def test_out_of_scope_modules_are_not_checked(self):
        snippet = "def f(path):\n    return open(path, 'w')\n"
        assert lint_snippet(snippet, module="repro.workloads._snippet") == []
        assert rule_ids(
            lint_snippet(snippet, module="repro.core._snippet")
        ) == ["ROB002"]


class TestRob004FileLockRelease:
    # flock lives only in repro.atomicio, the rule's whole scope.
    MODULE = "repro.atomicio"
    SAFE = (
        "import fcntl\n"
        "def f(handle):\n"
        "    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)\n"
        "    try:\n"
        "        return handle.read()\n"
        "    finally:\n"
        "        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)\n"
    )
    UNSAFE = (
        "import fcntl\n"
        "def f(handle):\n"
        "    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)\n"
        "    data = handle.read()\n"
        "    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)\n"
        "    return data\n"
    )

    def test_acquire_with_immediate_try_finally_unlock_is_clean(self):
        assert lint_snippet(self.SAFE, module=self.MODULE) == []

    def test_unprotected_statements_after_acquire_are_flagged(self):
        assert rule_ids(lint_snippet(self.UNSAFE, module=self.MODULE)) == ["ROB004"]

    def test_close_in_finally_counts_as_release(self):
        snippet = (
            "import fcntl\n"
            "def f(handle):\n"
            "    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)\n"
            "    try:\n"
            "        return handle.read()\n"
            "    finally:\n"
            "        handle.close()\n"
        )
        assert lint_snippet(snippet, module=self.MODULE) == []

    def test_lockf_and_from_import_and_composed_flags_are_seen(self):
        snippet = (
            "from fcntl import lockf, LOCK_EX, LOCK_NB\n"
            "def f(handle):\n"
            "    lockf(handle, LOCK_EX | LOCK_NB)\n"
            "    return handle.read()\n"
        )
        assert rule_ids(lint_snippet(snippet, module=self.MODULE)) == ["ROB004"]

    def test_unlock_and_shared_reads_outside_scope_stay_quiet(self):
        # LOCK_UN alone is not an acquisition, and outside repro.atomicio
        # the rule does not apply at all.
        unlock_only = (
            "import fcntl\n"
            "def f(handle):\n"
            "    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)\n"
        )
        assert lint_snippet(unlock_only, module=self.MODULE) == []
        assert lint_snippet(self.UNSAFE, module="repro.sim._snippet") == []
        assert lint_snippet(self.UNSAFE, module="repro.core._snippet") == []
