"""THR rule family: thread-safety checks scoped to the thread's module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis import REGISTRY, derive_module, iter_python_files
from repro.analysis.names import ImportMap
from tests.analysis import lint_snippet, rule_ids

pytestmark = pytest.mark.lint

THREAD_MODULE = "repro.sim.campaign"

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


def thr_ids(source: str, module: str = THREAD_MODULE) -> list[str]:
    findings = lint_snippet(source, module=module)
    return [f.rule for f in findings if f.rule.startswith("THR")]


WATCHDOG_TEMPLATE = """
    import threading

    class Watchdog:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def start(self):
            threading.Thread(target=self._run).start()

        def _run(self):
            {thread_body}

        def snapshot(self):
            {main_body}
"""


class TestTHR001SharedWrite:
    def test_unlocked_thread_write_to_shared_attr_fires(self):
        source = WATCHDOG_TEMPLATE.format(
            thread_body="self._count = self._count + 1",
            main_body="return self._count",
        )
        assert thr_ids(source) == ["THR001"]

    def test_locked_write_is_clean(self):
        source = WATCHDOG_TEMPLATE.format(
            thread_body=(
                "with self._lock:\n                self._count = 1"
            ),
            main_body="return self._count",
        )
        assert thr_ids(source) == []

    def test_thread_private_attr_is_clean(self):
        # _count is only ever touched on the thread side: not shared.
        source = """
            import threading

            class Watchdog:
                def __init__(self):
                    self._lock = threading.Lock()

                def start(self):
                    threading.Thread(target=self._run).start()

                def _run(self):
                    self._scratch = 1
        """
        assert thr_ids(source) == []

    def test_write_in_callee_of_thread_target_fires(self):
        # The race is one call-graph hop below the Thread target.
        source = """
            import threading

            class Watchdog:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def start(self):
                    threading.Thread(target=self._run).start()

                def _run(self):
                    self._bump()

                def _bump(self):
                    self._count = self._count + 1

                def snapshot(self):
                    return self._count
        """
        findings = lint_snippet(source, module=THREAD_MODULE)
        [thr] = [f for f in findings if f.rule == "THR001"]
        assert "'_bump'" in thr.message

    def test_no_thread_spawn_means_no_findings(self):
        source = """
            import threading

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    self._count = self._count + 1
        """
        assert thr_ids(source) == []

    def test_out_of_scope_module_is_clean(self):
        source = WATCHDOG_TEMPLATE.format(
            thread_body="self._count = self._count + 1",
            main_body="return self._count",
        )
        assert thr_ids(source, module="repro.sim.columnar") == []


class TestTHR002AcquireRelease:
    def test_bare_acquire_fires(self):
        source = """
            def touch(lock):
                lock.acquire()
                lock.release()
        """
        assert thr_ids(source) == ["THR002"]

    def test_try_finally_shape_is_clean(self):
        source = """
            def touch(lock):
                lock.acquire()
                try:
                    pass
                finally:
                    lock.release()
        """
        assert thr_ids(source) == []

    def test_finally_releasing_a_different_lock_fires(self):
        source = """
            def touch(lock, other_lock):
                lock.acquire()
                try:
                    pass
                finally:
                    other_lock.release()
        """
        assert thr_ids(source) == ["THR002"]

    def test_acquire_on_self_attribute_fires(self):
        source = """
            class Holder:
                def touch(self):
                    self._lock.acquire()
                    self._lock.release()
        """
        assert thr_ids(source) == ["THR002"]

    def test_non_lockish_receiver_is_ignored(self):
        source = """
            def touch(sem):
                sem.acquire()
        """
        assert thr_ids(source) == []


class TestTHR003FlagVisibility:
    def test_cross_boundary_flag_read_fires(self):
        # The thread side writes under the lock (so THR001 stays quiet);
        # the main-thread read without it is still a visibility race.
        source = WATCHDOG_TEMPLATE.format(
            thread_body=(
                "with self._lock:\n                self._tripped = True"
            ),
            main_body="return self._tripped",
        ).replace("self._count = 0", "self._tripped = False")
        findings = lint_snippet(source, module=THREAD_MODULE)
        rules = [f.rule for f in findings if f.rule.startswith("THR")]
        assert rules == ["THR003"]
        assert "'_tripped'" in findings[-1].message

    def test_locked_read_is_clean(self):
        source = WATCHDOG_TEMPLATE.format(
            thread_body="self._tripped = True",
            main_body=(
                "with self._lock:\n                return self._tripped"
            ),
        ).replace("self._count = 0", "self._tripped = False")
        # The unlocked thread-side *write* is THR001's business; the read
        # under the lock must not raise THR003.
        assert "THR003" not in thr_ids(source)

    def test_event_is_the_sanctioned_primitive(self):
        source = """
            import threading

            class Watchdog:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._stop = threading.Event()

                def start(self):
                    threading.Thread(target=self._run).start()

                def _run(self):
                    self._stop.set()

                def stopped(self):
                    return self._stop.is_set()
        """
        assert thr_ids(source) == []

    def test_same_side_writes_do_not_fire(self):
        # Flag written and read only on the main-thread side.
        source = """
            import threading

            class Watchdog:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._armed = False

                def start(self):
                    threading.Thread(target=self._run).start()

                def _run(self):
                    pass

                def arm(self):
                    self._armed = True

                def is_armed(self):
                    return self._armed
        """
        assert thr_ids(source) == []


def thread_modules() -> list[str]:
    """Modules of the package that construct or subclass threading.Thread."""
    modules = []
    for path in iter_python_files([str(PACKAGE)]):
        tree = ast.parse(Path(path).read_text(), filename=path)
        imports = ImportMap.from_tree(tree)
        candidates: list[ast.expr] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                candidates.append(node.func)
            elif isinstance(node, ast.ClassDef):
                candidates.extend(node.bases)
        if any(imports.resolve(c) == "threading.Thread" for c in candidates):
            modules.append(derive_module(path))
    return modules


class TestRuleMetadata:
    def test_thr_rules_registered_with_scope(self):
        for rule_id in ("THR001", "THR002", "THR003"):
            rule_ = REGISTRY[rule_id]
            assert rule_.scope == ("repro.sim.campaign",)
            assert rule_.rationale

    def test_ids_helper_sees_no_other_rules(self):
        # Sanity: the template itself is otherwise lint-clean in scope.
        source = WATCHDOG_TEMPLATE.format(
            thread_body="pass",
            main_body="return self._count",
        )
        assert rule_ids(lint_snippet(source, module=THREAD_MODULE)) == []

    @pytest.mark.parametrize("module", ["repro.sim.guard", "repro.obs"])
    def test_former_scope_modules_get_no_thread_rules(self, module):
        # Neither module starts a thread, so the THR rules stay silent
        # there even on a racy thread body.
        source = WATCHDOG_TEMPLATE.format(
            thread_body="self._count = self._count + 1",
            main_body="return self._count",
        )
        assert thr_ids(source) == ["THR001"]
        assert thr_ids(source, module=module) == []

    def test_every_module_that_starts_a_thread_is_in_scope(self):
        modules = thread_modules()
        assert THREAD_MODULE in modules
        for rule_id in ("THR001", "THR002", "THR003"):
            assert [
                module for module in modules
                if not REGISTRY[rule_id].applies_to(module)
            ] == []
