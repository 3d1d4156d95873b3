"""Project-phase tests: call graph, cross-module fixtures, subsumption."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import LintConfig, lint_paths, lint_source
from repro.analysis.callgraph import CallGraph
from tests.analysis import rule_ids

pytestmark = pytest.mark.lint

XPROJ = Path(__file__).resolve().parent / "fixtures" / "xproj"
SRC = Path(__file__).resolve().parents[2] / "src"


class TestCallGraph:
    def _diamond(self) -> CallGraph:
        graph = CallGraph()
        graph.add_edge("a", "b")
        graph.add_edge("a", "c")
        graph.add_edge("b", "d")
        graph.add_edge("c", "d")
        graph.seal()
        return graph

    def test_reachable_is_deterministic_and_shortest_path(self):
        graph = self._diamond()
        reached = graph.reachable(("a",))
        assert set(reached) == {"a", "b", "c", "d"}
        # 'd' is discovered through 'b' (sorted adjacency), depth 2.
        assert reached["d"].depth == 2
        assert reached["d"].path == ("a", "b", "d")

    def test_cycles_terminate(self):
        graph = CallGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")
        graph.seal()
        reached = graph.reachable(("a",), max_depth=100)
        assert set(reached) == {"a", "b"}

    def test_max_depth_bounds_traversal(self):
        graph = CallGraph()
        for i in range(10):
            graph.add_edge(f"n{i}", f"n{i + 1}")
        graph.seal()
        reached = graph.reachable(("n0",), max_depth=3)
        assert set(reached) == {"n0", "n1", "n2", "n3"}

    def test_exclude_roots(self):
        graph = self._diamond()
        reached = graph.reachable(("a",), include_roots=False)
        assert "a" not in reached and "d" in reached

    def test_tainted_closure_respects_value_filter(self):
        graph = CallGraph()
        graph.add_edge("caller_used", "source")
        graph.add_edge("caller_unused", "source")
        graph.seal()
        tainted = graph.tainted_closure(
            {"source": "time.time"},
            edges_filter={("caller_used", "source"): True,
                          ("caller_unused", "source"): False},
        )
        assert "caller_used" in tainted
        assert "caller_unused" not in tainted
        assert tainted["caller_used"] == ("caller_used", "source")


class TestCrossModuleFixture:
    """The xproj fixture seeds exactly one finding per interprocedural rule."""

    @pytest.fixture(scope="class")
    def findings(self):
        return lint_paths([str(XPROJ)])

    def test_exactly_one_finding_per_new_rule(self, findings):
        counts: dict[str, int] = {}
        for finding in findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        assert counts == {
            "PURE001": 1,
            "DET004": 1,
            "THR001": 1,
            "THR002": 1,
            "THR003": 1,
            "NUM001": 1,
            "NUM002": 1,
            "NUM003": 1,
        }

    def test_pure001_names_the_cross_module_chain(self, findings):
        [pure] = [f for f in findings if f.rule == "PURE001"]
        assert pure.path.endswith("submitter.py")
        assert "calls 'remember'" in pure.message
        assert "repro.jobs.middle.relay -> repro.jobs.leaf.remember" in (
            pure.message
        )

    def test_det004_reports_the_boundary_call_site(self, findings):
        [det] = [f for f in findings if f.rule == "DET004"]
        assert det.path.endswith("timing.py")
        assert "time.time()" in det.message

    def test_single_file_lint_provably_misses_the_impurity(self):
        # The exact cross-module case the one-level check cannot see: the
        # submitted function is pure and every impure callee lives in
        # another module, so a per-file lint of submitter.py is clean.
        submitter = XPROJ / "repro" / "jobs" / "submitter.py"
        findings = lint_source(
            submitter.read_text(),
            path=str(submitter),
            module="repro.jobs.submitter",
        )
        assert findings == []

    def test_editing_a_callee_changes_its_importers_findings(self, tmp_path):
        # Make the leaf pure: the PURE001 two modules away disappears
        # although submitter.py itself was never edited.
        root = tmp_path / "xproj"
        shutil.copytree(XPROJ, root)
        before = lint_paths([str(root)])
        assert [f.rule for f in before if f.rule == "PURE001"] == ["PURE001"]

        leaf = root / "repro" / "jobs" / "leaf.py"
        leaf.write_text(
            '"""Leaf module, now pure."""\n\n\n'
            "def remember(key, value):\n"
            "    return value\n"
        )
        after = lint_paths([str(root)])
        assert [f for f in before if f.rule != "PURE001"] == after


def _key(finding):
    return (finding.path, finding.rule, finding.line, finding.col,
            finding.message)


class TestOneLintPath:
    """A lint is a pure function of the bytes it reads and its config."""

    def test_repeated_runs_agree_exactly(self):
        first = [_key(f) for f in lint_paths([str(XPROJ)])]
        second = [_key(f) for f in lint_paths([str(XPROJ)])]
        assert first == second
        assert len(first) == 8

    def test_json_output_does_not_depend_on_the_hash_seed(self):
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": str(SRC)}
            proc = subprocess.run(
                [sys.executable, "-m", "repro.analysis", str(XPROJ),
                 "--format", "json"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 1, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert '"total": 8' in outputs[0]

    def test_argument_order_does_not_change_findings(self):
        package = XPROJ / "repro"
        parts = sorted(str(p) for p in package.iterdir()
                       if p.suffix == ".py" or p.is_dir())
        whole = [_key(f) for f in lint_paths([str(XPROJ)])]
        assert [_key(f) for f in lint_paths(parts[::-1])] == whole
        assert [_key(f) for f in lint_paths(parts)] == whole

    def test_comment_only_edit_keeps_every_finding(self, tmp_path):
        root = tmp_path / "xproj"
        shutil.copytree(XPROJ, root)
        before = [_key(f) for f in lint_paths([str(root)])]
        leaf = root / "repro" / "jobs" / "leaf.py"
        leaf.write_text(leaf.read_text() + "\n# a trailing comment\n")
        assert [_key(f) for f in lint_paths([str(root)])] == before

    def test_rule_selection_narrows_project_findings(self):
        everything = lint_paths([str(XPROJ)])
        only_pure = lint_paths(
            [str(XPROJ)], LintConfig(select=frozenset({"PURE001"}))
        )
        without_pure = lint_paths(
            [str(XPROJ)], LintConfig(ignore=frozenset({"PURE001"}))
        )
        assert [f.rule for f in only_pure] == ["PURE001"]
        assert without_pure == [f for f in everything if f.rule != "PURE001"]

    def test_unparseable_file_does_not_hide_the_rest(self, tmp_path):
        root = tmp_path / "xproj"
        shutil.copytree(XPROJ, root)
        before = lint_paths([str(root)])
        broken = root / "repro" / "jobs" / "broken.py"
        broken.write_text("def broken(:\n")
        after = lint_paths([str(root)])
        [parse] = [f for f in after if f.rule == "PARSE001"]
        assert parse.path == str(broken)
        assert [f for f in after if f.rule != "PARSE001"] == before


class TestSubsumption:
    """Everything the old one-level PURE001 caught, the project pass still
    catches — single-file findings are strictly subsumed, never lost."""

    def test_same_module_direct_impurity_still_fires(self):
        source = (
            "_state = {}\n"
            "def worker(x):\n"
            "    _state[x] = 1\n"
            "    return x\n"
            "def run(pool, xs):\n"
            "    return [pool.submit(worker, x) for x in xs]\n"
        )
        findings = lint_source(source, module="repro.sim.mod")
        assert rule_ids(findings) == ["PURE001"]
        assert "submitted function 'worker' writes" in findings[0].message

    def test_same_module_one_level_callee_still_fires(self):
        source = (
            "_state = {}\n"
            "def helper(x):\n"
            "    _state[x] = 1\n"
            "    return x\n"
            "def worker(x):\n"
            "    return helper(x)\n"
            "def run(pool, xs):\n"
            "    return [pool.submit(worker, x) for x in xs]\n"
        )
        findings = lint_source(source, module="repro.sim.mod")
        assert rule_ids(findings) == ["PURE001"]
        # The depth-1 message format is unchanged from the one-level era.
        assert "calls 'helper', which writes module-level state" in (
            findings[0].message
        )
        assert "(via" not in findings[0].message

    def test_lambda_and_closure_findings_unchanged(self):
        source = (
            "def run(pool, xs):\n"
            "    def inner(x):\n"
            "        return x\n"
            "    a = pool.submit(lambda x: x, 1)\n"
            "    return pool.submit(inner, 2)\n"
        )
        findings = lint_source(source, module="repro.sim.mod")
        assert rule_ids(findings) == ["PURE001", "PURE001"]

    def test_deeper_same_module_chain_is_new_coverage(self):
        # Two hops inside one module: invisible to the old one-level scan,
        # reported (with a call chain) by the project pass.
        source = (
            "_state = {}\n"
            "def leaf(x):\n"
            "    _state[x] = 1\n"
            "    return x\n"
            "def mid(x):\n"
            "    return leaf(x)\n"
            "def worker(x):\n"
            "    return mid(x)\n"
            "def run(pool, xs):\n"
            "    return [pool.submit(worker, x) for x in xs]\n"
        )
        findings = lint_source(source, module="repro.sim.mod")
        assert rule_ids(findings) == ["PURE001"]
        assert "(via repro.sim.mod.worker -> repro.sim.mod.mid -> " in (
            findings[0].message
        )

    def test_suppression_covers_project_findings(self):
        source = (
            "_state = {}\n"
            "def helper(x):\n"
            "    _state[x] = 1\n"
            "    return x\n"
            "def worker(x):\n"
            "    return helper(x)\n"
            "def run(pool, xs):\n"
            "    return [pool.submit(worker, x) for x in xs]"
            "  # repro: noqa[PURE001]\n"
        )
        assert lint_source(source, module="repro.sim.mod") == []
