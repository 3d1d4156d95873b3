"""Engine tests: discovery, module derivation, config, parse failures."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import (
    LintConfig,
    REGISTRY,
    derive_module,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.project import ModuleInventory
from tests.analysis import rule_ids

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestModuleDerivation:
    def test_package_files_get_dotted_names(self):
        assert (
            derive_module(str(REPO_ROOT / "src/repro/sim/executor.py"))
            == "repro.sim.executor"
        )
        assert (
            derive_module(str(REPO_ROOT / "tests/sim/test_executor.py"))
            == "tests.sim.test_executor"
        )

    def test_init_maps_to_package(self):
        assert (
            derive_module(str(REPO_ROOT / "src/repro/analysis/__init__.py"))
            == "repro.analysis"
        )

    def test_loose_file_is_its_stem(self, tmp_path):
        loose = tmp_path / "scratch.py"
        loose.write_text("x = 1\n")
        assert derive_module(str(loose)) == "scratch"

    def test_walk_stops_at_checkout_root_marker(self, tmp_path):
        # A stray __init__.py in a checkout root must not leak the checkout
        # directory name into module names (it would silently change rule
        # scoping for every file).
        proj = tmp_path / "proj"
        pkg = proj / "pkg"
        pkg.mkdir(parents=True)
        (proj / "pyproject.toml").write_text("[project]\nname = 'proj'\n")
        (proj / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("x = 1\n")
        assert derive_module(str(pkg / "mod.py")) == "pkg.mod"

    def test_walk_stops_at_src_directory(self, tmp_path):
        src = tmp_path / "src"
        pkg = src / "repro"
        pkg.mkdir(parents=True)
        (src / "__init__.py").write_text("")  # stray marker above the root
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("x = 1\n")
        assert derive_module(str(pkg / "mod.py")) == "repro.mod"

    def test_walk_stops_at_non_identifier_directory(self, tmp_path):
        checkout = tmp_path / "my-checkout"
        pkg = checkout / "repro"
        pkg.mkdir(parents=True)
        (checkout / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("x = 1\n")
        assert derive_module(str(pkg / "mod.py")) == "repro.mod"


class TestDiscovery:
    def test_walk_collects_only_python_files(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "data.json").write_text("{}\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-312.pyc").write_text("")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("x = 1\n")
        files = iter_python_files([str(tmp_path)])
        assert files == [str(tmp_path / "pkg" / "a.py")]

    def test_explicit_file_kept_regardless_of_extension(self, tmp_path):
        fixture = tmp_path / "bad.py.fixture"
        fixture.write_text("x = 1\n")
        assert iter_python_files([str(fixture)]) == [str(fixture)]

    def test_exclude_prefix_skips_subtree(self, tmp_path):
        keep = tmp_path / "keep.py"
        keep.write_text("x = 1\n")
        skipped = tmp_path / "fixtures"
        skipped.mkdir()
        (skipped / "bad.py").write_text("x = 1\n")
        files = iter_python_files([str(tmp_path)], exclude=(str(skipped),))
        assert files == [str(keep)]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            iter_python_files([str(REPO_ROOT / "no-such-dir")])

    def test_duplicate_inputs_deduplicate(self, tmp_path):
        file = tmp_path / "a.py"
        file.write_text("x = 1\n")
        assert iter_python_files([str(file), str(file), str(tmp_path)]) == [
            str(file)
        ]


class TestConfig:
    def test_select_restricts_rules(self):
        source = "import time\nt = time.time()\nx = [n for n in set('ab')]\n"
        config = LintConfig(select=frozenset({"DET003"}))
        findings = lint_source(source, module="repro.sim.mod", config=config)
        assert rule_ids(findings) == ["DET003"]

    def test_ignore_drops_rules(self):
        source = "import time\nt = time.time()\nx = [n for n in set('ab')]\n"
        config = LintConfig(ignore=frozenset({"DET003"}))
        findings = lint_source(source, module="repro.sim.mod", config=config)
        assert rule_ids(findings) == ["DET002"]

    def test_unknown_rule_ids_reported(self):
        config = LintConfig(select=frozenset({"DET001", "NOPE123"}))
        assert config.unknown_rule_ids() == ["NOPE123"]

    def test_assume_module_forces_scope(self):
        source = "import time\nt = time.time()\n"
        config = LintConfig(assume_module="repro.sim.fixture")
        assert rule_ids(lint_source(source, path="loose.py", config=config)) == [
            "DET002"
        ]
        assert lint_source(source, path="loose.py") == []


class TestParseFailures:
    def test_syntax_error_is_parse001(self):
        findings = lint_source("def f(:\n", path="broken.py")
        assert rule_ids(findings) == ["PARSE001"]
        assert findings[0].line == 1

    def test_unreadable_file_is_parse001(self, tmp_path):
        binary = tmp_path / "not_utf8.py"
        binary.write_bytes(b"\xff\xfe\x00bad")
        findings = lint_file(str(binary))
        assert rule_ids(findings) == ["PARSE001"]


class TestRegistry:
    def test_catalogue_is_complete(self):
        assert set(REGISTRY) == {
            "DET001", "DET002", "DET003", "DET004",
            "NUM001", "NUM002", "NUM003",
            "OBS001", "OBS002",
            "PERF001",
            "PURE001", "PURE002",
            "ROB001", "ROB002", "ROB003", "ROB004",
            "SUP001", "SUP002",
            "THR001", "THR002", "THR003",
            "PARSE001",
        }

    def test_interprocedural_rules_have_project_passes(self):
        assert REGISTRY["PURE001"].project_checker is not None
        assert REGISTRY["DET004"].project_checker is not None
        assert REGISTRY["THR001"].project_checker is not None
        assert REGISTRY["THR003"].project_checker is not None
        # Purely local rules stay local.
        assert REGISTRY["THR002"].checker is not None
        assert REGISTRY["THR002"].project_checker is None

    def test_findings_are_sorted_by_location(self):
        source = (
            "import time\n"
            "def f(acc=[]):\n"
            "    return time.time()\n"
        )
        findings = lint_source(source, module="repro.sim.mod")
        assert [(f.line, f.rule) for f in findings] == sorted(
            (f.line, f.rule) for f in findings
        )

    def test_lint_paths_over_directory(self, tmp_path):
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("import time\nt = time.time()\n")
        findings = lint_paths([str(tmp_path)])
        assert rule_ids(findings) == ["DET002"]
        assert findings[0].path == str(pkg / "mod.py")
        assert os.path.basename(findings[0].path) == "mod.py"

    def test_module_inventory_is_built_once_per_file(self, monkeypatch):
        # PURE001's per-file checker and the module summary share one
        # inventory; building it twice doubled the cost of a lint.
        built = []
        real = ModuleInventory.from_tree.__func__

        def spy(cls, tree, imports=None):
            built.append(tree)
            return real(cls, tree, imports)

        monkeypatch.setattr(ModuleInventory, "from_tree", classmethod(spy))
        source = (
            "_cache = {}\n"
            "def job(x):\n"
            "    _cache[x] = x\n"
            "def run(pool):\n"
            "    pool.submit(job, 1)\n"
        )
        findings = lint_source(source, module="repro.sim.mod")
        assert rule_ids(findings) == ["PURE001"]
        assert len(built) == 1
