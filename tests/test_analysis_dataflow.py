"""Whole-program analysis: the import index and the escape analysis
behind rule SNIC010 (``repro.analysis.rules.shared_state``).

The fixture tree is ``tests/fixtures/dataflow/state.py`` (known
cell-unsafe state) plus a second module, written per test run, that
writes one of its mutables through a ``from`` import.  The real
``src/repro`` tree must lint clean with SNIC010 included
(``tests/test_analysis_lint.py``, ``tests/test_cell_contract.py``).
"""

from __future__ import annotations

import json
import shutil
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.analysis.lint import load_modules, run_lint
from repro.analysis.rules.shared_state import EscapeAnalysis

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "dataflow"

#: A module that writes ``state.FLOW_TABLE`` from another module.
FLOWS = (
    "import state as st\n"
    "from state import FLOW_TABLE\n"
    "\n"
    "\n"
    "def record_flow(key, payload):\n"
    "    FLOW_TABLE[key] = payload\n")


@pytest.fixture(scope="module")
def fixture_tree(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("dataflow")
    shutil.copy(FIXTURE_DIR / "state.py", root / "state.py")
    (root / "flows.py").write_text(FLOWS)
    return root


def analyse(root: Path) -> EscapeAnalysis:
    return EscapeAnalysis(load_modules([root]))


# ----------------------------------------------------------------------
# Import index
# ----------------------------------------------------------------------

class TestProgramGraph:
    def test_from_import_binds_names_across_modules(self, fixture_tree):
        analysis = analyse(fixture_tree)
        assert analysis.imported_names["flows"]["FLOW_TABLE"] == \
            ("state", "FLOW_TABLE")
        assert analysis.module_aliases["flows"] == {"st": "state"}
        assert analysis.imported_names["state"] == {}

    def test_colliding_stems_keep_both_modules(self, tmp_path):
        # a/mod.py and b/mod.py share a stem; linting both directories
        # reports each module's state, as linting either alone does.
        for sub, body in (("a", "T = {}\ndef put(k):\n    T[k] = 1\n"),
                          ("b", "L = []\ndef add(x):\n    L.append(x)\n")):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "mod.py").write_text(body)
        findings, code = run_lint([tmp_path / "a", tmp_path / "b"],
                                  rules=["SNIC010"])
        assert code == 1
        assert sorted((Path(f.path).parent.name, f.key)
                      for f in findings) == [("a", "a.mod.T"),
                                             ("b", "b.mod.L")]

    def test_a_file_named_twice_is_linted_once(self, fixture_tree):
        once, _ = run_lint([fixture_tree])
        twice, _ = run_lint([fixture_tree, fixture_tree / "state.py"])
        assert [asdict(f) for f in twice] == [asdict(f) for f in once]


# ----------------------------------------------------------------------
# Escape analysis (SNIC010)
# ----------------------------------------------------------------------

class TestEscape:
    @pytest.fixture(scope="class")
    def infos(self, fixture_tree):
        return {i.qualname: i for i in analyse(fixture_tree).run()}

    def test_cross_module_subscript_store_is_unsafe(self, infos):
        info = infos["state.FLOW_TABLE"]
        assert not info.cell_safe
        assert info.aliases == ["flows"]
        assert any("flows:" in r and "subscript store" in r
                   for r in info.reasons)
        assert any("del on element" in r for r in info.reasons)

    def test_function_scope_mutator_is_unsafe(self, infos):
        info = infos["state.SEEN"]
        assert not info.cell_safe
        assert any("mutator .add() call" in r for r in info.reasons)

    def test_import_time_only_mutation_is_safe(self, infos):
        info = infos["state.DEFAULTS"]
        assert info.mutable and info.cell_safe
        assert info.reasons == ["mutable, but only written at import time"]

    def test_immutable_binding_is_safe(self, infos):
        info = infos["state.RULE_IDS"]
        assert not info.mutable and info.cell_safe

    def test_reasons_name_the_writing_function_not_its_line(self, infos):
        assert infos["state.SEEN"].reasons == [
            "state:remember mutator .add() call"]
        assert "flows:record_flow subscript store" in \
            infos["state.FLOW_TABLE"].reasons

    def test_nested_writes_are_named_by_qualname_once(self, tmp_path):
        (tmp_path / "nest.py").write_text(
            "CACHE = {}\n"
            "\n"
            "class Box:\n"
            "    def fill(self):\n"
            "        def inner():\n"
            "            CACHE[1] = 1\n"
            "            CACHE[2] = 2\n"
            "        inner()\n")
        (info,) = analyse(tmp_path).run()
        assert info.reasons == [
            "nest:Box.fill.<locals>.inner subscript store"]

    def test_singleton_factory_handle_is_unsafe(self, tmp_path):
        (tmp_path / "single.py").write_text(
            "_TRACER = get_tracer()\n")
        (info,) = analyse(tmp_path).run()
        assert not info.cell_safe
        assert "cell-state field at import time (get_tracer())" in \
            info.reasons[0]

    def test_cell_state_holder_is_safe_and_its_fields_are_not(
            self, tmp_path):
        (tmp_path / "cell.py").write_text(
            "CELL = CellState()\n"
            "\n"
            "def swap():\n"
            "    CELL.tracer = None\n"
            "    CELL.audit.emit('x')\n")
        (tmp_path / "hw.py").write_text(
            "from cell import CELL\n"
            "HOLDER = CELL\n"
            "_TRACER = HOLDER.tracer\n"
            "\n"
            "def hot():\n"
            "    CELL.audit.emit('y')\n")
        infos = {i.qualname: i for i in analyse(tmp_path).run()}
        assert set(infos) == {"cell.CELL", "hw._TRACER"}
        assert infos["cell.CELL"].cell_safe
        assert infos["cell.CELL"].aliases == ["hw"]
        assert not infos["hw._TRACER"].cell_safe
        assert "(HOLDER.tracer)" in infos["hw._TRACER"].reasons[0]

    def test_aliases_resolve_to_the_object_they_name(self, tmp_path):
        (tmp_path / "owner.py").write_text("TABLE = {}\n")
        (tmp_path / "user.py").write_text(
            "import owner\n"
            "MINE = owner.TABLE\n"
            "\n"
            "def put(k):\n"
            "    MINE[k] = 1\n")
        (info,) = analyse(tmp_path).run()
        assert info.qualname == "owner.TABLE"
        assert not info.cell_safe
        assert info.aliases == ["user"]
        assert info.reasons == ["user:put subscript store"]

    def test_global_rebind_of_an_immutable_is_unsafe(self, tmp_path):
        (tmp_path / "count.py").write_text(
            "SEEN = 0\n"
            "\n"
            "def bump():\n"
            "    global SEEN\n"
            "    SEEN += 1\n")
        (info,) = analyse(tmp_path).run()
        assert not info.cell_safe
        assert info.reasons == ["count:bump global rebind of SEEN"]

    def test_global_without_a_binding_is_an_object(self, tmp_path):
        (tmp_path / "count.py").write_text(
            "def reset():\n"
            "    global COUNT\n"
            "    COUNT = 0\n"
            "\n"
            "def bump():\n"
            "    global COUNT\n"
            "    COUNT += 1\n")
        (info,) = analyse(tmp_path).run()
        assert (info.qualname, info.lineno) == ("count.COUNT", 2)
        assert not info.cell_safe
        assert info.reasons == ["count:reset global rebind of COUNT",
                                "count:bump global rebind of COUNT"]
        findings, _code = run_lint([tmp_path])
        assert [(f.line, f.key) for f in findings] == [
            (2, "count.COUNT"), (6, "count:bump global rebind of COUNT")]


# ----------------------------------------------------------------------
# Determinism: byte-identical JSON across runs
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_fixture_json_is_byte_identical_across_runs(self, capsys):
        from repro.analysis.lint import main

        main(["--format", "json", "--rules", "SNIC010", str(FIXTURE_DIR)])
        first = capsys.readouterr().out
        main(["--format", "json", "--rules", "SNIC010", str(FIXTURE_DIR)])
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["n_active"] == 2

    def test_findings_sorted_by_path_line_rule(self, fixture_tree):
        findings, _code = run_lint([fixture_tree])
        keys = [(f.path, f.line, f.col, f.rule) for f in findings]
        assert len(keys) > 1 and keys == sorted(keys)
