"""Whole-program dataflow analysis: graph, taint (SNIC009), escape
analysis (SNIC010) and the baseline.

Two fixture sets drive these tests: the seeded violation tree under
``tests/fixtures/dataflow/`` (known flows, known cell-unsafe state)
and the real ``src/repro`` tree, which must run clean against the
committed ``DATAFLOW_BASELINE.json`` — with every baseline entry still
matching a live finding (no stale entries) and carrying a real
justification.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.dataflow.cli import (
    apply_baseline,
    default_baseline_path,
    load_baseline,
    run_dataflow,
    run_program_rules,
    write_baseline,
)
from repro.analysis.dataflow.escape import EscapeAnalysis
from repro.analysis.dataflow.graph import (
    MODULE_BODY,
    CallSite,
    ProgramGraph,
)
from repro.analysis.dataflow.rules import analyze
from repro.analysis.dataflow.taint import SOURCE_SPECS, TaintAnalysis
from repro.analysis.lint import load_modules, source_root

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "dataflow"


@pytest.fixture(scope="module")
def fixture_graph() -> ProgramGraph:
    return ProgramGraph.build(load_modules([FIXTURE_DIR]))


@pytest.fixture(scope="module")
def repo_analysis():
    """One shared full-repo analysis (graph + flows + state)."""
    return analyze(load_modules([source_root()]))


# ----------------------------------------------------------------------
# Program graph
# ----------------------------------------------------------------------

class TestProgramGraph:
    def test_functions_indexed_with_qualnames(self, fixture_graph):
        assert "pipeline.rx_frame" in fixture_graph.functions
        assert "pipeline.steal_and_forward" in fixture_graph.functions
        assert "state.remember" in fixture_graph.functions

    def test_every_module_gets_a_body_pseudo_function(self, fixture_graph):
        for modname in fixture_graph.modules:
            assert f"{modname}.{MODULE_BODY}" in fixture_graph.functions

    def test_local_calls_resolve_precisely(self, fixture_graph):
        sites = fixture_graph.sites_in("pipeline.steal_and_forward")
        by_callee = {s.name: s for s in sites}
        assert by_callee["rx_frame"].resolution == "local"
        assert by_callee["rx_frame"].callees == ("pipeline.rx_frame",)
        assert by_callee["parse"].resolution == "local"

    def test_from_import_binds_names_across_modules(self, fixture_graph):
        names = fixture_graph.imported_names["pipeline"]
        assert names["FLOW_TABLE"] == ("state", "FLOW_TABLE")
        assert fixture_graph.importers_of("state") == ["pipeline"]

    def test_unresolvable_receiver_falls_back_by_name(self, fixture_graph):
        # egress.deliver(...) — "egress" is a parameter, so the call can
        # only resolve by bare name; here nothing defines deliver().
        sites = fixture_graph.sites_in("pipeline.steal_and_forward")
        deliver = next(s for s in sites if s.name == "deliver")
        assert deliver.resolution == "unresolved"
        assert deliver.callees == ()


# ----------------------------------------------------------------------
# Taint analysis (SNIC009)
# ----------------------------------------------------------------------

class TestTaint:
    def test_seeded_flow_is_found(self, fixture_graph):
        flows = TaintAnalysis(fixture_graph).run()
        assert len(flows) == 1
        flow = flows[0]
        assert flow.chain[0] == "pipeline.steal_and_forward"
        assert flow.chain[-1] == "pipeline.rx_frame"
        assert flow.source_site.name == "read"
        assert flow.sink_site.name == "deliver"

    def test_mediated_path_is_clean(self, fixture_graph):
        analysis = TaintAnalysis(fixture_graph)
        analysis.run()
        # mediated_forward's only source is behind the os_read stub,
        # which mediates by name even with a stub body.
        assert "pipeline.mediated_forward" not in analysis.taint_witness
        assert analysis._is_mediated_function("pipeline.os_read")

    def test_byname_resolution_never_satisfies_qualname_specs(self):
        # owners.pop() resolves by-name to every analysed pop(),
        # including PacketRing.pop — that must not make it a source.
        site = CallSite(
            caller="m.f", modname="m", name="pop", receiver="owners",
            lineno=1, col=1, node=None,
            callees=("repro.hw.packet_io.PacketRing.pop",),
            resolution="by-name")
        assert all(not spec.matches(site) for spec in SOURCE_SPECS)
        precise = CallSite(
            caller="m.f", modname="m", name="pop", receiver="owners",
            lineno=1, col=1, node=None,
            callees=("repro.hw.packet_io.PacketRing.pop",),
            resolution="import")
        assert any(spec.matches(precise) for spec in SOURCE_SPECS)

    def test_generic_byname_edges_do_not_propagate(self, tmp_path):
        # caller() calls owners.pop(); by-name that aliases the tainted
        # pop() below, but builtin-container names never carry taint.
        (tmp_path / "ringmod.py").write_text(
            "def pop(ring):\n"
            "    return ring.pop()\n"
            "\n"
            "def caller(owners, egress):\n"
            "    owners.pop()\n"
            "    egress.deliver(b'x')\n")
        graph = ProgramGraph.build(load_modules([tmp_path]))
        analysis = TaintAnalysis(graph)
        flows = analysis.run()
        assert "ringmod.pop" in analysis.taint_witness
        assert "ringmod.caller" not in analysis.taint_witness
        assert flows == []

    def test_repo_flows_all_baselined(self, repo_analysis):
        keys = {(f"{fl.chain[0]}->{fl.sink_site.name}"
                 f"<-{fl.chain[-1]}:{fl.source_site.name}")
                for fl in repo_analysis["flows"]}
        baseline = load_baseline(default_baseline_path())
        unlisted = {k for k in keys if ("SNIC009", k) not in baseline}
        assert not unlisted, f"new unmediated flows: {sorted(unlisted)}"


# ----------------------------------------------------------------------
# Escape analysis (SNIC010)
# ----------------------------------------------------------------------

class TestEscape:
    @pytest.fixture(scope="class")
    def infos(self, fixture_graph):
        return {i.qualname: i for i in EscapeAnalysis(fixture_graph).run()}

    def test_cross_module_subscript_store_is_unsafe(self, infos):
        info = infos["state.FLOW_TABLE"]
        assert not info.cell_safe
        assert info.aliases == ["pipeline"]
        assert any("pipeline:" in r and "subscript store" in r
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
        assert "pipeline:steal_and_forward subscript store" in \
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
        graph = ProgramGraph.build(load_modules([tmp_path]))
        (info,) = EscapeAnalysis(graph).run()
        assert info.reasons == [
            "nest:Box.fill.<locals>.inner subscript store"]

    def test_singleton_factory_handle_is_unsafe(self, tmp_path):
        (tmp_path / "single.py").write_text(
            "_TRACER = get_tracer()\n")
        graph = ProgramGraph.build(load_modules([tmp_path]))
        (info,) = EscapeAnalysis(graph).run()
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
        graph = ProgramGraph.build(load_modules([tmp_path]))
        infos = {i.qualname: i for i in EscapeAnalysis(graph).run()}
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
        graph = ProgramGraph.build(load_modules([tmp_path]))
        (info,) = EscapeAnalysis(graph).run()
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
        graph = ProgramGraph.build(load_modules([tmp_path]))
        (info,) = EscapeAnalysis(graph).run()
        assert not info.cell_safe
        assert info.reasons == ["count:bump global rebind of SEEN"]


# ----------------------------------------------------------------------
# Baseline mechanics + repo invariants
# ----------------------------------------------------------------------

class TestBaseline:
    def test_round_trip_silences_exactly_the_written_findings(
            self, tmp_path):
        modules = load_modules([FIXTURE_DIR])
        findings = run_program_rules(modules)
        assert findings and all(not f.baselined for f in findings)
        path = write_baseline(findings, tmp_path / "baseline.json")
        baseline = load_baseline(path)
        assert len(baseline) == len(findings)
        apply_baseline(findings, baseline)
        assert all(f.baselined for f in findings)

    def test_baselined_findings_do_not_count_toward_exit_code(
            self, tmp_path):
        _findings, code = run_dataflow([FIXTURE_DIR])
        assert code == 1
        findings = run_program_rules(load_modules([FIXTURE_DIR]))
        path = write_baseline(findings, tmp_path / "baseline.json")
        _findings, code = run_dataflow([FIXTURE_DIR], baseline_path=path)
        assert code == 0

    def test_load_rejects_wrong_schema(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "nope", "entries": []}))
        with pytest.raises(ValueError):
            load_baseline(bogus)

    def test_repo_runs_clean_against_committed_baseline(self):
        findings, code = run_dataflow(
            baseline_path=default_baseline_path())
        assert code == 0, [
            (f.rule, f.key) for f in findings if f.active]

    def test_committed_baseline_has_no_stale_entries(self):
        findings, _code = run_dataflow()  # no baseline applied
        live = {(f.rule, f.key) for f in findings}
        baseline = load_baseline(default_baseline_path())
        stale = [k for k in baseline if k not in live]
        assert not stale, f"baseline entries no longer fire: {stale}"

    def test_committed_baseline_entries_are_justified(self):
        baseline = load_baseline(default_baseline_path())
        assert baseline
        for (rule, key), justification in baseline.items():
            assert justification and "TODO" not in justification, \
                f"{rule} {key} lacks a real justification"


# ----------------------------------------------------------------------
# Determinism (satellite: byte-identical JSON across runs)
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_fixture_json_is_byte_identical_across_runs(self, capsys):
        from repro.analysis.dataflow.cli import main

        main(["--format", "json", "--no-baseline", str(FIXTURE_DIR)])
        first = capsys.readouterr().out
        main(["--format", "json", "--no-baseline", str(FIXTURE_DIR)])
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["n_active"] == 3

    def test_findings_sorted_by_path_line_rule(self):
        findings = run_program_rules(load_modules([FIXTURE_DIR]))
        keys = [(f.path, f.line, f.col, f.rule) for f in findings]
        assert keys == sorted(keys)
