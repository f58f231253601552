"""The matrix sweep runner: cells, isolation, determinism, rendering."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.hw import events as hw_events
from repro.obs import metrics, tracer
from repro.scenario.matrix import (
    MatrixCell,
    cell_spec,
    default_axes,
    expand,
    format_csv,
    format_json,
    format_text,
    load_spec,
    run_cell,
    run_matrix,
    run_specs,
)
from repro.scenario.matrix import main as matrix_main


def one_cell(**overrides) -> MatrixCell:
    fields = dict(nic_model="commodity", tenant_count=2,
                  fault_class="bus_babble", arbiter="fcfs", seed=101)
    fields.update(overrides)
    return MatrixCell(**fields)


class TestExpansion:
    def test_quick_axes_cover_the_acceptance_floor(self):
        axes = default_axes(quick=True)
        assert len(axes["nic_model"]) >= 2
        assert len(axes["tenant_count"]) >= 2
        assert len(axes["fault_class"]) >= 2
        assert len(axes["arbiter"]) >= 2

    def test_expand_is_the_full_product(self):
        axes = default_axes(quick=True)
        cells = expand(axes, base_seed=7)
        assert len(cells) == 16
        assert len({c.name for c in cells}) == 16

    def test_cell_seeds_derive_from_base(self):
        axes = default_axes(quick=True)
        a = expand(axes, base_seed=7)
        b = expand(axes, base_seed=7)
        c = expand(axes, base_seed=8)
        assert [x.seed for x in a] == [x.seed for x in b]
        assert [x.seed for x in a] != [x.seed for x in c]

    def test_reps_multiply_cells_with_distinct_seeds(self):
        axes = default_axes(quick=True)
        cells = expand(axes, base_seed=7, reps=2)
        assert len(cells) == 32
        assert len({c.seed for c in cells}) == 32

    def test_cell_spec_matches_the_cell(self):
        cell = one_cell(nic_model="snic", tenant_count=4, arbiter="drr")
        spec = cell_spec(cell, quick=True)
        assert spec.seed == cell.seed
        assert spec.topology.nic_model == "snic"
        assert spec.topology.arbiter.policy == "drr"
        assert len(spec.tenants) == 4
        assert spec.fault is not None
        assert spec.fault.kind == "bus_babble"
        none_spec = cell_spec(one_cell(fault_class="none"), quick=True)
        assert none_spec.fault is None


class TestCellIsolation:
    def test_run_cell_leaves_no_global_state(self):
        record = run_cell(one_cell(), quick=True)
        assert record.status == "ok"
        assert len(metrics.get_registry()) == 0
        stats = hw_events.kernel_stats()
        assert stats["events_executed"] == 0
        assert stats["sim_ns_advanced"] == 0
        t = tracer.get_tracer()
        assert not t.enabled and not t.events

    def test_record_reuses_the_bench_schema(self):
        record = run_cell(one_cell(), quick=True)
        data = asdict(record)
        for key in ("name", "status", "wall_s", "sim_time_ns",
                    "events_executed", "trace_events",
                    "metrics_instruments", "histograms", "outputs",
                    "error"):
            assert key in data
        assert data["wall_s"] == 0.0  # no wall clock in matrix records
        assert data["outputs"]["packets_completed"] > 0

    def test_cells_do_not_observe_each_other(self):
        first = run_cell(one_cell(), quick=True)
        second = run_cell(one_cell(), quick=True)
        assert asdict(first) == asdict(second)


class TestDeterminism:
    def test_same_seed_reports_are_identical(self):
        kwargs = dict(quick=True, only=["commodityx2t"], seed=7)
        a = run_matrix(**kwargs)
        b = run_matrix(**kwargs)
        assert format_json(a) == format_json(b)
        assert format_csv(a) == format_csv(b)
        assert format_text(a) == format_text(b)

    def test_different_seed_reports_differ(self):
        a = run_matrix(quick=True, only=["commodityx2t-bus"], seed=7)
        b = run_matrix(quick=True, only=["commodityx2t-bus"], seed=8)
        assert format_json(a) != format_json(b)


class TestReport:
    def test_report_schema_and_filtering(self):
        report = run_matrix(quick=True, only=["snicx2t"], seed=7)
        assert report["schema"] == "repro.matrix"
        assert report["schema_version"] == 1
        assert report["record_schema"] == "repro.bench"
        assert report["n_cells"] == 4  # snic x 2t x 2 faults x 2 arbiters
        assert report["n_cells"] == report["n_ok"] + report["n_error"]
        assert report["n_error"] == 0
        for name, entry in report["cells"].items():
            assert entry["cell"]["nic_model"] == "snic"
            assert entry["record"]["name"] == name

    def test_summary_groups_by_model_and_arbiter(self):
        report = run_matrix(quick=True, only=["x2t"], seed=7)
        keys = {(r["nic_model"], r["arbiter"]) for r in report["summary"]}
        assert keys == {("commodity", "fcfs"), ("commodity", "temporal"),
                        ("snic", "fcfs"), ("snic", "temporal")}

    def test_json_round_trips(self):
        report = run_matrix(quick=True, only=["snicx2t-bus"], seed=7)
        assert json.loads(format_json(report))["n_cells"] == 2

    def test_csv_has_one_row_per_cell(self):
        report = run_matrix(quick=True, only=["snicx2t"], seed=7)
        lines = format_csv(report).strip().splitlines()
        assert len(lines) == 1 + report["n_cells"]
        assert lines[0].startswith("name,nic_model,tenant_count")


class TestSpecFiles:
    def test_load_spec_validates_the_example_file(self):
        spec = load_spec("examples/slo_scenario.json")
        assert spec.name == "example-two-tenant-slo"
        assert spec.tenants[0].slo is not None

    def test_run_specs_report_schema(self):
        spec = load_spec("examples/slo_scenario.json")
        report = run_specs([spec], quick=True)
        assert report["mode"] == "spec"
        assert report["axes"] == {"spec": [spec.name]}
        assert report["n_cells"] == 1 and report["n_error"] == 0
        entry = report["cells"][spec.name]
        assert entry["record"]["name"] == spec.name
        assert entry["cell"]["arbiter"] == spec.topology.arbiter.policy
        assert entry["cell"]["tenant_count"] == len(spec.tenants)

    def test_run_cell_spec_override_names_record_after_spec(self):
        spec = load_spec("examples/slo_scenario.json")
        record = run_cell(one_cell(), quick=True, spec=spec)
        assert record.name == spec.name
        assert record.status == "ok"

    def test_cli_spec_flag(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = matrix_main(["--spec", "examples/slo_scenario.json",
                            "--quick", "--format", "json",
                            "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["mode"] == "spec" and report["n_error"] == 0
        capsys.readouterr()

    def test_cli_rejects_bad_spec_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        assert matrix_main(["--spec", str(bad), "--quick"]) == 2
        assert "bad --spec file" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, path", [
        ({"tenants": ["oops"]}, "tenants.0"),
        ({"topology": 5}, "topology"),
        ({"topology": {"arbiter": {"polcy": "fcfs"}}}, "topology.arbiter"),
    ])
    def test_cli_names_the_bad_spec_path(self, tmp_path, capsys,
                                         extra, path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict({"name": "x", "seed": 1}, **extra)))
        assert matrix_main(["--spec", str(bad), "--quick"]) == 2
        err = capsys.readouterr().err
        assert f"error: bad --spec file {bad}: {path}: " in err
        assert "Traceback" not in err
