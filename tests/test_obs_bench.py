"""Tests for repro.obs.bench — the unified benchmark harness.

Covers discovery of ``benchmarks/bench_*.py``, isolated quick runs that
produce schema-versioned ``BENCH_*.json`` artifacts, regression
detection in ``compare``, the ``jsonable`` output sanitizer, and the
``cell_scope`` every experiment front end runs its cells in.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs import bench


class TestDiscovery:
    def test_discovers_the_full_suite(self):
        paths = bench.discover()
        assert len(paths) >= 15
        assert all(p.name.startswith("bench_") for p in paths)
        assert paths == sorted(paths)

    def test_scenario_name_strips_prefix(self):
        (tco,) = [p for p in bench.discover() if p.name == "bench_tco.py"]
        assert bench.scenario_name(tco) == "tco"

    def test_default_bench_dir_is_repo_benchmarks(self):
        d = bench.default_bench_dir()
        assert d.name == "benchmarks"
        assert (d / "_common.py").exists()


class TestCellScope:
    def test_record_is_filled_before_the_trailing_reset(self):
        from repro.obs import metrics

        record = bench.BenchRecord(name="cell")
        with bench.cell_scope(record):
            metrics.get_registry().counter("cell_scope_total").inc()
            raise RuntimeError("boom")
        assert record.status == "error"
        assert "RuntimeError: boom" in record.error
        # The traceback starts at the body, not at the scope's frame.
        assert "test_obs_bench.py" in record.error.splitlines()[1]
        assert record.metrics_instruments == 1

    def test_metrics_instruments_counts_the_pair_series(self):
        from repro.obs import metrics
        from repro.obs.interference import get_accountant

        record = bench.BenchRecord(name="cell")
        with bench.cell_scope(record):
            metrics.get_registry().counter("cell_scope_total").inc()
            accountant = get_accountant()
            accountant.blame("bus", victim=1, culprit=2, wait_ns=3.0)
            accountant.blame("bus", victim=1, culprit=2, wait_ns=1.0)
            accountant.blame_each("dram", 2, [(1, 2.0), (2, 0.5)])
            assert len(metrics.get_registry()) == 1
        # One counter plus a wait and an events series per blamed pair.
        assert record.metrics_instruments == 1 + 2 * 3
        assert len(metrics.get_registry()) == 0

    def test_forensic_scope_bundles_and_reraises(self, tmp_path):
        from repro.obs import auditlog

        path = tmp_path / "POSTMORTEM_cell.json"
        with pytest.raises(RuntimeError):
            with bench.cell_scope(bundle=str(path)):
                assert auditlog.get_audit_log().enabled
                raise RuntimeError("boom")
        reason = json.loads(path.read_text())["reason"]
        assert reason == {"kind": "RuntimeError", "message": "boom"}
        assert not auditlog.get_audit_log().enabled

    def test_forensic_scope_bundles_a_success_only_with_a_note(
            self, tmp_path):
        quiet, noted = tmp_path / "quiet.json", tmp_path / "noted.json"
        with bench.cell_scope(bundle=str(quiet)):
            pass
        with bench.cell_scope(bundle=str(noted),
                              note={"kind": "FaultInjected",
                                    "message": "m"}):
            pass
        assert not quiet.exists()
        assert json.loads(noted.read_text())["reason"] == {
            "kind": "FaultInjected", "message": "m"}


class TestRunScenario:
    def test_quick_run_records_telemetry(self):
        (path,) = [p for p in bench.discover()
                   if bench.scenario_name(p) == "snic_lifecycle"]
        record = bench.run_scenario(path, quick=True)
        assert record.status == "ok"
        assert record.wall_s > 0
        assert record.outputs  # key model outputs captured
        assert record.error is None

    def test_event_driven_scenario_reports_sim_time(self):
        (path,) = [p for p in bench.discover()
                   if bench.scenario_name(p) == "fig5b_cotenancy"]
        record = bench.run_scenario(path, quick=True)
        assert record.status == "ok"
        assert record.sim_time_ns > 0
        assert record.events_executed > 0

    def test_crashing_scenario_is_contained(self, tmp_path):
        bad = tmp_path / "bench_boom.py"
        bad.write_text("def run(quick=False):\n"
                       "    print('about to explode')\n"
                       "    raise RuntimeError('boom')\n")
        record = bench.run_scenario(bad, quick=True)
        assert record.status == "error"
        assert "boom" in record.error
        assert "about to explode" in record.error  # stdout tail kept

    def test_script_without_entry_point_is_skipped(self, tmp_path):
        lazy = tmp_path / "bench_lazy.py"
        lazy.write_text("X = 1\n")
        record = bench.run_scenario(lazy, quick=True)
        assert record.status == "skipped"
        assert "run(quick)" in record.error


class TestArtifact:
    @pytest.fixture(scope="class")
    def artifact(self):
        # One real (subset) harness run shared across the class's tests.
        return bench.run_benchmarks(
            quick=True, only=["tco", "table7", "table8", "fig6"])

    def test_schema_header(self, artifact):
        assert artifact["schema"] == "repro.bench"
        assert artifact["schema_version"] == 1
        assert artifact["quick"] is True
        assert artifact["n_benchmarks"] == 4
        assert artifact["n_error"] == 0
        assert artifact["total_wall_s"] > 0

    def test_per_benchmark_telemetry(self, artifact):
        rec = artifact["benchmarks"]["tco"]
        assert rec["status"] == "ok"
        assert rec["wall_s"] > 0
        assert set(rec) >= {"sim_time_ns", "events_executed",
                            "trace_events", "metrics_instruments",
                            "outputs"}
        assert rec["outputs"]["snic_tco_per_core"] == pytest.approx(
            42.53, abs=0.05)

    def test_write_and_load_round_trip(self, artifact, tmp_path):
        path = bench.write_artifact(artifact, tmp_path / "BENCH_x.json")
        loaded = bench.load_artifact(path)
        assert loaded == json.loads(json.dumps(artifact))

    def test_artifact_path_lands_at_repo_root(self, tmp_path):
        p = bench.artifact_path(timestamp="20260101_000000")
        assert p.name == "BENCH_20260101_000000.json"
        assert p.parent == bench.default_bench_dir().parent
        assert bench.artifact_path(tmp_path, "x").parent == tmp_path

    def test_load_rejects_foreign_schema(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text(json.dumps({"schema": "something.else"}))
        with pytest.raises(ValueError, match="not a repro.bench"):
            bench.load_artifact(p)

    def test_load_rejects_newer_schema_version(self, tmp_path):
        p = tmp_path / "future.json"
        p.write_text(json.dumps({"schema": "repro.bench",
                                 "schema_version": 99}))
        with pytest.raises(ValueError, match="newer"):
            bench.load_artifact(p)


class TestCompare:
    @pytest.fixture()
    def artifacts(self):
        base = bench.run_benchmarks(quick=True, only=["tco", "table8"])
        cand = copy.deepcopy(base)
        return base, cand

    def test_identical_runs_have_no_regressions(self, artifacts):
        base, cand = artifacts
        report = bench.compare(base, cand)
        assert report["n_regressions"] == 0
        assert report["n_compared"] == 2
        assert not report["quick_mismatch"]

    def test_injected_slowdown_is_flagged(self, artifacts):
        base, cand = artifacts
        # Inject a 25% wall-time slowdown: beyond the 20% threshold.
        cand["benchmarks"]["table8_mur"]["wall_s"] *= 1.25
        report = bench.compare(base, cand)
        assert report["regressions"] == ["table8_mur"]
        (row,) = [r for r in report["rows"] if r["name"] == "table8_mur"]
        assert row["regressed"] and not row["model_drift"]
        assert row["wall_delta_pct"] == pytest.approx(25.0)
        assert "REGRESSION" in bench.format_compare(report)

    def test_threshold_is_configurable(self, artifacts):
        base, cand = artifacts
        cand["benchmarks"]["tco"]["wall_s"] *= 1.25
        assert bench.compare(base, cand, threshold=0.30)["n_regressions"] == 0
        assert bench.compare(base, cand, threshold=0.10)["n_regressions"] == 1

    def test_model_drift_detected(self, artifacts):
        base, cand = artifacts
        cand["benchmarks"]["tco"]["events_executed"] += 7
        report = bench.compare(base, cand)
        (row,) = [r for r in report["rows"] if r["name"] == "tco"]
        assert row["model_drift"]

    def test_added_and_removed_scenarios(self, artifacts):
        base, cand = artifacts
        cand["benchmarks"]["brand_new"] = cand["benchmarks"]["tco"].copy()
        del cand["benchmarks"]["table8_mur"]
        report = bench.compare(base, cand)
        status = {r["name"]: r["status"] for r in report["rows"]}
        assert status["brand_new"] == "added"
        assert status["table8_mur"] == "removed"

    def test_compare_paths_round_trip(self, artifacts, tmp_path):
        base, cand = artifacts
        cand["benchmarks"]["tco"]["wall_s"] *= 1.5
        pa = bench.write_artifact(base, tmp_path / "BENCH_a.json")
        pb = bench.write_artifact(cand, tmp_path / "BENCH_b.json")
        report = bench.compare_paths(pa, pb)
        assert report["regressions"] == ["tco"]


class TestJsonable:
    def test_passthrough_scalars(self):
        assert bench.jsonable({"a": 1, "b": 2.5, "c": "x", "d": None,
                               "e": True}) == {
            "a": 1, "b": 2.5, "c": "x", "d": None, "e": True}

    def test_tuples_and_sets_become_lists(self):
        assert bench.jsonable((1, 2)) == [1, 2]
        assert bench.jsonable({3}) == [3]

    def test_non_string_keys_are_stringified(self):
        assert bench.jsonable({1: "one"}) == {"1": "one"}

    def test_nan_and_inf_survive_as_repr(self):
        out = bench.jsonable({"nan": float("nan"), "inf": float("inf")})
        json.dumps(out)  # must be serializable
        assert out["nan"] == "nan"
        assert out["inf"] == "inf"

    def test_numpy_like_item_scalars(self):
        class FakeScalar:
            def item(self):
                return 3.25

        assert bench.jsonable(FakeScalar()) == 3.25

    def test_opaque_objects_become_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert bench.jsonable(Opaque()) == "<opaque>"
        json.dumps(bench.jsonable({"o": Opaque()}))
