"""The repro.shard pool: whole experiment cells dealt to worker
processes.

The headline contract under test: ``--shards N`` never reaches a
report.  A worker runs whole cells through the same code an in-process
sweep uses, so a sweep dealt to any number of workers equals the sweep
run here, byte for byte — commodity cross-tenant interference
included.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.obs.scorecard import run_scorecard
from repro.scenario.matrix import load_spec, run_matrix
from repro.scenario.spec import ScenarioSpec, SpecError
from repro.shard.engine import ShardError, run_partitions

EXAMPLES = Path(__file__).parent.parent / "examples"


def _fail_on_one(index: int) -> int:
    if index == 1:
        raise ValueError("partition one fails")
    return index


def _render(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


# ----------------------------------------------------------------------
# The engine: results in call order, worker-count invariance
# ----------------------------------------------------------------------

class TestEngineInvariance:
    def test_cell_record_is_byte_identical_across_worker_counts(self):
        only = ["commodityx2t-bus_babble"]
        rendered = [_render(run_matrix(quick=True, only=only, shards=n))
                    for n in (None, 1, 4)]
        assert rendered[0] == rendered[1] == rendered[2]
        report = json.loads(rendered[0])
        assert report["n_cells"] == 2 and report["n_error"] == 0

    def test_slo_report_is_byte_identical_across_worker_counts(self):
        rendered = [
            _render(run_scorecard(n_tenants=4, seed=7, quick=True,
                                  arbiters=("fcfs", "temporal"),
                                  workers=n))
            for n in (None, 1, 3)
        ]
        assert rendered[0] == rendered[1] == rendered[2]
        report = json.loads(rendered[0])
        assert list(report["arbiters"]) == ["fcfs", "temporal"]
        block = report["arbiters"]["fcfs"]
        assert [row["tenant"] for row in block["tenants"]] \
            == ["t001", "t002", "t003", "t004"]
        assert block["audit"]["chain_ok"] is True

    def test_results_come_back_in_call_order(self):
        assert run_partitions(pow, [(2, 3), (3, 2), (5, 1)],
                              workers=2) == [8, 9, 5]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_partition_raising_in_its_worker_is_a_shard_error(
            self, workers):
        with pytest.raises(ShardError, match="partition 1 failed"):
            run_partitions(_fail_on_one, [(0,), (1,), (2,)],
                           workers=workers)

    def test_dead_worker_is_a_shard_error(self):
        with pytest.raises(ShardError, match="worker died"):
            run_partitions(os._exit, [(3,)], workers=1)

    def test_checker_asserts_shard_invariance(self):
        from repro.analysis.determinism import check_shard_invariance

        report = check_shard_invariance(worker_counts=(1, 2))
        assert len(report.digests) == 3
        assert report.deterministic, report.render()


# ----------------------------------------------------------------------
# One model: workers keep the interference a sweep measures
# ----------------------------------------------------------------------

class TestSameModel:
    def test_matrix_sweep_at_two_shards_equals_unsharded(self):
        unsharded = run_matrix(quick=True, only=["commodityx2t"])
        assert run_matrix(quick=True, only=["commodityx2t"],
                          shards=2) == unsharded
        # The point of one model: commodity sharing still shows its
        # cross-tenant wait under --shards.
        waits = [entry["record"]["outputs"]["cross_tenant_wait_ns"]
                 for entry in unsharded["cells"].values()]
        assert len(waits) == 4 and all(wait > 0 for wait in waits)

    def test_scorecard_at_two_workers_equals_unsharded(self):
        unsharded = run_scorecard(n_tenants=16, seed=7, quick=True)
        assert run_scorecard(n_tenants=16, seed=7, quick=True,
                             workers=2) == unsharded
        assert "sharded" not in unsharded


# ----------------------------------------------------------------------
# YAML spec loading (--spec file.yaml)
# ----------------------------------------------------------------------

class TestYamlSpecs:
    def test_yaml_and_json_paths_load_identical_specs(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        json_path = EXAMPLES / "slo_scenario.json"
        spec = load_spec(str(json_path))
        yaml_path = tmp_path / "spec.yaml"
        yaml_path.write_text(yaml.safe_dump(
            json.loads(json_path.read_text())))
        assert load_spec(str(yaml_path)) == spec

    def test_shard_block_is_an_unknown_field(self, tmp_path):
        pytest.importorskip("yaml")
        spec = load_spec(str(EXAMPLES / "shard_scenario.yaml"))
        data = dict(spec.to_dict(), shard={"partitions": 2})
        with pytest.raises(SpecError,
                           match=r"unknown ScenarioSpec fields: \['shard'\]"):
            ScenarioSpec.from_dict(data)

    def test_non_mapping_yaml_is_rejected(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "list.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ValueError):
            load_spec(str(path))
