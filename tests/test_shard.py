"""The repro.shard subsystem: partition plan, serialized payload, and
the worker-count-invariant engine.

The headline contract under test: for a fixed seed, a sharded run's
merged report is byte-identical for ANY worker count — the partition
plan is a pure function of the spec, the engine only schedules it.
The differential test states what partitioning changes: it drops
cross-partition contention.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.obs.scorecard import make_scorecard_spec, run_scorecard
from repro.scenario.matrix import cell_spec, default_axes, expand, load_spec
from repro.scenario.spec import ScenarioSpec, ShardSpec, SpecError
from repro.shard.engine import run_cell_sharded, run_partitions
from repro.shard.frames import (
    ShardError,
    registry_from_frame,
    registry_to_frame,
)
from repro.shard.partition import effective_partitions, partition_specs

EXAMPLES = Path(__file__).parent.parent / "examples"


def quick_cell(index: int = 0):
    return expand(default_axes(quick=True), base_seed=7, reps=1)[index]


def _fail_on_one(index: int) -> int:
    if index == 1:
        raise ValueError("partition one fails")
    return index


# ----------------------------------------------------------------------
# ShardSpec schema
# ----------------------------------------------------------------------

class TestShardSpec:
    def test_defaults(self):
        assert ShardSpec().partitions == 4

    @pytest.mark.parametrize("kwargs", [
        {"partitions": 0},
        {"partitions": -1},
        {"partitions": True},
        {"partitions": 2.0},
        {"partitions": "2"},
        {"partitions": None},
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(SpecError):
            ShardSpec(**kwargs)

    def test_round_trip(self):
        shard = ShardSpec(partitions=8)
        assert ShardSpec.from_dict(shard.to_dict()) == shard

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError):
            ShardSpec.from_dict({"partitions": 2, "workers": 4})

    def test_scenario_spec_round_trips_shard_block(self):
        spec = cell_spec(quick_cell(), quick=True)
        sharded = dataclasses.replace(spec, shard=ShardSpec(partitions=2))
        again = ScenarioSpec.from_dict(sharded.to_dict())
        assert again.shard == sharded.shard
        # Absent block stays absent.
        assert ScenarioSpec.from_dict(spec.to_dict()).shard is None


# ----------------------------------------------------------------------
# The partition plan
# ----------------------------------------------------------------------

class TestPartitionPlan:
    def test_partition_count_clamps_to_tenants(self):
        spec = cell_spec(quick_cell(), quick=True)  # 2 tenants
        assert effective_partitions(spec) == 2
        assert effective_partitions(
            dataclasses.replace(spec, shard=ShardSpec(partitions=1))) == 1

    def test_chunks_are_contiguous_in_spec_order(self):
        spec = cell_spec(quick_cell(1), quick=True)
        parts = partition_specs(spec)
        flattened = [t.name for p in parts for t in p.tenants]
        assert flattened == [t.name for t in spec.tenants]

    def test_packet_shares_sum_exactly(self):
        spec = cell_spec(quick_cell(1), quick=True)
        parts = partition_specs(spec)
        assert sum(p.traffic.n_packets for p in parts) \
            == spec.traffic.n_packets

    def test_partition_seeds_are_distinct_and_deterministic(self):
        spec = cell_spec(quick_cell(), quick=True)
        seeds = [p.seed for p in partition_specs(spec)]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [p.seed for p in partition_specs(spec)]

    def test_fault_lands_only_on_its_targets_chunk(self):
        spec = cell_spec(quick_cell(), quick=True)
        assert spec.fault is not None
        target = spec.fault.tenant or spec.tenants[-1].name
        parts = partition_specs(spec)
        with_fault = [p for p in parts if p.fault is not None]
        assert len(with_fault) == 1
        assert target in {t.name for t in with_fault[0].tenants}

    def test_plan_never_depends_on_worker_count(self):
        # There is no worker-count input to take: the plan is a pure
        # function of the spec, which is the invariance argument.
        spec = cell_spec(quick_cell(), quick=True)
        a = [p.to_dict() for p in partition_specs(spec)]
        b = [p.to_dict() for p in partition_specs(spec)]
        assert a == b

    def test_partitions_validate_as_specs(self):
        spec = cell_spec(quick_cell(1), quick=True)
        for part in partition_specs(spec):
            ScenarioSpec.from_dict(part.to_dict())  # re-validates
            assert part.shard is None  # no recursive decomposition


# ----------------------------------------------------------------------
# Frames: everything crossing the boundary is plain data
# ----------------------------------------------------------------------

class TestFrames:
    def test_registry_round_trip_preserves_instruments(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("pkts_total", tenant="t1").inc(3)
        registry.gauge("depth", tenant="t1").set(9)
        hist = registry.histogram("lat_ns", tenant="t1")
        for value in (10.0, 200.0, 3000.0):
            hist.observe(value)
        again = registry_from_frame(registry_to_frame(registry))
        assert again.snapshot() == registry.snapshot()


# ----------------------------------------------------------------------
# The engine: worker-count invariance, end to end
# ----------------------------------------------------------------------

class TestEngineInvariance:
    def test_cell_record_is_byte_identical_across_worker_counts(self):
        cell = quick_cell()
        rendered = [
            json.dumps(run_cell_sharded(cell, quick=True,
                                        workers=n).as_dict(),
                       sort_keys=True)
            for n in (1, 2, 4)
        ]
        assert rendered[0] == rendered[1] == rendered[2]
        record = json.loads(rendered[0])
        assert record["status"] == "ok"
        assert record["outputs"]["packets_completed"] > 0

    def test_slo_report_is_byte_identical_across_worker_counts(self):
        rendered = [
            json.dumps(run_scorecard(
                n_tenants=4, seed=7, quick=True, arbiters=("fcfs",),
                workers=n), sort_keys=True)
            for n in (1, 3)
        ]
        assert rendered[0] == rendered[1]
        report = json.loads(rendered[0])
        assert report["sharded"] == {"partitions": 4}
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
        assert report.deterministic, report.render()


# ----------------------------------------------------------------------
# What partitioning changes: cross-partition contention is dropped
# ----------------------------------------------------------------------

def _cross_tenant_waits(spec: ScenarioSpec) -> dict:
    """``{(victim, culprit): wait_ns}`` by tenant name, over every
    resource, for one in-process run of ``spec``."""
    from repro.obs.bench import _isolate
    from repro.obs.interference import blame_matrix
    from repro.obs.metrics import get_registry
    from repro.scenario.build import build_scenario

    _isolate()
    try:
        with build_scenario(spec) as built:
            built.drive(quick=True)
            names = {str(nf_id): name
                     for name, nf_id in built.tenants.items()}
            matrix = blame_matrix(get_registry())
    finally:
        _isolate()
    waits: dict = {}
    for cells in matrix.values():
        for (victim, culprit), cell in cells.items():
            if victim != culprit and cell["wait_ns"]:
                pair = (names[victim], names[culprit])
                waits[pair] = waits.get(pair, 0.0) + cell["wait_ns"]
    return waits


def _split_by_partition(arbiter: str):
    """Monolithic and partitioned pair waits for the 16-tenant quick
    scorecard cell, and the partition each tenant lands in."""
    spec = make_scorecard_spec(arbiter, 16, 7, quick=True)
    parts = partition_specs(spec)
    assert len(parts) == 4
    home = {t.name: i for i, part in enumerate(parts) for t in part.tenants}
    partitioned: dict = {}
    for part in parts:
        partitioned.update(_cross_tenant_waits(part))
    return _cross_tenant_waits(spec), partitioned, home


class TestPartitioningDropsCrossPartitionContention:
    def test_temporal_owes_zero_cross_tenant_wait_either_way(self):
        monolithic, partitioned, _ = _split_by_partition("temporal")
        assert monolithic == {}
        assert partitioned == {}

    def test_fcfs_interference_across_partitions_disappears(self):
        monolithic, partitioned, home = _split_by_partition("fcfs")
        across = {pair: wait for pair, wait in monolithic.items()
                  if home[pair[0]] != home[pair[1]]}
        assert len(across) == 99
        assert sum(across.values()) == 289_312.0
        assert partitioned, "fcfs still interferes inside a partition"
        assert all(home[victim] == home[culprit]
                   for victim, culprit in partitioned)


# ----------------------------------------------------------------------
# YAML spec loading (satellite: --spec file.yaml)
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

    def test_example_yaml_spec_carries_shard_block(self):
        pytest.importorskip("yaml")
        spec = load_spec(str(EXAMPLES / "shard_scenario.yaml"))
        assert spec.shard == ShardSpec(partitions=2)
        assert effective_partitions(spec) == 2

    def test_non_mapping_yaml_is_rejected(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "list.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ValueError):
            load_spec(str(path))
