"""Wake-on-arrival polling is pinned to the always-on poll loop.

``tests/fixtures/runtime_timings.json`` holds per-packet
``(nf_id, arrival_ns, departure_ns)`` lists recorded with the runtime
that re-armed every function's poll every ``poll_interval_ns`` whether
or not its ring held frames.  The woken runtime must reproduce every
packet's timeline exactly while doing kernel work proportional to
packets rather than to tenants × horizon.

Lists are compared sorted.  Completions of *different* functions at
the same instant used to interleave in attach order and now interleave
in wake order; each function's own completion order, and every report
built from the timings, is unchanged.

A sharded run is checked against an oracle rather than a fixture: its
merged result must equal the same partitions run one by one in this
process.

Regenerate the fixture (only when the timing model itself changes) with::

    PYTHONPATH=src python tests/test_runtime_equivalence.py --write
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

import pytest

from repro.hw import events as hw_events
from repro.scenario.build import BuiltScenario, build_scenario
from repro.scenario.spec import (
    NFSpec,
    ScenarioSpec,
    ShardSpec,
    TenantSpec,
    TopologySpec,
    TrafficSpec,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "runtime_timings.json")

Timings = List[List[int]]


def _monitors(n: int) -> tuple:
    return tuple(
        TenantSpec(name=f"t{i:03d}", nf=NFSpec(kind="monitor"),
                   dst_prefix=f"10.{1 + i // 200}.{i % 200}.0/24",
                   memory_mb=1)
        for i in range(n))


def sparse_spec() -> ScenarioSpec:
    """Many tenants, sparse Zipf arrivals, every arrival on a grid point."""
    return ScenarioSpec(
        name="eq-sparse-zipf", seed=41,
        topology=TopologySpec(nic_model="snic", n_cores=48, dram_mb=160,
                              l2_ways=56),
        tenants=_monitors(48),
        traffic=TrafficSpec(n_packets=192, payload_bytes=64,
                            arrival_period_ns=10_000, pattern="zipf",
                            zipf_skew=1.1))


def offgrid_spec() -> ScenarioSpec:
    """Zipf arrivals 3 us apart: a grid tie on every other packet."""
    return ScenarioSpec(
        name="eq-offgrid-zipf", seed=43,
        topology=TopologySpec(nic_model="snic", n_cores=16, dram_mb=96,
                              l2_ways=24),
        tenants=_monitors(16),
        traffic=TrafficSpec(n_packets=160, payload_bytes=64,
                            arrival_period_ns=3_000, pattern="zipf",
                            zipf_skew=0.8))


def dense_spec() -> ScenarioSpec:
    """Six busy tenants, one per NF kind, round-robin back to back."""
    kinds = (("dpi", {"patterns": 50}), ("firewall", {"rules": 64}),
             ("lpm", {"routes": 32}), ("nat", {}), ("lb", {"backends": 4}),
             ("monitor", {}))
    return ScenarioSpec(
        name="eq-dense-rr", seed=47,
        topology=TopologySpec(nic_model="snic", n_cores=6, dram_mb=64),
        tenants=tuple(
            TenantSpec(name=kind, nf=NFSpec(kind=kind, params=params),
                       dst_prefix=f"{20 + i}.0.0.0/8")
            for i, (kind, params) in enumerate(kinds)),
        traffic=TrafficSpec(n_packets=600, payload_bytes=128,
                            arrival_period_ns=150, pattern="round_robin"))


def burst_spec(n_packets: int = 36) -> ScenarioSpec:
    """One monitor, ``n_packets`` arrivals inside one poll interval."""
    return ScenarioSpec(
        name=f"eq-burst-{n_packets}", seed=53,
        topology=TopologySpec(nic_model="snic", n_cores=2, dram_mb=64),
        tenants=_monitors(1),
        traffic=TrafficSpec(n_packets=n_packets, payload_bytes=64,
                            arrival_period_ns=50, pattern="round_robin"))


def _timings(runtime) -> Timings:
    return [[t.nf_id, t.arrival_ns, t.departure_ns]
            for t in runtime.stats.timings]


def run_monolithic(spec: ScenarioSpec) -> Timings:
    with build_scenario(spec) as built:
        built.runtime.inject(built.make_packets())
        built.runtime.run()
        return _timings(built.runtime)


def run_chaos_crash(seed: int = 7, rounds: int = 16) -> Timings:
    """The chaos NF_CRASH S-NIC cell, faulted, with every tenant's
    timings (the report itself only keeps the victim's)."""
    from repro.faults import chaos

    seen: List[Timings] = []
    original = BuiltScenario.clean_up

    def clean_up(self) -> None:
        seen.append(_timings(self.runtime))
        original(self)

    BuiltScenario.clean_up = clean_up
    try:
        chaos._nf_crash_workload(True, True, seed, rounds)
    finally:
        BuiltScenario.clean_up = original
    return seen[0]


CASES = {
    "sparse_zipf": lambda: run_monolithic(sparse_spec()),
    "offgrid_zipf": lambda: run_monolithic(offgrid_spec()),
    "dense_round_robin": lambda: run_monolithic(dense_spec()),
    "burst_36": lambda: run_monolithic(burst_spec(36)),
    "chaos_nf_crash": run_chaos_crash,
}


def sharded_cell_spec() -> ScenarioSpec:
    """Eight monitors in two partitions, Zipf arrivals 400 ns apart."""
    return ScenarioSpec(
        name="eq-sharded", seed=59,
        topology=TopologySpec(nic_model="snic", n_cores=8, dram_mb=96),
        tenants=_monitors(8),
        traffic=TrafficSpec(n_packets=600, payload_bytes=64,
                            arrival_period_ns=400, pattern="zipf",
                            zipf_skew=0.6),
        shard=ShardSpec(partitions=2))


def sparse_slo_spec() -> ScenarioSpec:
    """The fcfs scorecard cell at 16 tenants, arrivals 13 us apart, in
    two partitions: each partition's kernel idles between arrivals."""
    from dataclasses import replace

    from repro.obs.scorecard import make_scorecard_spec

    spec = make_scorecard_spec("fcfs", 16, 7, quick=True)
    return replace(spec,
                   traffic=replace(spec.traffic, arrival_period_ns=13_000),
                   shard=ShardSpec(partitions=2))


def cell_in_process(spec: ScenarioSpec) -> Dict[str, object]:
    """``spec``'s partitions built and driven here one by one, their
    outputs combined: sums, the union of per-tenant counts, partition
    0's victim, percentiles over every partition's latencies."""
    from repro.core.runtime import rank_percentile
    from repro.obs.bench import _isolate
    from repro.shard.partition import partition_specs

    outputs = []
    latencies: List[int] = []
    for part in partition_specs(spec):
        _isolate()
        with build_scenario(part) as built:
            outputs.append(built.drive(quick=True))
            latencies.extend(
                t.latency_ns for t in built.runtime.stats.timings)
    _isolate()
    latencies.sort()
    merged = dict(outputs[0])
    for key in ("packets_completed", "packets_dropped",
                "dma_retries_exhausted", "cross_tenant_wait_ns",
                "faults_injected"):
        merged[key] = sum(out[key] for out in outputs)
    merged.update({
        "scenario": spec.name,
        "seed": spec.seed,
        "tenant_count": len(spec.tenants),
        "latency_p50_ns": rank_percentile(latencies, 50),
        "latency_p99_ns": rank_percentile(latencies, 99),
        "per_tenant_completed": {
            name: count for out in outputs
            for name, count in out["per_tenant_completed"].items()},
    })
    return merged


def slo_in_process(spec: ScenarioSpec) -> Dict[str, object]:
    """``spec``'s SLO partitions run here one by one, their blocks
    combined: rows and alerts concatenated, tallies summed."""
    from repro.obs.scorecard import DEFAULT_WINDOW_NS, run_spec
    from repro.shard.partition import partition_specs

    parts = partition_specs(spec)
    blocks = [run_spec(part, quick=True, window_ns=DEFAULT_WINDOW_NS)
              for part in parts]
    merged: Dict[str, object] = {
        "spec": spec.name,
        "arbiter": spec.topology.arbiter.policy,
        "n_tenants": len(spec.tenants),
        "partitions": len(parts),
        "tenants": [row for b in blocks for row in b["tenants"]],
        "alerts": [alert for b in blocks for alert in b["alerts"]],
        "audit": {"records": sum(b["audit"]["records"] for b in blocks),
                  "chain_ok": all(b["audit"]["chain_ok"]
                                  for b in blocks)},
    }
    for key in ("windows", "packets_completed", "packets_dropped",
                "cross_tenant_wait_ns", "n_pass", "n_fail"):
        merged[key] = sum(b[key] for b in blocks)
    return merged


def sharded_cell(workers: int) -> Dict[str, object]:
    from repro.shard.engine import run_cell_sharded

    record = run_cell_sharded(None, quick=True, workers=workers,
                              spec=sharded_cell_spec())
    assert record.status == "ok", record.error
    return record.outputs


def sharded_slo(workers: int) -> Dict[str, object]:
    from repro.obs.scorecard import DEFAULT_WINDOW_NS
    from repro.shard.engine import run_spec_sharded

    return run_spec_sharded(sparse_slo_spec(), quick=True, sanitize=False,
                            window_ns=DEFAULT_WINDOW_NS, workers=workers)


#: Sharded run -> the oracle it must equal.
SHARDED = {
    "cell": (sharded_cell, lambda: cell_in_process(sharded_cell_spec())),
    "slo": (sharded_slo, lambda: slo_in_process(sparse_slo_spec())),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(SHARDED))
def test_sharded_run_equals_its_partitions_run_in_process(kind, workers):
    """The engine adds only processes and a merge: the merged result of
    a sharded run is what the same partitions give run in-process."""
    run_sharded, in_process = SHARDED[kind]
    assert run_sharded(workers) == in_process()


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Timings]:
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CASES))
def test_timings_match_always_on_polling(case, pinned):
    assert sorted(CASES[case]()) == sorted(pinned[case])


def test_idle_tenants_cost_no_kernel_events():
    """Kernel work follows packets: at most an arrival, a poll and a
    completion per offered packet, plus one event per tenant."""
    spec = sparse_spec()
    hw_events.reset_kernel_stats()
    timings = run_monolithic(spec)
    executed = hw_events.kernel_stats()["events_executed"]
    offered = spec.traffic.n_packets
    assert len(timings) == offered
    assert executed <= 3 * offered + len(spec.tenants), executed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    data = {name: CASES[name]() for name in sorted(CASES)}
    with open(FIXTURE, "w") as handle:
        json.dump(data, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
