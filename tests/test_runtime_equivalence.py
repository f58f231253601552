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

A sharded run is checked against an oracle rather than a fixture: the
cells ``run_cells`` deals to its workers must give what the same cells
give run one by one in this process.

Regenerate the fixture (only when the timing model itself changes) with::

    PYTHONPATH=src python tests/test_runtime_equivalence.py --write
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict
from typing import Dict, List

import pytest

from repro.hw import events as hw_events
from repro.obs.bench import isolate
from repro.scenario.build import BuiltScenario, build_scenario
from repro.scenario.spec import (
    NFSpec,
    ScenarioSpec,
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
    from repro.faults.plan import FaultKind

    seen: List[Timings] = []
    original = BuiltScenario.clean_up

    def clean_up(self) -> None:
        seen.append(_timings(self.runtime))
        original(self)

    BuiltScenario.clean_up = clean_up
    try:
        chaos._leg(FaultKind.NF_CRASH, True, True, seed, rounds)
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


def sharded_cell_specs() -> List[ScenarioSpec]:
    """Two cells of four monitors each, Zipf arrivals 400 ns apart."""
    return [
        ScenarioSpec(
            name=f"eq-sharded-{index}", seed=59 + index,
            topology=TopologySpec(nic_model="snic", n_cores=4, dram_mb=96),
            tenants=_monitors(4),
            traffic=TrafficSpec(n_packets=300, payload_bytes=64,
                                arrival_period_ns=400, pattern="zipf",
                                zipf_skew=0.6))
        for index in range(2)]


def sparse_slo_specs() -> List[ScenarioSpec]:
    """Two scorecard cells at 8 tenants, arrivals 13 us apart: each
    cell's kernel idles between arrivals."""
    from dataclasses import replace

    from repro.obs.scorecard import make_scorecard_spec

    specs = [make_scorecard_spec(arbiter, 8, 7, quick=True)
             for arbiter in ("fcfs", "drr")]
    return [replace(spec,
                    traffic=replace(spec.traffic, arrival_period_ns=13_000))
            for spec in specs]


def run_cell_record(spec: ScenarioSpec) -> Dict[str, object]:
    from repro.scenario.matrix import run_cell

    record = run_cell(None, quick=True, spec=spec)
    assert record.status == "ok", record.error
    return asdict(record)


def run_slo_block(spec: ScenarioSpec) -> Dict[str, object]:
    from repro.obs.scorecard import DEFAULT_WINDOW_NS, run_spec

    return run_spec(spec, quick=True, window_ns=DEFAULT_WINDOW_NS)


#: Cell kind -> (one cell's task, the cells dealt to the workers).
SHARDED = {
    "cell": (run_cell_record, sharded_cell_specs),
    "slo": (run_slo_block, sparse_slo_specs),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(SHARDED))
def test_sharded_run_equals_its_partitions_run_in_process(kind, workers):
    """The pool adds only processes: every cell dealt to a worker
    gives what the same cell gives run here, in call order."""
    from repro.obs.bench import run_cells

    task, make_specs = SHARDED[kind]
    specs = make_specs()
    sharded = run_cells(task, [(spec,) for spec in specs],
                        workers=workers)
    assert sharded == [task(spec) for spec in specs]


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
    isolate()
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
