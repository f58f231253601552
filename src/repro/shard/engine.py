"""The shard engine: a process pool and the deterministic merge.

Partitions are independent NICs that exchange no messages, so there is
no clock to share between them.  The engine splits a spec by its
partition plan, runs every partition to completion in a worker of a
fork-context :class:`~concurrent.futures.ProcessPoolExecutor` through
exactly the code a monolithic run uses —
:func:`~repro.scenario.matrix.run_cell` for a matrix cell,
:func:`~repro.obs.scorecard.run_spec` for an SLO cell — and merges the
results.  A worker gets plain arguments (a partition spec and run
flags) and hands back plain data.

Determinism is structural, not incidental: ``--shards N`` only sets the
pool size, results are keyed by partition index and merged in index
order, and nothing derived from ``N`` (or from wall time) enters a
merged report — which is why ``--shards 1`` and ``--shards 8`` produce
byte-identical bytes.
"""

from __future__ import annotations

import gc
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence

from repro.scenario.spec import ScenarioSpec
from repro.shard.frames import ShardError, registry_from_frame
from repro.shard.partition import partition_specs


def run_partitions(task: Callable[..., object],
                   calls: Sequence[tuple],
                   workers: int = 1) -> List[object]:
    """``task(*call)`` for every call, on a pool of ``workers``
    processes; the results in call order.

    Raises :class:`ShardError` naming the partition whose task raised,
    or the first one left without a result when a worker died.  The
    pool uses the fork context, so the children inherit the parent's
    imports and any open ``sanitized()`` scope, and share its heap
    copy-on-write.
    """
    if not calls:
        return []
    n_workers = max(1, min(int(workers), len(calls)))
    # Forked workers inherit the parent heap copy-on-write.  Any garbage
    # the parent accumulated (say, a monolithic run of the same spec)
    # would be traversed by every worker's collector, faulting those
    # shared pages into private copies and erasing the scale-out win —
    # so drop the garbage now and pin the survivors in the permanent
    # generation for the fork.
    gc.collect()
    gc.freeze()
    try:
        with ProcessPoolExecutor(
                max_workers=n_workers,
                mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(task, *call) for call in calls]
            results = []
            for index, future in enumerate(futures):
                try:
                    results.append(future.result())
                except Exception as exc:
                    pool.shutdown(wait=False, cancel_futures=True)
                    if isinstance(exc, BrokenProcessPool):
                        raise ShardError(
                            f"a shard worker died before partition "
                            f"{index} returned") from exc
                    raise ShardError(
                        f"partition {index} failed in its worker: "
                        f"{exc!r}") from exc
    finally:
        gc.unfreeze()
    return results


# ----------------------------------------------------------------------
# Matrix cells
# ----------------------------------------------------------------------


def _run_cell_partition(spec: ScenarioSpec, quick: bool,
                        sanitize: bool) -> Dict[str, object]:
    """One partition through ``run_cell`` in a worker: its record plus
    the serialized latencies, registry and spans the merge folds."""
    from repro.scenario.matrix import run_cell

    payload: Dict[str, object] = {}
    record = run_cell(None, quick=quick, sanitize=sanitize, spec=spec,
                      payload=payload)
    payload["record"] = record.as_dict()
    return payload


def _merge_cell_results(spec: ScenarioSpec,
                        parts: List[ScenarioSpec],
                        results: List[Dict[str, object]]):
    """Recombine per-partition cell results into one BenchRecord.

    Additive fields sum; the global victim's fields come from partition
    0 (contiguous chunking keeps the spec's first tenant there);
    latency percentiles are recomputed over the merged latency
    population; metric families fold through
    ``MetricsRegistry.merge_from``/``Histogram.merge`` in partition
    index order.
    """
    from repro.core.runtime import rank_percentile
    from repro.obs.bench import BenchRecord, _histogram_percentiles, jsonable
    from repro.obs.metrics import MetricsRegistry

    record = BenchRecord(name=spec.name)
    merged_registry = MetricsRegistry()
    latencies: List[int] = []
    outputs_by_part: List[Dict[str, object]] = []
    error: Optional[str] = None
    for data in results:
        part_record = data["record"]
        merged_registry.merge_from(registry_from_frame(data["registry"]))
        record.sim_time_ns += int(part_record["sim_time_ns"])
        record.events_executed += int(part_record["events_executed"])
        record.trace_events += len(data["trace_events"])
        latencies.extend(data["latencies"])
        outputs_by_part.append(part_record.get("outputs") or {})
        if part_record["status"] != "ok" and error is None:
            error = part_record.get("error")
    record.metrics_instruments = len(merged_registry)
    record.histograms = _histogram_percentiles(merged_registry)
    if error is not None:
        record.status = "error"
        record.error = error
        return record
    latencies.sort()
    per_tenant: Dict[str, int] = {}
    for part, part_outputs in zip(parts, outputs_by_part):
        completed = part_outputs.get("per_tenant_completed", {})
        for tenant in part.tenants:
            per_tenant[tenant.name] = int(completed.get(tenant.name, 0))

    def _total(key: str) -> float:
        return sum(float(part_outputs.get(key, 0) or 0)
                   for part_outputs in outputs_by_part)

    first = outputs_by_part[0]
    outputs: Dict[str, object] = {
        "scenario": spec.name,
        "seed": spec.seed,
        "nic_model": spec.topology.nic_model,
        "arbiter": spec.topology.arbiter.policy,
        "tenant_count": len(spec.tenants),
        "fault_class": spec.fault.kind if spec.fault else "none",
        "packets_completed": int(_total("packets_completed")),
        "packets_dropped": int(_total("packets_dropped")),
        "latency_p50_ns": rank_percentile(latencies, 50),
        "latency_p99_ns": rank_percentile(latencies, 99),
        "per_tenant_completed": per_tenant,
        "victim_completed": int(first.get("victim_completed", 0)),
        "bus_wait_ns_victim": float(first.get("bus_wait_ns_victim", 0.0)),
        "dma_wait_ns_victim": float(first.get("dma_wait_ns_victim", 0.0)),
        "dram_wait_ns_victim": float(
            first.get("dram_wait_ns_victim", 0.0)),
        "dma_retries_exhausted": int(_total("dma_retries_exhausted")),
        "cross_tenant_wait_ns": _total("cross_tenant_wait_ns"),
        "faults_injected": int(_total("faults_injected")),
    }
    record.outputs = jsonable(outputs)
    return record


def run_cell_sharded(cell, quick: bool = False, sanitize: bool = False,
                     workers: int = 1,
                     spec: Optional[ScenarioSpec] = None):
    """The sharded counterpart of :func:`repro.scenario.matrix.run_cell`.

    Splits the cell's spec by its partition plan, runs the partitions
    on ``workers`` processes, and merges deterministically.  Returns a
    :class:`~repro.obs.bench.BenchRecord`; worker-level failures (as
    opposed to in-partition scenario errors, which become error
    records) raise :class:`ShardError`.
    """
    from repro.scenario.matrix import cell_spec

    if spec is None:
        spec = cell_spec(cell, quick=quick)
    parts = partition_specs(spec)
    results = run_partitions(
        _run_cell_partition, [(part, quick, sanitize) for part in parts],
        workers=workers)
    return _merge_cell_results(spec, parts, results)


# ----------------------------------------------------------------------
# SLO scorecard
# ----------------------------------------------------------------------


def run_spec_sharded(spec: ScenarioSpec, *, quick: bool, sanitize: bool,
                     window_ns: int, workers: int) -> Dict[str, object]:
    """The sharded counterpart of :func:`repro.obs.scorecard.run_spec`.

    Tenant rows concatenate back into original spec order (contiguous
    chunking), alerts concatenate, pass/fail/window/audit tallies sum,
    and the audit verdict is the conjunction — one broken shard chain
    breaks the merged chain.
    """
    from repro.obs.scorecard import run_spec

    parts = partition_specs(spec)
    blocks = run_partitions(
        run_spec, [(part, quick, sanitize, window_ns) for part in parts],
        workers=workers)
    tenants: List[Dict[str, object]] = []
    alerts: List[Dict[str, object]] = []
    for block in blocks:
        tenants.extend(block["tenants"])
        alerts.extend(block["alerts"])
    return {
        "spec": spec.name,
        "arbiter": spec.topology.arbiter.policy,
        "n_tenants": len(spec.tenants),
        "partitions": len(parts),
        "windows": sum(int(b["windows"]) for b in blocks),
        "packets_completed": sum(
            int(b["packets_completed"]) for b in blocks),
        "packets_dropped": sum(int(b["packets_dropped"]) for b in blocks),
        "cross_tenant_wait_ns": sum(
            float(b["cross_tenant_wait_ns"]) for b in blocks),
        "tenants": tenants,
        "alerts": alerts,
        "n_pass": sum(int(b["n_pass"]) for b in blocks),
        "n_fail": sum(int(b["n_fail"]) for b in blocks),
        "audit": {
            "records": sum(int(b["audit"]["records"]) for b in blocks),
            "chain_ok": all(b["audit"]["chain_ok"] for b in blocks),
        },
    }


__all__ = [
    "run_cell_sharded",
    "run_partitions",
    "run_spec_sharded",
]
