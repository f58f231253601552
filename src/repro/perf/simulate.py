"""Trace-driven colocation simulation (the slow, reference backend).

Runs concrete per-NF address streams through the real set-associative
simulator (:mod:`repro.hw.cache`) in both the shared-L2 baseline and the
hard-partitioned configuration, and produces the same
:class:`~repro.perf.ipc.LevelCounts` the analytic (Che) backend
produces.  Used to cross-validate the Figure 5 pipeline end-to-end and
available as ``backend="simulate"`` for small configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.hw.cache import CacheConfig, CacheHierarchy, HARD
from repro.perf.ipc import IPCModel, LevelCounts
from repro.perf.workloads import LINE_BYTES, NF_ACCESS_MODELS, AccessModel


@dataclass
class SimulatedTenant:
    """One tenant's simulated outcome."""

    name: str
    counts: LevelCounts

    @property
    def l2_hit_rate(self) -> float:
        post_l1 = self.counts.l2_hits + self.counts.dram
        return self.counts.l2_hits / post_l1 if post_l1 else 0.0


def _hierarchy(
    owners: Sequence[int], l1_bytes: int, l2_bytes: int, partitioned: bool
) -> CacheHierarchy:
    l1_ways = 4
    l2_ways = max(4, 2 * len(owners))
    hierarchy = CacheHierarchy(
        CacheConfig(size_bytes=l1_bytes, line_bytes=LINE_BYTES, ways=l1_ways),
        CacheConfig(size_bytes=l2_bytes, line_bytes=LINE_BYTES, ways=l2_ways),
        owners=list(owners),
    )
    if partitioned:
        hierarchy.partition_l2(mode=HARD)
    return hierarchy


def simulate_colocation(
    tenants: Sequence[str],
    l2_bytes: int,
    l1_bytes: int = 32 * 1024,
    n_refs: int = 40_000,
    partitioned: bool = False,
    seed: int = 1,
    models: Optional[Dict[str, AccessModel]] = None,
) -> List[SimulatedTenant]:
    """Simulate ``tenants`` sharing (or partitioning) one L2.

    Streams are interleaved round-robin, modelling concurrent cores.
    Each tenant's address space is offset so physical lines never alias
    across tenants.
    """
    models = models or NF_ACCESS_MODELS
    owners = list(range(1, len(tenants) + 1))
    hierarchy = _hierarchy(owners, l1_bytes, l2_bytes, partitioned)
    streams = [
        models[name].generate_stream(
            n_refs, seed=seed + i, base_addr=(i + 1) << 34
        )
        for i, name in enumerate(tenants)
    ]
    levels = {owner: [0, 0, 0] for owner in owners}
    for ref_index in range(n_refs):
        for owner, stream in zip(owners, streams):
            level = hierarchy.access(int(stream[ref_index]), owner=owner)
            levels[owner][level - 1] += 1
    out = []
    for owner, name in zip(owners, tenants):
        l1_hits, l2_hits, dram = levels[owner]
        out.append(
            SimulatedTenant(
                name=name,
                counts=LevelCounts(
                    l1_hits=l1_hits / n_refs,
                    l2_hits=l2_hits / n_refs,
                    dram=dram / n_refs,
                ),
            )
        )
    return out


def simulated_ipc_degradation(
    focal: str,
    partners: Sequence[str],
    l2_bytes: int,
    n_refs: int = 40_000,
    seed: int = 1,
    ipc_model: Optional[IPCModel] = None,
) -> float:
    """Trace-driven analogue of
    :func:`repro.perf.colocation.ipc_degradation` (same IPC accounting,
    simulated rather than analytic level counts)."""
    ipc_model = ipc_model or IPCModel()
    tenants = [focal] + list(partners)
    shared = simulate_colocation(
        tenants, l2_bytes, n_refs=n_refs, partitioned=False, seed=seed
    )
    isolated = simulate_colocation(
        tenants, l2_bytes, n_refs=n_refs, partitioned=True, seed=seed
    )
    refs = NF_ACCESS_MODELS[focal].mem_refs_per_instr
    n = len(tenants)
    bus = ipc_model.bus
    dram_rate = sum(t.counts.dram for t in shared) * refs * 1.5 / n
    baseline_wait = bus.fcfs_wait_ns(dram_rate)
    isolated_wait = bus.temporal_partition_wait_ns(n)
    ipc_baseline = ipc_model.ipc(shared[0].counts, refs, baseline_wait)
    ipc_isolated = ipc_model.ipc(isolated[0].counts, refs, isolated_wait)
    return max(0.0, (ipc_baseline - ipc_isolated) / ipc_baseline)
