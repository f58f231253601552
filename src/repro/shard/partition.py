"""The partition plan: split one scenario into per-shard sub-scenarios.

The plan is a **pure function of the spec** — ``ShardSpec.partitions``
pins how many NIC/tenant shards a scenario decomposes into, and every
derived quantity (sub-spec seeds, tenant chunks, per-partition traffic
volumes) depends only on the spec and the partition index.  The
``--shards N`` worker count never appears here; that is the whole
byte-identity argument: any worker pool executes the *same* partitions
and the merger folds them in partition-index order.

Tenants are chunked contiguously in spec order (chunk sizes differ by
at most one), so the concatenation of per-partition tenant rows equals
the original spec order and the global victim (first tenant) is always
partition 0's victim.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.scenario.spec import (
    ScenarioSpec,
    ShardSpec,
    SpecError,
    derive_seed,
)


def effective_partitions(spec: ScenarioSpec) -> int:
    """How many partitions ``spec`` actually decomposes into.

    ``ShardSpec.partitions`` clamped to the tenant count — a shard with
    zero tenants would simulate nothing and skew the merge order.
    """
    shard = spec.shard if spec.shard is not None else ShardSpec()
    return max(1, min(shard.partitions, max(1, len(spec.tenants))))


def _tenant_chunks(n_tenants: int, n_parts: int) -> List[range]:
    """Contiguous index ranges whose sizes differ by at most one."""
    base, rem = divmod(n_tenants, n_parts)
    chunks: List[range] = []
    start = 0
    for i in range(n_parts):
        size = base + (1 if i < rem else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks


def _split_packets(total: int, sizes: List[int]) -> List[int]:
    """Deterministic proportional split of the offered load.

    Cumulative floor rule: partition ``i`` gets
    ``floor(total * C_i / W) - floor(total * C_{i-1} / W)`` where
    ``C_i`` is the cumulative tenant weight — the shares sum to
    ``total`` exactly, with no rounding drift for any partition count.
    """
    weight = sum(sizes)
    if weight == 0:
        return [0] * len(sizes)
    shares: List[int] = []
    cumulative = 0
    prev = 0
    for size in sizes:
        cumulative += size
        edge = total * cumulative // weight
        shares.append(edge - prev)
        prev = edge
    return shares


def partition_specs(spec: ScenarioSpec) -> List[ScenarioSpec]:
    """The partition plan: one self-contained sub-spec per shard.

    Each partition is an independent NIC: it carries its contiguous
    tenant chunk, a proportionally scaled topology (cores exactly,
    DRAM/L2 with fixed OS headroom), its share of the offered load on a
    *compressed* arrival schedule (same inter-arrival period, fewer
    packets, so the per-partition horizon shrinks with the tenant
    count), and the fault burst iff its chunk contains the fault's
    target tenant.  Its tenants contend only with each other: the plan
    drops every cross-partition bus, DMA and DRAM contention.  Sub-spec seeds
    derive from the parent seed via the standard ``derive_seed`` chain.
    """
    n_parts = effective_partitions(spec)
    if not spec.tenants:
        raise SpecError(
            f"scenario {spec.name!r} has no tenants to partition")
    n_total = len(spec.tenants)
    chunks = _tenant_chunks(n_total, n_parts)
    sizes = [len(c) for c in chunks]
    packet_shares = _split_packets(spec.traffic.n_packets, sizes)

    fault_target = None
    if spec.fault is not None:
        fault_target = spec.fault.tenant or spec.tenants[-1].name

    parts: List[ScenarioSpec] = []
    for index, chunk in enumerate(chunks):
        tenants = tuple(spec.tenants[i] for i in chunk)
        names = {t.name for t in tenants}
        topo = spec.topology
        l2_ways = None
        if topo.l2_ways is not None:
            # One L2 way per absent tenant is released; the remainder
            # (the OS's ways plus any headroom) stays with every shard.
            l2_ways = max(2, topo.l2_ways - (n_total - len(tenants)))
        # Proportional DRAM plus a fixed 64 MiB OS headroom, capped at
        # the original size so small scenarios keep their geometry.
        dram_mb = min(
            topo.dram_mb,
            max(1, -(-topo.dram_mb * len(tenants) // n_total)) + 64)
        topology = replace(
            topo,
            n_cores=max(1, sum(t.cores for t in tenants)),
            dram_mb=dram_mb,
            l2_ways=l2_ways,
        )
        traffic = replace(spec.traffic, n_packets=packet_shares[index])
        fault = spec.fault if fault_target in names else None
        parts.append(ScenarioSpec(
            name=f"{spec.name}#p{index}",
            seed=derive_seed(spec.seed, spec.name, "shard", n_parts, index),
            description=f"shard partition {index}/{n_parts} "
                        f"of {spec.name}",
            tags=tuple(spec.tags) + ("shard",),
            topology=topology,
            tenants=tenants,
            traffic=traffic,
            fault=fault,
            shard=None,
        ))
    return parts


__all__ = [
    "effective_partitions",
    "partition_specs",
]
