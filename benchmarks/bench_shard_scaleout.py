"""Shard scale-out: monolithic vs 4 independent partitions (DESIGN §1.12).

Runs the hundreds-of-tenants SLO scorecard (the OSMOSIS-scale workload)
twice on the same seeded spec: once through the monolithic builder (one
event kernel over every tenant) and once split into four tenant
partitions, each an independent NIC with its own event kernel, run on
a pool of worker processes.

The two sides are not the same simulated model: a partition's tenants
contend only with each other, so cross-partition bus/DMA/DRAM contention
is dropped, and the ratio is not a same-model speedup.  Kernel work is
not where it comes from either — with wake-on-arrival polling both
sides execute about three events per packet.  It comes from per-kernel
host work that grows faster than linearly in the tenants of one kernel
(FCFS blame pairs in the contention phase, window rotations over every
tenant's instruments), which four quarter-size partitions shrink,
plus the worker processes running in parallel.  Full mode asserts ≥2×
at 4 shards; quick mode records the ratio without gating on it (CI
machines are noisy).

Wall-clock timing is the point of this scenario, as in the harness
itself — these numbers are measurements, never byte-compared.
"""

import time

from _common import bench_main, print_table, quick_param

WORKERS = 4
ARBITER = "fcfs"
SEED = 7


def _monolithic(n_tenants: int, quick: bool) -> dict:
    from repro.obs.scorecard import run_scorecard

    return run_scorecard(n_tenants=n_tenants, seed=SEED, quick=quick,
                         arbiters=(ARBITER,))


def _sharded(n_tenants: int, quick: bool) -> dict:
    from repro.obs.scorecard import run_scorecard

    return run_scorecard(n_tenants=n_tenants, seed=SEED, quick=quick,
                         arbiters=(ARBITER,), workers=WORKERS)


def run(quick: bool = False) -> dict:
    """Harness entry point: time monolithic vs sharded on one spec."""
    n_tenants = quick_param(quick, 512, 192)

    # Warm both paths at toy scale so import/JIT costs don't pollute
    # the measured runs (first-call skew is real on cold processes).
    _monolithic(8, quick=True)
    _sharded(8, quick=True)

    started = time.perf_counter()
    mono = _monolithic(n_tenants, quick=quick)
    mono_wall_s = time.perf_counter() - started

    started = time.perf_counter()
    sharded = _sharded(n_tenants, quick=quick)
    sharded_wall_s = time.perf_counter() - started

    speedup = mono_wall_s / sharded_wall_s if sharded_wall_s else 0.0
    mono_row = mono["summary"][0]
    shard_row = sharded["summary"][0]
    shard_block = sharded["arbiters"][ARBITER]

    print_table(
        f"shard scale-out — {n_tenants} tenants, {ARBITER}, "
        f"{WORKERS} shard workers",
        ["path", "wall s", "tenants judged", "pass", "fail",
         "packets"],
        [["monolithic", mono_wall_s, n_tenants, mono_row["n_pass"],
          mono_row["n_fail"], mono_row["packets_completed"]],
         ["sharded x4", sharded_wall_s, n_tenants, shard_row["n_pass"],
          shard_row["n_fail"], shard_row["packets_completed"]]])
    print(f"\nspeedup: {speedup:.2f}x "
          f"({shard_block['partitions']} partitions)")

    # Structural parity: the sharded path judged every tenant, in spec
    # order, with an intact audit chain.
    assert len(shard_block["tenants"]) == n_tenants
    assert shard_block["audit"]["chain_ok"] is True
    assert shard_row["n_pass"] + shard_row["n_fail"] == n_tenants
    if not quick:
        assert speedup >= 2.0, (
            f"expected >=2x at {WORKERS} shards on {n_tenants} tenants, "
            f"measured {speedup:.2f}x")

    return {
        "n_tenants": n_tenants,
        "arbiter": ARBITER,
        "shard_workers": WORKERS,
        "partitions": shard_block["partitions"],
        "monolithic_wall_s": mono_wall_s,
        "sharded_wall_s": sharded_wall_s,
        "speedup": speedup,
        "monolithic_n_pass": mono_row["n_pass"],
        "sharded_n_pass": shard_row["n_pass"],
        "sharded_packets_completed": shard_row["packets_completed"],
        "audit_chain_ok": shard_block["audit"]["chain_ok"],
    }


def test_shard_scaleout(benchmark):
    outputs = benchmark.pedantic(lambda: run(quick=True), rounds=1,
                                 iterations=1)
    assert outputs["audit_chain_ok"] is True
    benchmark.extra_info["speedup"] = outputs["speedup"]


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
