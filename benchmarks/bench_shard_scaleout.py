"""Shard scale-out: one matrix sweep in-process vs dealt to 2 workers
(DESIGN §1.12).

Runs the seeded matrix sweep (72 cells in full mode, 16 in quick mode)
twice: once one cell at a time in this process, and once with
``shards=2``, which deals whole cells to two fork workers.  A cell
never splits, so both sides simulate the same model and the two
reports must be equal; the ratio of the wall times is a same-model
speedup and nothing else.  Full mode on a host with 2 or more CPUs
asserts at least 1.3×; quick mode records the ratio without gating on
it (CI machines are noisy).

Wall-clock timing is the point of this scenario, as in the harness
itself — these numbers are measurements, never byte-compared.
"""

import os
import time

from _common import bench_main, print_table

WORKERS = 2
SEED = 7
MIN_SPEEDUP = 1.3


def run(quick: bool = False) -> dict:
    """Harness entry point: time the sweep in-process vs at 2 workers."""
    from repro.scenario.matrix import run_matrix

    # Warm both paths on one cell so import costs stay out of the
    # measured runs.
    warm = ["snicx2t-bus_babble-temporal"]
    run_matrix(quick=True, only=warm)
    run_matrix(quick=True, only=warm, shards=WORKERS)

    started = time.perf_counter()
    unsharded = run_matrix(quick=quick, seed=SEED)
    unsharded_wall_s = time.perf_counter() - started

    started = time.perf_counter()
    sharded = run_matrix(quick=quick, seed=SEED, shards=WORKERS)
    sharded_wall_s = time.perf_counter() - started

    speedup = unsharded_wall_s / sharded_wall_s if sharded_wall_s else 0.0
    cpus = len(os.sched_getaffinity(0))
    print_table(
        f"shard scale-out — {unsharded['n_cells']} matrix cells, "
        f"seed {SEED}, {cpus} CPUs",
        ["path", "wall s", "cells", "ok"],
        [["in-process", unsharded_wall_s, unsharded["n_cells"],
          unsharded["n_ok"]],
         [f"--shards {WORKERS}", sharded_wall_s, sharded["n_cells"],
          sharded["n_ok"]]])
    print(f"\nspeedup: {speedup:.2f}x (same model, equal reports)")

    assert sharded == unsharded, "--shards changed the matrix report"
    assert unsharded["n_error"] == 0
    if not quick and cpus >= WORKERS:
        assert speedup >= MIN_SPEEDUP, (
            f"expected >={MIN_SPEEDUP}x at {WORKERS} workers on "
            f"{unsharded['n_cells']} cells, measured {speedup:.2f}x")

    return {
        "n_cells": unsharded["n_cells"],
        "shard_workers": WORKERS,
        "cpus": cpus,
        "unsharded_wall_s": unsharded_wall_s,
        "sharded_wall_s": sharded_wall_s,
        "speedup": speedup,
        "reports_equal": sharded == unsharded,
    }


def test_shard_scaleout(benchmark):
    outputs = benchmark.pedantic(lambda: run(quick=True), rounds=1,
                                 iterations=1)
    assert outputs["reports_equal"] is True
    benchmark.extra_info["speedup"] = outputs["speedup"]


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
