"""The shard engine: a fork-context process pool.

:func:`run_partitions` runs ``task(*call)`` for every call on a
:class:`~concurrent.futures.ProcessPoolExecutor` and returns the
results in call order.  Each call is one whole experiment cell
(:func:`~repro.scenario.matrix.run_cell`,
:func:`~repro.obs.scorecard.run_spec` or a bench script), run through
exactly the code a run without workers uses, so the worker count can
never reach a report.  A worker gets plain arguments and hands back
plain data.
"""

from __future__ import annotations

import gc
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Sequence


class ShardError(RuntimeError):
    """A task failed in its worker, or its worker died."""


def run_partitions(task: Callable[..., object],
                   calls: Sequence[tuple],
                   workers: int = 1) -> List[object]:
    """``task(*call)`` for every call, on a pool of ``workers``
    processes; the results in call order.

    Raises :class:`ShardError` naming the call (as "partition N")
    whose task raised, or the first one left without a result when a
    worker died.  The pool uses the fork context, so the children
    inherit the parent's imports and any open ``sanitized()`` scope,
    and share its heap copy-on-write.
    """
    if not calls:
        return []
    n_workers = max(1, min(int(workers), len(calls)))
    # Forked workers inherit the parent heap copy-on-write.  Any garbage
    # the parent accumulated (say, an earlier in-process sweep)
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


__all__ = [
    "ShardError",
    "run_partitions",
]
