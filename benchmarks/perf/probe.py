"""Host-speed probe, run beside each workload child on the same CPU.

Every ``PERIOD_S`` it runs one fixed interpreter-bound kernel and
appends ``<monotonic_ns start> <CPU seconds>`` to ``--out``.  The host
this benchmark was built on changes speed by up to a factor of two over
seconds to minutes; the kernel's CPU time, taken while the child runs
on the same CPU, moves with the child's host time (see README.md).
CPU time rather than wall time, so that the child preempting the probe
mid-kernel does not count.  ``run.py`` starts and stops it; it is not a
workload.

    python benchmarks/perf/probe.py --cpu 1 --out FILE
"""

from __future__ import annotations

import argparse
import gc
import os
import signal
import sys
import time

PERIOD_S = 0.05


def kernel() -> int:
    """The timed work: build and walk a 2000-entry dict, about 0.6 ms of
    CPU on a quiet 2.1 GHz x86-64 vCPU."""
    table = {}
    for i in range(2000):
        table[(i, i * 7)] = [i] * 3
    total = 0
    for value in table.values():
        total += value[0]
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    # The kernel makes no reference cycles; without the collector no
    # collection lands inside a timed kernel.
    gc.disable()
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    with open(args.out, "w", encoding="utf-8", buffering=1) as fh:
        while not stopping:
            time.sleep(PERIOD_S)
            started = time.monotonic_ns()
            t0 = time.thread_time_ns()
            kernel()
            fh.write(f"{started} {(time.thread_time_ns() - t0) / 1e9:.9f}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
