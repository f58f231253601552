"""``repro.shard`` — deal whole experiment cells to worker processes.

One cell is one simulated NIC and runs start to finish in one process;
``--shards N`` only chooses how many fork workers run the cells of a
sweep.  A cell never splits, so the report is byte-identical to the
run without the flag.  :func:`run_partitions` is the pool: it takes a
task and its argument tuples and hands back the results in call order.
"""

from repro.shard.engine import ShardError, run_partitions

__all__ = [
    "ShardError",
    "run_partitions",
]
