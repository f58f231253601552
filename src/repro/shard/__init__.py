"""``repro.shard`` — run one scenario as independent partitions.

A scenario's spec may pin a partition plan (``ShardSpec.partitions``):
its tenants split into that many independent NICs, each with scaled
cores, DRAM and L2 ways and no contention with the others.  Partitions
exchange no messages, so each one runs in a worker process through the
same code path a monolithic run uses, and the parent merges the
results:

* :mod:`repro.shard.partition` — the partition plan: a pure function of
  the spec, never of the worker count;
* :mod:`repro.shard.frames` — the serialized payload a worker hands
  back (metric snapshots, trace-event dicts — never live simulation
  objects, lint rule SNIC011);
* :mod:`repro.shard.engine` — the fork-context process pool and the
  deterministic merger that recombines per-partition results via
  ``Histogram.merge``/``Registry.merge_from`` so a merged report is
  byte-identical for any ``--shards N``.
"""

from repro.shard.frames import ShardError
from repro.shard.partition import effective_partitions, partition_specs
from repro.shard.engine import (
    run_cell_sharded,
    run_partitions,
    run_spec_sharded,
)

__all__ = [
    "ShardError",
    "effective_partitions",
    "partition_specs",
    "run_cell_sharded",
    "run_partitions",
    "run_spec_sharded",
]
