"""Simulated reports are pinned byte for byte.

``tests/fixtures/report_digests.json`` holds the sha256 of seeded
``--format json`` reports, the full 72-cell scenario-matrix sweep (the
perf benchmark's ``matrix-sweep`` workload), a quick sweep and a quick
16-tenant SLO run, each also dealt to two shard workers, and of the
SLO run's ``--openmetrics`` export.  Workers run whole cells, so a
``--shards`` report carries the same digest as the run without it.  It also pins the full
192-tenant ``fcfs`` SLO scorecard (~4 s), the run whose judging cost
grows as tenants squared.  The isolation audit, the full chaos fault
matrix, the co-tenancy Chrome trace and
``examples/nf_dense_scenario.json`` (the perf benchmark's ``nf-dense``
workload at a tenth of its packets) are pinned the same way.
Between them they run key provisioning, attested launch and teardown,
the packet path and every arbiter; the export adds every window's
per-rotation deltas.  So a host-side change (a cache, a faster
primitive) that alters any simulated number fails here.  A change
that is *meant* to alter a report regenerates the fixture in the same
diff with::

    PYTHONPATH=src python tests/test_report_identity.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from typing import Dict, List, Tuple

import pytest

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "report_digests.json")
EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")

_SLO_QUICK_16 = ["slo", "--quick", "--tenants", "16", "--seed", "7"]

#: Report name -> ``python -m repro`` arguments and the option that
#: takes the path of the file to digest.
REPORTS: Dict[str, Tuple[List[str], str]] = {
    "matrix_quick_seed7": (["matrix", "--quick", "--seed", "7",
                            "--format", "json"], "-o"),
    "matrix_seed7": (["matrix", "--seed", "7", "--format", "json"], "-o"),
    "slo_quick_16_tenants_seed7": ([*_SLO_QUICK_16, "--format", "json"],
                                   "-o"),
    "slo_quick_16_tenants_seed7_openmetrics": (_SLO_QUICK_16,
                                               "--openmetrics"),
    "matrix_quick_seed7_commodityx2t_shards2": (
        ["matrix", "--quick", "--seed", "7", "--only", "commodityx2t",
         "--shards", "2", "--format", "json"], "-o"),
    "slo_quick_16_tenants_seed7_shards2": (
        [*_SLO_QUICK_16, "--shards", "2", "--format", "json"], "-o"),
    "slo_192_tenants_fcfs_seed7": (
        ["slo", "--tenants", "192", "--arbiters", "fcfs", "--seed", "7",
         "--format", "json"], "-o"),
    "audit_quick": (["audit", "--quick", "--format", "json"], "--out"),
    "chaos_quick_matrix_seed0": (
        ["chaos", "--quick", "--matrix", "--format", "json"], "-o"),
    "trace_cotenancy_20_packets": (["trace", "-n", "20"], "-o"),
    "matrix_spec_nf_dense_example": (
        ["matrix", "--spec", os.path.join(EXAMPLES, "nf_dense_scenario.json"),
         "--format", "json"], "-o"),
}


def report_digest(name: str, out_dir: str) -> str:
    """Run one report in a fresh interpreter; sha256 of the written file.

    IsoSan is pinned off: ``REPRO_ISOSAN=1`` would sanitize the run and
    mark the report ``isosan_active``.
    """
    path = os.path.join(out_dir, name + ".out")
    argv, path_option = REPORTS[name]
    env = dict(os.environ, REPRO_ISOSAN="0")
    subprocess.run([sys.executable, "-m", "repro", *argv, path_option, path],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_is_byte_identical_to_fixture(name, tmp_path):
    with open(FIXTURE) as handle:
        pinned = json.load(handle)
    assert report_digest(name, str(tmp_path)) == pinned[name]


def test_shard_pins_equal_the_unsharded_pins():
    """``--shards`` deals cells to workers and never changes the model."""
    with open(FIXTURE) as handle:
        pinned = json.load(handle)
    assert pinned["slo_quick_16_tenants_seed7_shards2"] \
        == pinned["slo_quick_16_tenants_seed7"]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as scratch:
        data = {name: report_digest(name, scratch) for name in sorted(REPORTS)}
    with open(FIXTURE, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
