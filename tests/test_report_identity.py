"""Simulated reports are pinned byte for byte.

``tests/fixtures/report_digests.json`` holds the sha256 of seeded
``--format json`` reports, the full 72-cell scenario-matrix sweep (the
perf benchmark's ``matrix-sweep`` workload), a quick sweep and a quick
16-tenant SLO run, each also dealt to two shard workers, and of the
SLO run's ``--openmetrics`` export.  Workers run whole cells, so a
``--shards`` report carries the same digest as the run without it.  It also pins the full
192-tenant ``fcfs`` SLO scorecard (~4 s), the run whose judging cost
grows as tenants squared, and the ``--openmetrics`` export of a full
48-tenant ``fcfs`` run (~1 s, 0.95 MB), whose windows span all 16
rounds.  The isolation audit and the chaos fault matrix, each at
quick and at full length (the full runs drive the shared bus and DRAM
rigs at 200 and 48 rounds), the co-tenancy Chrome trace and
``examples/nf_dense_scenario.json`` (the perf benchmark's ``nf-dense``
workload at a tenth of its packets) are pinned the same way, and so is
the co-tenancy demo's per-poll time-series CSV at 20 and 60 packets,
which no CLI flag writes: a ``python -c`` program asks for it.  Each
of the twelve post-mortem bundles that ``chaos --quick --matrix
--postmortem-dir`` writes (one per faulted S-NIC leg) is pinned too,
from one run of that command.
Between them they run key provisioning, attested launch and teardown,
the packet path and every arbiter; the export adds every window's
per-victim cross-tenant wait and latency p99.  So a host-side change (a cache, a faster
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
    "slo_48_tenants_fcfs_seed7_openmetrics": (
        ["slo", "--tenants", "48", "--arbiters", "fcfs", "--seed", "7"],
        "--openmetrics"),
    "audit_quick": (["audit", "--quick", "--format", "json"], "--out"),
    "audit_full": (["audit", "--format", "json"], "--out"),
    "chaos_quick_matrix_seed0": (
        ["chaos", "--quick", "--matrix", "--format", "json"], "-o"),
    "chaos_matrix_seed0": (["chaos", "--matrix", "--format", "json"], "-o"),
    "trace_cotenancy_20_packets": (["trace", "-n", "20"], "-o"),
    "matrix_spec_nf_dense_example": (
        ["matrix", "--spec", os.path.join(EXAMPLES, "nf_dense_scenario.json"),
         "--format", "json"], "-o"),
}

_COTENANCY_SERIES = (
    "import sys\n"
    "from repro.obs.scenario import run_cotenancy_scenario\n"
    "run_cotenancy_scenario(out_path=sys.argv[1] + '.trace.json', "
    "n_packets={}, timeseries_path=sys.argv[1])\n")

#: Report name -> a ``python -c`` program that writes the file to
#: digest at the path given as its one argument.
SCRIPTS: Dict[str, str] = {
    "cotenancy_timeseries_20_packets": _COTENANCY_SERIES.format(20),
    "cotenancy_timeseries_60_packets": _COTENANCY_SERIES.format(60),
}

_CHAOS_KINDS = ("accel_timeout", "bus_babble", "core_hang", "dma_error",
                "dma_partial", "dram_bit_flip", "nf_crash", "nic_os_stall",
                "wire_corrupt", "wire_drop", "wire_duplicate",
                "wire_reorder")

#: Bundle name -> the file ``chaos --quick --matrix --postmortem-dir``
#: writes for it; one run writes all of them.
BUNDLES: Dict[str, str] = {
    f"postmortem_chaos_{kind}": f"POSTMORTEM_chaos-{kind}-snic-s0.json"
    for kind in _CHAOS_KINDS}

PINNED = sorted([*REPORTS, *SCRIPTS, *BUNDLES])


def _run(command: List[str]) -> None:
    """``python <command>`` in a fresh interpreter, IsoSan pinned off:
    ``REPRO_ISOSAN=1`` would sanitize the run and mark the report
    ``isosan_active``."""
    env = dict(os.environ, REPRO_ISOSAN="0")
    subprocess.run([sys.executable, *command],
                   check=True, env=env, stdout=subprocess.DEVNULL)


def report_digest(name: str, out_dir: str) -> str:
    """Run one report in a fresh interpreter; sha256 of the written file.

    The chaos bundles come from one run per ``out_dir``, made by the
    first bundle asked for.
    """
    path = os.path.join(out_dir, name + ".out")
    if name in BUNDLES:
        bundle_dir = os.path.join(out_dir, "postmortem")
        if not os.path.isdir(bundle_dir):
            _run(["-m", "repro", "chaos", "--quick", "--matrix",
                  "--postmortem-dir", bundle_dir])
        path = os.path.join(bundle_dir, BUNDLES[name])
    elif name in SCRIPTS:
        _run(["-c", SCRIPTS[name], path])
    else:
        argv, path_option = REPORTS[name]
        _run(["-m", "repro", *argv, path_option, path])
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    """One directory for every report, so the bundles share a run."""
    return str(tmp_path_factory.mktemp("reports"))


@pytest.mark.parametrize("name", PINNED)
def test_report_is_byte_identical_to_fixture(name, out_dir):
    with open(FIXTURE) as handle:
        pinned = json.load(handle)
    assert report_digest(name, out_dir) == pinned[name]


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
        data = {name: report_digest(name, scratch) for name in PINNED}
    with open(FIXTURE, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
