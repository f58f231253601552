"""Simulated reports are pinned byte for byte.

``tests/fixtures/report_digests.json`` holds the sha256 of two seeded
``--format json`` reports, a quick scenario-matrix sweep and a quick
16-tenant SLO run, and of that SLO run's ``--openmetrics`` export.
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

_SLO_QUICK_16 = ["slo", "--quick", "--tenants", "16", "--seed", "7"]

#: Report name -> ``python -m repro`` arguments and the option that
#: takes the path of the file to digest.
REPORTS: Dict[str, Tuple[List[str], str]] = {
    "matrix_quick_seed7": (["matrix", "--quick", "--seed", "7",
                            "--format", "json"], "-o"),
    "slo_quick_16_tenants_seed7": ([*_SLO_QUICK_16, "--format", "json"],
                                   "-o"),
    "slo_quick_16_tenants_seed7_openmetrics": (_SLO_QUICK_16,
                                               "--openmetrics"),
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


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as scratch:
        data = {name: report_digest(name, scratch) for name in sorted(REPORTS)}
    with open(FIXTURE, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
