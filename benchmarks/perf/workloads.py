"""The four benchmark workloads: generated inputs and output checks.

Each workload is a ``repro`` CLI invocation plus, for the ``--spec``
workloads, one generated ``ScenarioSpec`` file.  Everything the program
receives is a pure function of the benchmark seed: spec seeds come from
``derive_seed(seed, workload)``, and the CLI's own ``--seed`` is the
benchmark seed.

Why each workload exists (see README.md for the measured shares):

* ``slo-fcfs`` -- commodity arbitration at OSMOSIS scale.  Blame
  records grow as tenants squared, so host time sits in the contention
  rig and ``repro.obs``; the traffic phase is a small share.
* ``idle-fanout`` -- 256 idle-polling tenants and sparse Zipf arrivals
  under temporal arbitration: millions of kernel events for a few
  thousand packets and zero cross-tenant blame.
* ``nf-dense`` -- six busy tenants, one per NF kind, with rings that are
  never empty: host time is NF and packet-path work.
* ``matrix-sweep`` -- the full 72-cell axis sweep users run: many small
  deployments, so set-up and RSA key generation dominate, and the only
  workload with faults, recovery and the commodity shared DMA engine.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

DEFAULT_SEED = 7

#: NF kinds in the order the nf-dense tenants carry them, with the
#: parameter that sizes each one's per-packet work.
DENSE_NFS: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("dpi", {"patterns": 500}),
    ("firewall", {"rules": 643}),
    ("lpm", {"routes": 256}),
    ("nat", {}),
    ("lb", {"backends": 8}),
    ("monitor", {}),
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``spec`` builds the spec-file dict from ``(seed, scale)`` (``None``
    for workloads that take no file); ``argv`` builds the CLI arguments
    after ``python -m repro``; ``check`` validates the parsed JSON report
    and returns the list of failed checks plus the number of cells the
    report covers.  ``scale`` shrinks a workload for the tests only.
    """

    name: str
    why: str
    argv: Callable[[int, List[str], int], List[str]]
    check: Callable[[dict], Tuple[List[str], int, int]]
    spec: Optional[Callable[[int, int], dict]] = None


# ----------------------------------------------------------------------
# Spec generation
# ----------------------------------------------------------------------


def _spec_seed(seed: int, name: str) -> int:
    from repro.scenario.spec import derive_seed

    return derive_seed(seed, name)


def idle_spec(seed: int, scale: int = 1) -> dict:
    """256 monitor tenants, 2048 Zipf packets 10 us apart, temporal."""
    from repro.scenario.spec import (ArbiterSpec, NFSpec, ScenarioSpec,
                                     TenantSpec, TopologySpec, TrafficSpec)

    n = max(2, 256 // scale)
    tenants = tuple(
        TenantSpec(name=f"t{i + 1:03d}", nf=NFSpec(kind="monitor"),
                   dst_prefix=f"10.{1 + i // 200}.{i % 200}.0/24",
                   cores=1, memory_mb=1)
        for i in range(n))
    spec = ScenarioSpec(
        name="perf-idle-fanout",
        seed=_spec_seed(seed, "idle-fanout"),
        description="idle-poll fan-out: many tenants, sparse arrivals",
        tags=("perf",),
        topology=TopologySpec(nic_model="snic", n_cores=n,
                              dram_mb=2 * n + 64, l2_ways=n + 8,
                              arbiter=ArbiterSpec(policy="temporal")),
        tenants=tenants,
        traffic=TrafficSpec(n_packets=8 * n, payload_bytes=64,
                            arrival_period_ns=10_000, pattern="zipf",
                            zipf_skew=1.1))
    return spec.to_dict()


def dense_spec(seed: int, scale: int = 1) -> dict:
    """Six busy tenants, one per NF kind, 60 000 back-to-back packets."""
    from repro.scenario.spec import (ArbiterSpec, NFSpec, ScenarioSpec,
                                     TenantSpec, TopologySpec, TrafficSpec)

    tenants = tuple(
        TenantSpec(name=kind, nf=NFSpec(kind=kind, params=params),
                   dst_prefix=f"{20 + i}.0.0.0/8")
        for i, (kind, params) in enumerate(DENSE_NFS))
    spec = ScenarioSpec(
        name="perf-nf-dense",
        seed=_spec_seed(seed, "nf-dense"),
        description="NF-dense: every ring busy, one tenant per NF kind",
        tags=("perf",),
        topology=TopologySpec(nic_model="snic", n_cores=len(tenants),
                              dram_mb=64,
                              arbiter=ArbiterSpec(policy="temporal")),
        tenants=tenants,
        traffic=TrafficSpec(n_packets=60_000 // scale, payload_bytes=256,
                            arrival_period_ns=150, pattern="round_robin"))
    return spec.to_dict()


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def _check_slo(report: dict) -> Tuple[List[str], int, int]:
    failures: List[str] = []
    result = report["arbiters"]["fcfs"]
    n = report["n_tenants"]
    if result["n_pass"] + result["n_fail"] != n:
        failures.append(f"n_pass + n_fail != {n}")
    expected_packets = n * 8
    if result["packets_completed"] != expected_packets:
        failures.append(f"packets_completed {result['packets_completed']}"
                        f" != {expected_packets}")
    if not result["audit"]["chain_ok"]:
        failures.append("audit chain broken")
    if not result["cross_tenant_wait_ns"] > 0:
        failures.append("fcfs cross-tenant wait is not > 0")
    return failures, 1, 0


def _check_spec_cell(report: dict) -> Tuple[List[str], int, int]:
    failures: List[str] = []
    failed = 0
    for name, entry in sorted(report["cells"].items()):
        record = entry["record"]
        outputs = record.get("outputs") or {}
        problems = []
        if record["status"] != "ok":
            problems.append("status " + record["status"])
        if outputs.get("packets_dropped") != 0:
            problems.append(f"packets_dropped "
                            f"{outputs.get('packets_dropped')}")
        if outputs.get("cross_tenant_wait_ns") != 0.0:
            problems.append(f"cross_tenant_wait_ns "
                            f"{outputs.get('cross_tenant_wait_ns')}")
        if problems:
            failed += 1
            failures.append(f"{name}: " + ", ".join(problems))
    return failures, len(report["cells"]), failed


def _check_matrix(report: dict) -> Tuple[List[str], int, int]:
    failures: List[str] = []
    failed = 0
    for name, entry in sorted(report["cells"].items()):
        cell, record = entry["cell"], entry["record"]
        problems = []
        if record["status"] != "ok":
            problems.append("status " + record["status"])
        elif (cell["nic_model"], cell["arbiter"]) == ("snic", "temporal") \
                and record["outputs"]["cross_tenant_wait_ns"] != 0.0:
            problems.append("snic x temporal cross-tenant wait "
                            f"{record['outputs']['cross_tenant_wait_ns']}")
        if problems:
            failed += 1
            failures.append(f"{name}: " + ", ".join(problems))
    if report["n_error"] != 0:
        failures.append(f"n_error {report['n_error']}")
    return failures, report["n_cells"], failed


# ----------------------------------------------------------------------
# The catalog
# ----------------------------------------------------------------------


def _slo_argv(seed: int, spec_paths: List[str], scale: int) -> List[str]:
    return ["slo", "--tenants", str(max(4, 192 // scale)),
            "--arbiters", "fcfs", "--seed", str(seed), "--format", "json"]


def _spec_argv(seed: int, spec_paths: List[str], scale: int) -> List[str]:
    argv = ["matrix", "--format", "json"]
    for path in spec_paths:
        argv += ["--spec", path]
    return argv


def _matrix_argv(seed: int, spec_paths: List[str], scale: int) -> List[str]:
    argv = ["matrix", "--seed", str(seed), "--format", "json"]
    if scale > 1:
        argv += ["--quick", "--only", "x2t"]
    return argv


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="slo-fcfs",
        why="192 Zipf tenants under fcfs: blame grows as tenants squared, "
            "so the contention rig and repro.obs dominate host time",
        argv=_slo_argv, check=_check_slo),
    Workload(
        name="idle-fanout",
        why="256 idle-polling tenants, 2048 sparse packets under temporal: "
            "kernel and poll work dominate, zero cross-tenant blame",
        argv=_spec_argv, check=_check_spec_cell, spec=idle_spec),
    Workload(
        name="nf-dense",
        why="6 busy tenants, one per NF kind, 60k back-to-back packets: "
            "rings never empty, NF and packet-path work dominate",
        argv=_spec_argv, check=_check_spec_cell, spec=dense_spec),
    Workload(
        name="matrix-sweep",
        why="the full 72-cell sweep of small deployments: set-up and RSA "
            "dominate; the only faults, recovery and commodity DMA",
        argv=_matrix_argv, check=_check_matrix),
)}


def prepare(name: str, seed: int, workdir: str,
            scale: int = 1) -> List[str]:
    """Write the workload's spec file (if any) into ``workdir`` and
    return the CLI arguments that follow ``python -m repro``."""
    workload = WORKLOADS[name]
    paths: List[str] = []
    if workload.spec is not None:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(workload.spec(seed, scale), fh, indent=2,
                      sort_keys=True)
        paths.append(path)
    return workload.argv(seed, paths, scale)
