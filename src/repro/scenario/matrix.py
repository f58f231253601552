"""The matrix sweep runner behind ``python -m repro matrix``.

The matrix is the axis product

    {nic_model} x {tenant_count} x {fault_class} x {arbiter} x {seed}

expanded into :class:`MatrixCell`\\ s, each materialized through the
scenario builder (:mod:`repro.scenario.build`) inside one
:func:`repro.obs.bench.cell_scope`: the process-wide state reset runs
before *and* after every cell.  One cell produces one
``repro.bench``-shaped record (schema v1), so bench tooling can read
matrix artifacts.

Determinism is a hard contract: the report contains **no wall-clock
values** (``wall_s`` stays ``0.0``), every cell's seed is derived from
the base ``--seed`` via :func:`~repro.scenario.spec.derive_seed`, and
two runs with the same arguments render byte-identical output.  CI
enforces this with a literal ``cmp`` of two ``--quick`` runs.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.bench import emit_report, format_json, positive_int
from repro.scenario.spec import (
    ArbiterSpec,
    FaultSpec,
    NFSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
    TrafficSpec,
    derive_seed,
)

SCHEMA = "repro.matrix"
SCHEMA_VERSION = 1

#: The per-cell record shape (reused from the bench harness).
RECORD_SCHEMA = "repro.bench"
RECORD_SCHEMA_VERSION = 1

#: NF kinds cycled across tenants t1..tN in a cell.
_CELL_NF_CYCLE = ("firewall", "monitor")


# ----------------------------------------------------------------------
# Axes and cells
# ----------------------------------------------------------------------


def default_axes(quick: bool = False) -> Dict[str, List[object]]:
    """The swept axes; ``--quick`` keeps 2 values per axis (16 cells)."""
    if quick:
        return {
            "nic_model": ["commodity", "snic"],
            "tenant_count": [2, 4],
            "fault_class": ["bus_babble", "dma_error"],
            "arbiter": ["fcfs", "temporal"],
        }
    return {
        "nic_model": ["commodity", "snic"],
        "tenant_count": [2, 4, 8],
        "fault_class": ["none", "bus_babble", "dma_error", "wire_corrupt"],
        "arbiter": ["fcfs", "temporal", "drr"],
    }


@dataclass(frozen=True)
class MatrixCell:
    """One point in the axis product."""

    nic_model: str
    tenant_count: int
    fault_class: str
    arbiter: str
    seed: int

    @property
    def name(self) -> str:
        return (f"{self.nic_model}x{self.tenant_count}t"
                f"-{self.fault_class}-{self.arbiter}-s{self.seed}")


def expand(axes: Dict[str, List[object]], base_seed: int,
           reps: int = 1) -> List[MatrixCell]:
    """The full axis product, one cell per (point, rep).

    Every cell gets its own seed derived from ``base_seed`` and its
    coordinates, so cells are decorrelated but the whole sweep is a
    pure function of ``--seed``.
    """
    cells: List[MatrixCell] = []
    for model in axes["nic_model"]:
        for tenants in axes["tenant_count"]:
            for fault in axes["fault_class"]:
                for arbiter in axes["arbiter"]:
                    for rep in range(max(1, reps)):
                        cells.append(MatrixCell(
                            nic_model=str(model),
                            tenant_count=int(tenants),
                            fault_class=str(fault),
                            arbiter=str(arbiter),
                            seed=derive_seed(base_seed, "cell", model,
                                             tenants, fault, arbiter, rep)))
    return cells


def cell_spec(cell: MatrixCell, quick: bool = False) -> ScenarioSpec:
    """The ScenarioSpec a matrix cell deploys."""
    tenants = tuple(
        TenantSpec(
            name=f"t{i + 1}",
            nf=NFSpec(kind=_CELL_NF_CYCLE[i % len(_CELL_NF_CYCLE)],
                      params={"rules": 32} if i % len(_CELL_NF_CYCLE) == 0
                      else ()),
            dst_prefix=f"{20 + i}.0.0.0/8",
        )
        for i in range(cell.tenant_count))
    fault = None
    if cell.fault_class != "none":
        fault = FaultSpec(kind=cell.fault_class,
                          start_ns=2_000, count=4, period_ns=8_000)
    return ScenarioSpec(
        name=cell.name,
        seed=cell.seed,
        description=f"matrix cell {cell.name}",
        tags=("matrix",),
        topology=TopologySpec(
            nic_model=cell.nic_model,
            n_cores=cell.tenant_count,
            dram_mb=64,
            key_seed=7,
            arbiter=ArbiterSpec(policy=cell.arbiter)),
        tenants=tenants,
        traffic=TrafficSpec(
            n_packets=cell.tenant_count * (8 if quick else 24),
            payload_bytes=64,
            arrival_period_ns=800),
        fault=fault,
    )


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------


def run_cell(cell: MatrixCell, quick: bool = False,
             sanitize: bool = False,
             postmortem_dir: Optional[str] = None,
             spec: Optional[ScenarioSpec] = None) -> "object":
    """Run one cell under full state isolation; never raises.

    Returns a :class:`repro.obs.bench.BenchRecord` — the matrix reuses
    the bench record schema so one toolchain reads both artifacts.
    ``wall_s`` is deliberately left at ``0.0``: matrix reports must be
    byte-identical across same-seed runs, so no wall-clock value may
    land in them.

    ``spec`` overrides the generated :func:`cell_spec` — how
    ``--spec FILE`` scenarios run through the same machinery; the
    record is then named after the spec, not the cell.

    With ``postmortem_dir`` set, the audit log is armed for the cell
    and any error drops a forensics bundle
    (``POSTMORTEM_<cell>.json``) there before the trailing isolation
    reset wipes the evidence.
    """
    from repro.obs import postmortem
    from repro.obs.bench import BenchRecord, cell_scope, jsonable
    from repro.scenario.build import build_scenario

    if spec is None:
        spec = cell_spec(cell, quick=quick)
    record = BenchRecord(name=spec.name)
    bundle = None if postmortem_dir is None \
        else postmortem.bundle_path(postmortem_dir, spec.name)
    with cell_scope(record, sanitize=sanitize, bundle=bundle, spec=spec):
        with build_scenario(spec) as built:
            outputs = built.drive(quick=quick)
        record.outputs = jsonable(outputs)
    return record


def _summary_rows(cells: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Aggregate victim-side disruption per (nic_model, arbiter).

    This is the matrix's headline table: commodity rows should show
    cross-tenant wait climbing with tenant count and fault pressure,
    S-NIC rows should stay near the floor (§4.5's temporal partitioning
    and §4.2's per-bank DMA engines).
    """
    groups: Dict[tuple, Dict[str, float]] = {}
    for entry in cells:
        record = entry["record"]
        outputs = record.get("outputs") or {}
        if record.get("status") != "ok":
            continue
        key = (entry["cell"]["nic_model"], entry["cell"]["arbiter"])
        group = groups.setdefault(key, {
            "n_cells": 0.0, "packets_completed": 0.0,
            "cross_tenant_wait_ns": 0.0, "bus_wait_ns_victim": 0.0,
            "dma_wait_ns_victim": 0.0, "faults_injected": 0.0,
        })
        group["n_cells"] += 1
        for field in ("packets_completed", "cross_tenant_wait_ns",
                      "bus_wait_ns_victim", "dma_wait_ns_victim",
                      "faults_injected"):
            group[field] += float(outputs.get(field, 0) or 0)
    rows: List[Dict[str, object]] = []
    for (model, arbiter), group in sorted(groups.items()):
        n = group["n_cells"] or 1.0
        rows.append({
            "nic_model": model,
            "arbiter": arbiter,
            "n_cells": int(group["n_cells"]),
            "packets_completed": int(group["packets_completed"]),
            "mean_cross_tenant_wait_ns":
                round(group["cross_tenant_wait_ns"] / n, 3),
            "mean_bus_wait_ns_victim":
                round(group["bus_wait_ns_victim"] / n, 3),
            "mean_dma_wait_ns_victim":
                round(group["dma_wait_ns_victim"] / n, 3),
            "faults_injected": int(group["faults_injected"]),
        })
    return rows


def run_matrix(
    quick: bool = False,
    only: Optional[Sequence[str]] = None,
    seed: int = 7,
    reps: int = 1,
    sanitize: bool = False,
    progress=None,
    postmortem_dir: Optional[str] = None,
    shards: Optional[int] = None,
) -> Dict[str, object]:
    """Sweep the matrix and build the report dict.

    ``only`` filters cells by name substring; ``progress`` is an
    optional callable invoked with each finished record.  The report
    is a pure function of the arguments — no timestamps, host names,
    or wall times.  ``postmortem_dir`` arms per-cell forensics: any
    error cell drops a ``POSTMORTEM_<cell>.json`` bundle there (the
    report itself stays byte-identical either way).

    ``shards`` deals the cells to that many worker processes; each
    cell still runs whole in one of them, so the report is
    byte-identical to the run without workers, and ``progress`` sees
    the records once all are done.
    """
    axes = default_axes(quick=quick)
    cells = expand(axes, base_seed=seed, reps=reps)
    if only:
        cells = [c for c in cells
                 if any(pat in c.name for pat in only)]
    return _sweep([(cell, None) for cell in cells], seed=seed,
                  reps=max(1, reps), mode="quick" if quick else "full",
                  axes=axes, quick=quick, sanitize=sanitize,
                  progress=progress, postmortem_dir=postmortem_dir,
                  shards=shards)


def load_spec(path: str) -> ScenarioSpec:
    """Load a ``ScenarioSpec`` file (``--spec FILE``), JSON or YAML.

    The file holds what :meth:`ScenarioSpec.to_dict` emits (see
    ``examples/slo_scenario.json``); :meth:`ScenarioSpec.from_dict` runs
    the full validation, so a malformed file, at any depth, fails with
    a ``SpecError`` naming the dotted path of the bad value rather than
    a deep builder traceback.  Files
    ending in ``.yaml``/``.yml`` parse with PyYAML when it is
    installed; everything else parses as JSON (which a YAML parser
    would accept anyway, so the two paths round-trip to identical
    specs).
    """
    with open(path, "r", encoding="utf-8") as fh:
        if path.endswith((".yaml", ".yml")):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover - yaml baked in
                raise ValueError(
                    f"{path}: YAML spec files require PyYAML; "
                    f"re-encode the spec as JSON") from exc
            data = yaml.safe_load(fh)
        else:
            data = json.load(fh)
    return ScenarioSpec.from_dict(data)


def run_specs(
    specs: Sequence[ScenarioSpec],
    quick: bool = False,
    sanitize: bool = False,
    progress=None,
    postmortem_dir: Optional[str] = None,
    shards: Optional[int] = None,
) -> Dict[str, object]:
    """Run explicit specs (from ``--spec`` files) as a one-off matrix.

    Each spec becomes one cell whose coordinates are read *off* the
    spec (model, tenant count, fault class, arbiter, seed), so the
    report keeps the sweep schema and every formatter/CI consumer
    works unchanged.  ``shards`` behaves as in :func:`run_matrix`.
    """
    runs = [
        (MatrixCell(nic_model=spec.topology.nic_model,
                    tenant_count=len(spec.tenants),
                    fault_class=spec.fault.kind if spec.fault else "none",
                    arbiter=spec.topology.arbiter.policy,
                    seed=spec.seed),
         spec)
        for spec in specs
    ]
    return _sweep(runs, seed=specs[0].seed if specs else 0, reps=1,
                  mode="spec", axes={"spec": [spec.name for spec in specs]},
                  quick=quick, sanitize=sanitize, progress=progress,
                  postmortem_dir=postmortem_dir, shards=shards)


def _sweep(runs: List[tuple], seed: int, reps: int, mode: str,
           axes: Dict[str, List[object]], quick: bool, sanitize: bool,
           progress, postmortem_dir: Optional[str],
           shards: Optional[int]) -> Dict[str, object]:
    """Run ``(cell, spec)`` pairs in order and assemble the report.

    ``spec`` ``None`` deploys the cell's generated :func:`cell_spec`.
    """
    if shards is not None and postmortem_dir is not None:
        raise ValueError("per-cell postmortem bundles are not available "
                         "under --shards (the audit log is "
                         "per-worker-process)")
    records: List[Any] = []
    if shards is None:
        for cell, spec in runs:
            records.append(run_cell(cell, quick=quick, sanitize=sanitize,
                                    postmortem_dir=postmortem_dir,
                                    spec=spec))
            if progress is not None:
                progress(records[-1])
    else:
        from repro.obs.bench import run_cells

        records = run_cells(
            run_cell, [(cell, quick, sanitize, None, spec)
                       for cell, spec in runs], workers=shards)
        if progress is not None:
            for record in records:
                progress(record)
    entries = [{"cell": asdict(cell), "record": asdict(record)}
               for (cell, _spec), record in zip(runs, records)]
    n_ok = sum(1 for entry in entries if entry["record"]["status"] == "ok")
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "record_schema": RECORD_SCHEMA,
        "record_schema_version": RECORD_SCHEMA_VERSION,
        "seed": seed,
        "reps": reps,
        "mode": mode,
        "isosan_active": bool(sanitize),
        "axes": axes,
        "n_cells": len(entries),
        "n_ok": n_ok,
        "n_error": len(entries) - n_ok,
        "cells": {entry["record"]["name"]: entry for entry in entries},
        "summary": _summary_rows(entries),
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


_CSV_FIELDS = (
    "name", "nic_model", "tenant_count", "fault_class", "arbiter", "seed",
    "status", "packets_completed", "packets_dropped", "latency_p50_ns",
    "latency_p99_ns", "bus_wait_ns_victim", "dma_wait_ns_victim",
    "dram_wait_ns_victim", "cross_tenant_wait_ns", "faults_injected",
    "dma_retries_exhausted", "events_executed", "sim_time_ns",
)


def format_csv(report: Dict[str, object]) -> str:
    """One row per cell, flat columns (spreadsheet/pandas friendly)."""
    buffer = io.StringIO()
    buffer.write(",".join(_CSV_FIELDS) + "\n")
    for name in sorted(report["cells"]):
        entry = report["cells"][name]
        record = entry["record"]
        outputs = record.get("outputs") or {}
        row: List[str] = []
        for field in _CSV_FIELDS:
            if field == "name":
                value = name
            elif field in entry["cell"]:
                value = entry["cell"][field]
            elif field in ("status", "events_executed", "sim_time_ns"):
                value = record.get(field, "")
            else:
                value = outputs.get(field, "")
            row.append(str(value))
        buffer.write(",".join(row) + "\n")
    return buffer.getvalue()


def format_text(report: Dict[str, object]) -> str:
    lines = [
        f"repro matrix — {report['mode']} mode, seed {report['seed']}, "
        f"{report['n_cells']} cells "
        f"({report['n_ok']} ok, {report['n_error']} error), "
        f"isosan {'on' if report['isosan_active'] else 'off'}",
        "",
        f"{'cell':<38} {'status':<7} {'pkts':>5} {'p99 ns':>8} "
        f"{'xwait ns':>10} {'faults':>6}",
    ]
    for name in sorted(report["cells"]):
        record = report["cells"][name]["record"]
        outputs = record.get("outputs") or {}
        lines.append(
            f"{name:<38} {record['status']:<7} "
            f"{outputs.get('packets_completed', '—'):>5} "
            f"{outputs.get('latency_p99_ns', '—'):>8} "
            f"{outputs.get('cross_tenant_wait_ns', '—'):>10} "
            f"{outputs.get('faults_injected', '—'):>6}")
    lines += ["", f"{'nic_model':<10} {'arbiter':<9} {'cells':>5} "
                  f"{'pkts':>6} {'mean xwait ns':>14} {'mean bus ns':>12}"]
    for row in report["summary"]:
        lines.append(
            f"{row['nic_model']:<10} {row['arbiter']:<9} "
            f"{row['n_cells']:>5} {row['packets_completed']:>6} "
            f"{row['mean_cross_tenant_wait_ns']:>14} "
            f"{row['mean_bus_wait_ns_victim']:>12}")
    errors = [name for name, entry in sorted(report["cells"].items())
              if entry["record"]["status"] != "ok"]
    if errors:
        lines += ["", "errors:"]
        for name in errors:
            tail = (report["cells"][name]["record"].get("error") or "")
            tail = tail.strip().splitlines()[-1:] or [""]
            lines.append(f"  {name}: {tail[0]}")
    return "\n".join(lines) + "\n"


_FORMATTERS = {"text": format_text, "json": format_json, "csv": format_csv}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    from repro.analysis.isosan import enabled_by_env

    parser = argparse.ArgumentParser(
        prog="python -m repro matrix",
        description="Sweep the scenario matrix: "
                    "{nic_model} x {tenant_count} x {fault_class} x "
                    "{arbiter} x {seed}.")
    parser.add_argument("--quick", action="store_true",
                        help="2 values per axis (16 cells) instead of the "
                             "full sweep")
    parser.add_argument("--only", action="append", default=None,
                        metavar="SUBSTR",
                        help="run only cells whose name contains SUBSTR "
                             "(repeatable)")
    parser.add_argument("--spec", action="append", default=None,
                        metavar="FILE",
                        help="run a JSON or YAML ScenarioSpec file instead "
                             "of the axis sweep (repeatable; see "
                             "examples/slo_scenario.json)")
    parser.add_argument("--shards", type=positive_int, default=None,
                        metavar="N",
                        help="deal whole cells to N worker processes "
                             "(the report is byte-identical to the run "
                             "without --shards)")
    parser.add_argument("--seed", type=int, default=7,
                        help="base seed; every cell seed derives from it "
                             "(default 7)")
    parser.add_argument("--reps", type=positive_int, default=1,
                        help="independent seeds per axis point (default 1)")
    parser.add_argument("--format", choices=sorted(_FORMATTERS),
                        default="text", help="report format (default text)")
    parser.add_argument("--sanitize", action="store_true",
                        help="run every cell under the IsoSan runtime "
                             "sanitizer (also via REPRO_ISOSAN=1)")
    parser.add_argument("--postmortem-dir", default=None, metavar="DIR",
                        help="arm the audit log per cell "
                             "and write POSTMORTEM_<cell>.json bundles for "
                             "error cells into DIR")
    parser.add_argument("-o", "--out", default=None, metavar="PATH",
                        help="also write the rendered report to PATH")
    args = parser.parse_args(argv)

    sanitize = args.sanitize or enabled_by_env(default=False)
    if args.shards is not None and args.postmortem_dir is not None:
        print("error: --shards and --postmortem-dir are mutually "
              "exclusive (forensics bundles are per-worker-process)",
              file=sys.stderr)
        return 2
    if args.spec:
        specs = []
        for path in args.spec:
            try:
                specs.append(load_spec(path))
            except (OSError, ValueError) as exc:  # SpecError included
                print(f"error: bad --spec file {path}: {exc}",
                      file=sys.stderr)
                return 2
        report = run_specs(specs, quick=args.quick, sanitize=sanitize,
                           postmortem_dir=args.postmortem_dir,
                           shards=args.shards)
    else:
        report = run_matrix(quick=args.quick, only=args.only,
                            seed=args.seed, reps=args.reps,
                            sanitize=sanitize,
                            postmortem_dir=args.postmortem_dir,
                            shards=args.shards)
    return emit_report(_FORMATTERS[args.format](report),
                       ok=report["n_error"] == 0, out=args.out,
                       stream=stream, label="matrix report")


if __name__ == "__main__":  # pragma: no cover — exercised via -m repro
    raise SystemExit(main())
