"""``python -m repro slo`` — the per-tenant SLO scorecard at scale.

ROADMAP item 3's deliverable, assembled from this PR's pieces: hundreds
of Zipf-skewed tenants run through the scenario front end
(:mod:`repro.scenario`) under each bus arbitration policy
({fcfs, temporal, drr}), with

* per-tenant latency observed into ``slo_latency_ns{tenant=}``
  histograms via the runtime's completion hook,
* sim-time window rotation (:class:`~repro.obs.windows
  .WindowedAggregator`) feeding SRE burn-rate alerting
  (:class:`~repro.obs.slo.BurnRateAlerter`) — kernel-scheduled through
  the traffic phase, hand-rotated per contention round,
* every tenant judged end-of-run against its spec-attached
  :class:`~repro.obs.slo.TenantSLO`,
* alerts witnessed in the hash-chained audit log, and
* the whole registry (plus per-window series) exportable as
  OpenMetrics text.

The report is a pure function of ``--seed``: no wall clock anywhere,
same arguments ⇒ byte-identical text/json/csv (CI ``cmp``s two runs).
The headline table is the paper's §4.5 story told as pass/fail:
temporal partitioning owes **zero** cross-tenant wait so every
interference objective passes; fcfs under the same load fails tenants
wholesale; DRR sits between.

``--violation-demo`` runs a small seeded scenario engineered to fire a
known alert set (one tenant with an impossible latency target, one with
a zero interference budget under fcfs) and exits non-zero unless
exactly those alerts fire — the alerting path's end-to-end self-test.
"""

from __future__ import annotations

import argparse
import io
import sys
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.bench import emit_report, format_json, positive_int
from repro.obs.slo import (
    LATENCY_METRIC,
    BurnRateAlerter,
    SLOSpec,
    TenantSLO,
    evaluate_tenant,
)
from repro.obs.windows import WindowedAggregator
from repro.scenario.spec import (
    ARBITER_POLICIES,
    ArbiterSpec,
    NFSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
    TrafficSpec,
    derive_seed,
)

SCHEMA = "repro.slo"
SCHEMA_VERSION = 1

#: Arbiters the scorecard sweeps by default (ROADMAP item 3's axis).
DEFAULT_ARBITERS = ("fcfs", "temporal", "drr")

#: Window width for the kernel-driven traffic phase.
DEFAULT_WINDOW_NS = 50_000

#: Scaled-down arbiter bandwidth: 2 KiB transfers take 512 ns against a
#: 200 ns issue spacing, so shared-bus queueing is real at scale (the
#: stock 12.8 B/ns leaves the bus idle between back-to-back tenants).
_SCORECARD_BANDWIDTH = 4.0


def default_tenant_slo() -> TenantSLO:
    """The objective bundle every scorecard tenant signs up for.

    Thresholds sit on the default histogram bucket ladder (so the
    latency good/bad split is bucket-exact) and are calibrated against
    the quick run: temporal partitioning passes all four objectives for
    every tenant; fcfs fails interference budgets wholesale.
    """
    return TenantSLO(objectives=(
        SLOSpec(kind="p99_latency_ns", threshold=10_000.0, target=0.99),
        SLOSpec(kind="throughput_floor", threshold=0.9),
        SLOSpec(kind="interference_budget_ns", threshold=10_000.0),
        SLOSpec(kind="teardown_deadline_ns", threshold=1_000_000.0),
    ))


def make_scorecard_spec(arbiter: str, n_tenants: int, seed: int,
                        quick: bool = False) -> ScenarioSpec:
    """One arbiter's cell: N Zipf-skewed single-core tenants on S-NIC.

    The S-NIC scale levers discovered empirically: the static L2
    partition needs one way per NF plus the OS's (``l2_ways``), and
    every NF reserves a 2 MiB aligned DRAM extent regardless of its
    nominal size (``dram_mb``).
    """
    tenants = tuple(
        TenantSpec(
            name=f"t{i + 1:03d}",
            nf=NFSpec(kind="monitor"),
            dst_prefix=f"10.{1 + i // 200}.{i % 200}.0/24",
            cores=1,
            memory_mb=1,
            slo=default_tenant_slo(),
        )
        for i in range(n_tenants))
    return ScenarioSpec(
        name=f"slo-{arbiter}-{n_tenants}t",
        seed=derive_seed(seed, "slo", arbiter, n_tenants),
        description=f"SLO scorecard cell: {n_tenants} Zipf tenants "
                    f"under the {arbiter} arbiter",
        tags=("slo", "scale"),
        topology=TopologySpec(
            nic_model="snic",
            n_cores=n_tenants,
            dram_mb=2 * n_tenants + 64,
            l2_ways=n_tenants + 8,
            arbiter=ArbiterSpec(
                policy=arbiter,
                bandwidth_bytes_per_ns=_SCORECARD_BANDWIDTH)),
        tenants=tenants,
        traffic=TrafficSpec(
            n_packets=n_tenants * (4 if quick else 8),
            payload_bytes=64,
            arrival_period_ns=800,
            pattern="zipf",
            zipf_skew=1.1),
    )


def make_violation_spec(seed: int) -> ScenarioSpec:
    """The seeded alert self-test scenario.

    Four tenants under fcfs: ``t1`` carries an unmeetable latency
    objective (1 µs threshold against multi-µs poll-loop latencies, so
    every window burns at the cap), ``t2`` a zero interference budget
    (S-NIC's own §4.5 contract — held to it under the *wrong* arbiter),
    ``t3``/``t4`` generous objectives that must stay quiet.
    """
    loose_latency = SLOSpec(kind="p99_latency_ns", threshold=1e9,
                            target=0.5)
    loose_budget = SLOSpec(kind="interference_budget_ns", threshold=1e12)
    slos = {
        "t1": TenantSLO(objectives=(
            SLOSpec(kind="p99_latency_ns", threshold=1_000.0,
                    target=0.99),
            loose_budget)),
        "t2": TenantSLO(objectives=(
            loose_latency,
            SLOSpec(kind="interference_budget_ns", threshold=0.0))),
        "t3": TenantSLO(objectives=(loose_latency, loose_budget)),
        "t4": TenantSLO(objectives=(loose_latency, loose_budget)),
    }
    tenants = tuple(
        TenantSpec(
            name=name,
            nf=NFSpec(kind="monitor"),
            dst_prefix=f"{20 + i}.0.0.0/8",
            cores=1,
            slo=slos[name])
        for i, name in enumerate(sorted(slos)))
    return ScenarioSpec(
        name="slo-violation-demo",
        seed=derive_seed(seed, "slo", "violation-demo"),
        description="seeded burn-rate alert self-test (t1 latency, "
                    "t2 interference; t3/t4 quiet)",
        tags=("slo", "demo"),
        topology=TopologySpec(
            nic_model="snic",
            n_cores=4,
            dram_mb=64,
            arbiter=ArbiterSpec(
                policy="fcfs",
                bandwidth_bytes_per_ns=_SCORECARD_BANDWIDTH)),
        tenants=tenants,
        traffic=TrafficSpec(
            n_packets=160,
            payload_bytes=64,
            arrival_period_ns=800,
            pattern="round_robin"),
    )


#: The exact alert multiset :func:`make_violation_spec` must produce:
#: one page + one ticket per engineered violation, nothing else.
EXPECTED_DEMO_ALERTS: Tuple[Tuple[str, str, str], ...] = (
    ("t1", "p99_latency_ns", "page"),
    ("t1", "p99_latency_ns", "ticket"),
    ("t2", "interference_budget_ns", "page"),
    ("t2", "interference_budget_ns", "ticket"),
)


# ----------------------------------------------------------------------
# Running one cell
# ----------------------------------------------------------------------


def run_spec(spec: ScenarioSpec, quick: bool = False,
             sanitize: bool = False,
             window_ns: int = DEFAULT_WINDOW_NS,
             families_sink: Optional[List[object]] = None,
             ) -> Dict[str, object]:
    """Run one scorecard cell under full state isolation.

    Returns the per-arbiter result block: tenant rows in spec order,
    the fired alerts, window/audit bookkeeping.  With ``families_sink``
    given, the cell's OpenMetrics families (registry + windows, tagged
    with an ``arbiter`` label) are appended to it before the trailing
    isolation reset wipes the registry.
    """
    from repro.obs import auditlog as auditlog_mod
    from repro.obs import openmetrics
    from repro.obs.bench import cell_scope
    from repro.obs.metrics import get_registry
    from repro.scenario.build import (
        ROUND_PERIOD_NS,
        build_scenario,
        contention_rounds,
    )

    rounds = contention_rounds(quick)
    with cell_scope(sanitize=sanitize, audit=True):
        with build_scenario(spec) as built:
            registry = get_registry()
            by_id: Dict[int, str] = {}
            slos: Dict[int, TenantSLO] = {}
            for tenant in spec.tenants:
                nf_id = built.tenants[tenant.name]
                by_id[nf_id] = tenant.name
                if tenant.slo is not None:
                    slos[nf_id] = tenant.slo
                # Mint every tenant's family up front so tenants
                # with zero completions still render a row.
                registry.histogram(LATENCY_METRIC, tenant=nf_id)

            def observe(nf_id: int, latency_ns: int,
                        _departure_ns: int) -> None:
                registry.histogram(
                    LATENCY_METRIC,
                    tenant=nf_id).observe(float(latency_ns))

            built.runtime.on_complete = observe
            horizon_ns = float(
                spec.traffic.n_packets * spec.traffic.arrival_period_ns
                + rounds * ROUND_PERIOD_NS)
            alerter = BurnRateAlerter(slos, horizon_ns=horizon_ns)
            aggregator = WindowedAggregator(
                built.runtime.sim, window_ns=window_ns,
                on_rotate=alerter.observe)
            aggregator.start()
            offered = _offered_by_tenant(spec, built)
            sim = built.runtime.sim
            outputs = built.drive(
                quick=quick, rounds=rounds,
                on_round=lambda _i, end_ns: aggregator.rotate(
                    now_ns=sim.now_ns + end_ns))
            aggregator.stop()
            xwait = aggregator.accountant.cross_tenant_wait_by_victim()
            timing = built.snic.timing
            rows = []
            for tenant in spec.tenants:
                nf_id = built.tenants[tenant.name]
                rows.append(_tenant_row(
                    tenant, nf_id, registry, outputs, offered,
                    xwait, timing.nf_destroy_ms(
                        built.snic.record(nf_id).extent_bytes) * 1e6,
                    alerter))
            if families_sink is not None:
                extra = {"arbiter": spec.topology.arbiter.policy}
                families_sink.extend(openmetrics.registry_families(
                    registry, extra_labels=extra))
                families_sink.extend(openmetrics.window_families(
                    aggregator.snapshots, extra_labels=extra))
        log = auditlog_mod.get_audit_log()
        alerts = []
        for alert in alerter.alert_dicts():
            alert = dict(alert)
            alert["tenant_name"] = by_id.get(alert["tenant"], "?")
            alerts.append(alert)
        return {
            "spec": spec.name,
            "arbiter": spec.topology.arbiter.policy,
            "n_tenants": len(spec.tenants),
            "windows": len(aggregator.snapshots),
            "packets_completed": outputs["packets_completed"],
            "packets_dropped": outputs["packets_dropped"],
            "cross_tenant_wait_ns": outputs["cross_tenant_wait_ns"],
            "tenants": rows,
            "alerts": alerts,
            "n_pass": sum(1 for r in rows if r["passed"]),
            "n_fail": sum(1 for r in rows if not r["passed"]),
            "audit": {
                "records": len(log),
                "chain_ok": log.verify_chain() is None,
            },
        }


def _offered_by_tenant(spec: ScenarioSpec, built) -> Dict[str, int]:
    """Per-tenant offered load, from the deterministic packet list."""
    from repro.net.packet import ip_to_int

    by_dst = {ip_to_int(t.dst_ip()): t.name for t in spec.tenants}
    offered = {t.name: 0 for t in spec.tenants}
    for packet in built.make_packets():
        name = by_dst.get(packet.ip.dst_ip)
        if name is not None:
            offered[name] += 1
    return offered


def _tenant_row(tenant: TenantSpec, nf_id: int, registry, outputs,
                offered: Dict[str, int], xwait: Dict[str, float],
                teardown_ns: float, alerter: BurnRateAlerter,
                ) -> Dict[str, object]:
    latency = registry.histogram(LATENCY_METRIC, tenant=nf_id)
    completed = int(
        outputs["per_tenant_completed"].get(tenant.name, 0))
    tenant_offered = offered.get(tenant.name, 0)
    tenant_xwait = xwait.get(str(nf_id), 0.0)
    n_alerts = sum(1 for a in alerter.alerts if a.tenant == nf_id)
    row: Dict[str, object] = {
        "tenant": tenant.name,
        "nf_id": nf_id,
        "offered": tenant_offered,
        "completed": completed,
        "p99_latency_ns": round(latency.p99, 3),
        "cross_tenant_wait_ns": round(tenant_xwait, 3),
        "teardown_ns": round(teardown_ns, 3),
        "alerts": n_alerts,
    }
    if tenant.slo is None:
        row["objectives"] = []
        row["passed"] = True
        return row
    results = evaluate_tenant(
        tenant.slo, latency=latency, offered=tenant_offered,
        completed=completed, cross_tenant_wait_ns=tenant_xwait,
        teardown_ns=teardown_ns)
    row["objectives"] = [asdict(r) for r in results]
    row["passed"] = all(r.passed for r in results)
    return row


# ----------------------------------------------------------------------
# The sweep and the demo
# ----------------------------------------------------------------------


def _write_openmetrics(path: str, families: List[object]) -> None:
    """Merge the cells' OpenMetrics families and write them as text."""
    from repro.obs import openmetrics

    text = openmetrics.render_families(openmetrics.merge_families(families))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def run_scorecard(n_tenants: int = 128, seed: int = 7,
                  quick: bool = False,
                  arbiters: Sequence[str] = DEFAULT_ARBITERS,
                  sanitize: bool = False,
                  window_ns: int = DEFAULT_WINDOW_NS,
                  openmetrics_path: Optional[str] = None,
                  workers: Optional[int] = None,
                  ) -> Dict[str, object]:
    """Sweep the arbiter axis and assemble the scorecard report.

    With ``workers`` set, the arbiter cells are dealt to that many
    worker processes (:func:`repro.obs.bench.run_cells`); each
    cell runs whole in one of them, so the report is byte-identical to
    the run without workers.
    """
    if workers is not None and openmetrics_path is not None:
        raise ValueError("the OpenMetrics export needs the in-process "
                         "registry")
    families: Optional[List[object]] = \
        [] if openmetrics_path is not None else None
    specs = [make_scorecard_spec(arbiter, n_tenants, seed, quick=quick)
             for arbiter in arbiters]
    blocks: List[Any]
    if workers is None:
        blocks = [run_spec(spec, quick=quick, sanitize=sanitize,
                           window_ns=window_ns, families_sink=families)
                  for spec in specs]
    else:
        from repro.obs.bench import run_cells

        blocks = run_cells(
            run_spec, [(spec, quick, sanitize, window_ns) for spec in specs],
            workers=workers)
    results = dict(zip(arbiters, blocks))
    if openmetrics_path is not None:
        _write_openmetrics(openmetrics_path, families)
    report: Dict[str, object] = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "mode": "quick" if quick else "full",
        "seed": seed,
        "n_tenants": n_tenants,
        "window_ns": window_ns,
        "isosan_active": bool(sanitize),
        "arbiters": results,
        "summary": [
            {
                "arbiter": arbiter,
                "n_pass": result["n_pass"],
                "n_fail": result["n_fail"],
                "pages": sum(1 for a in result["alerts"]
                             if a["tier"] == "page"),
                "tickets": sum(1 for a in result["alerts"]
                               if a["tier"] == "ticket"),
                "cross_tenant_wait_ns":
                    round(float(result["cross_tenant_wait_ns"]), 3),
                "packets_completed": result["packets_completed"],
            }
            for arbiter, result in results.items()
        ],
    }
    return report


def run_violation_demo(seed: int = 7, sanitize: bool = False,
                       window_ns: int = 20_000,
                       openmetrics_path: Optional[str] = None,
                       ) -> Dict[str, object]:
    """Run the seeded alert self-test and compare against expectation."""
    families: Optional[List[object]] = \
        [] if openmetrics_path is not None else None
    spec = make_violation_spec(seed)
    result = run_spec(spec, quick=True, sanitize=sanitize,
                      window_ns=window_ns, families_sink=families)
    if openmetrics_path is not None:
        _write_openmetrics(openmetrics_path, families)
    observed = sorted((a["tenant_name"], a["kind"], a["tier"])
                      for a in result["alerts"])
    expected = sorted(EXPECTED_DEMO_ALERTS)
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "mode": "violation-demo",
        "seed": seed,
        "window_ns": window_ns,
        "isosan_active": bool(sanitize),
        "arbiters": {spec.topology.arbiter.policy: result},
        "expected_alerts": [list(a) for a in expected],
        "observed_alerts": [list(a) for a in observed],
        "alerts_match": observed == expected,
        "summary": [],
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


_CSV_FIELDS = (
    "arbiter", "tenant", "nf_id", "offered", "completed",
    "p99_latency_ns", "cross_tenant_wait_ns", "teardown_ns", "alerts",
    "passed", "failed_objectives",
)


def format_csv(report: Dict[str, object]) -> str:
    """One row per (arbiter, tenant) — the spreadsheet-shaped scorecard."""
    buffer = io.StringIO()
    buffer.write(",".join(_CSV_FIELDS) + "\n")
    for arbiter in sorted(report["arbiters"]):
        result = report["arbiters"][arbiter]
        for row in result["tenants"]:
            failed = ";".join(obj["kind"] for obj in row["objectives"]
                              if not obj["passed"])
            values = [arbiter] + [
                str(row[field]) for field in _CSV_FIELDS[1:-1]
            ] + [failed]
            buffer.write(",".join(values) + "\n")
    return buffer.getvalue()


def format_text(report: Dict[str, object]) -> str:
    lines = [
        f"repro slo — {report['mode']} mode, seed {report['seed']}, "
        f"window {report['window_ns']} ns, "
        f"isosan {'on' if report['isosan_active'] else 'off'}",
        "",
    ]
    if report["summary"]:
        lines.append(
            f"{'arbiter':<9} {'pass':>5} {'fail':>5} {'pages':>6} "
            f"{'tickets':>8} {'xwait ns':>14} {'pkts':>6}")
        for row in report["summary"]:
            lines.append(
                f"{row['arbiter']:<9} {row['n_pass']:>5} "
                f"{row['n_fail']:>5} {row['pages']:>6} "
                f"{row['tickets']:>8} "
                f"{row['cross_tenant_wait_ns']:>14} "
                f"{row['packets_completed']:>6}")
        lines.append("")
    for arbiter in sorted(report["arbiters"]):
        result = report["arbiters"][arbiter]
        lines.append(
            f"[{arbiter}] {result['n_pass']} pass / "
            f"{result['n_fail']} fail, {len(result['alerts'])} alerts, "
            f"{result['windows']} windows, audit chain "
            f"{'ok' if result['audit']['chain_ok'] else 'BROKEN'} "
            f"({result['audit']['records']} records)")
        lines.append(
            f"  {'tenant':<6} {'off':>5} {'done':>5} {'p99 ns':>10} "
            f"{'xwait ns':>12} {'al':>3} verdict")
        for row in result["tenants"]:
            failed = ",".join(obj["kind"] for obj in row["objectives"]
                              if not obj["passed"])
            verdict = "PASS" if row["passed"] else f"FAIL({failed})"
            lines.append(
                f"  {row['tenant']:<6} {row['offered']:>5} "
                f"{row['completed']:>5} {row['p99_latency_ns']:>10} "
                f"{row['cross_tenant_wait_ns']:>12} {row['alerts']:>3} "
                f"{verdict}")
        for alert in result["alerts"]:
            lines.append(
                f"  alert: {alert['tier']} {alert['tenant_name']} "
                f"{alert['kind']} fast={alert['fast_burn']:.2f} "
                f"slow={alert['slow_burn']:.2f} "
                f"window={alert['window_index']}")
        lines.append("")
    if report["mode"] == "violation-demo":
        verdict = "MATCH" if report["alerts_match"] else "MISMATCH"
        lines.append(f"expected alerts: {report['expected_alerts']}")
        lines.append(f"observed alerts: {report['observed_alerts']}")
        lines.append(f"alert verdict: {verdict}")
        lines.append("")
    return "\n".join(lines)


_FORMATTERS = {"text": format_text, "json": format_json,
               "csv": format_csv}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    from repro.analysis.isosan import enabled_by_env

    parser = argparse.ArgumentParser(
        prog="python -m repro slo",
        description="Per-tenant SLO scorecard: run N Zipf-skewed "
                    "tenants under each bus arbiter, judge every "
                    "tenant against its SLOs, and report pass/fail "
                    "with burn-rate alerts.")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (fewer packets/rounds; "
                             "default 128 tenants)")
    parser.add_argument("--tenants", type=positive_int, default=None,
                        metavar="N",
                        help="tenant count per arbiter (default: 128 "
                             "quick, 256 full)")
    parser.add_argument("--seed", type=int, default=7,
                        help="base seed; every cell seed derives from "
                             "it (default 7)")
    parser.add_argument("--arbiters", default=",".join(DEFAULT_ARBITERS),
                        metavar="LIST",
                        help="comma-separated arbiter policies "
                             "(default fcfs,temporal,drr)")
    parser.add_argument("--window-ns", type=positive_int,
                        default=DEFAULT_WINDOW_NS,
                        help="aggregation window in simulated ns "
                             f"(default {DEFAULT_WINDOW_NS})")
    parser.add_argument("--format", choices=sorted(_FORMATTERS),
                        default="text",
                        help="report format (default text)")
    parser.add_argument("--sanitize", action="store_true",
                        help="run every cell under the IsoSan runtime "
                             "sanitizer (also via REPRO_ISOSAN=1)")
    parser.add_argument("--shards", type=positive_int, default=None,
                        metavar="N",
                        help="deal the arbiter cells to N worker "
                             "processes (the report is byte-identical to "
                             "the run without --shards)")
    parser.add_argument("--violation-demo", action="store_true",
                        help="run the seeded alert self-test instead "
                             "of the sweep; exit 1 unless exactly the "
                             "expected alerts fire")
    parser.add_argument("--openmetrics", default=None, metavar="PATH",
                        help="also export the final registry + window "
                             "series as OpenMetrics text to PATH")
    parser.add_argument("-o", "--out", default=None, metavar="PATH",
                        help="also write the rendered report to PATH")
    args = parser.parse_args(argv)

    sanitize = args.sanitize or enabled_by_env(default=False)
    if args.shards is not None and (args.violation_demo or args.openmetrics):
        print("error: --shards cannot combine with --violation-demo "
              "or --openmetrics (both need the in-process registry)",
              file=sys.stderr)
        return 2
    if args.violation_demo:
        report = run_violation_demo(
            seed=args.seed, sanitize=sanitize,
            openmetrics_path=args.openmetrics)
    else:
        n_tenants = args.tenants if args.tenants is not None \
            else (128 if args.quick else 256)
        arbiters = tuple(a for a in args.arbiters.split(",") if a)
        bad = [a for a in arbiters if a not in ARBITER_POLICIES]
        if not arbiters or bad:
            print(f"error: unknown arbiter(s) {bad or ['<empty>']}; "
                  f"expected a comma-separated subset of "
                  f"{','.join(ARBITER_POLICIES)}", file=sys.stderr)
            return 2
        repeated = sorted({a for a in arbiters if arbiters.count(a) > 1})
        if repeated:
            print(f"error: repeated arbiter(s) {repeated}; each runs "
                  f"once", file=sys.stderr)
            return 2
        report = run_scorecard(
            n_tenants=n_tenants, seed=args.seed, quick=args.quick,
            arbiters=arbiters, sanitize=sanitize,
            window_ns=args.window_ns,
            openmetrics_path=args.openmetrics, workers=args.shards)
    code = emit_report(_FORMATTERS[args.format](report),
                       ok=report.get("alerts_match", True), out=args.out,
                       stream=stream, label="slo report")
    if args.openmetrics:
        print(f"openmetrics export written to {args.openmetrics}",
              file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover — exercised via -m repro
    raise SystemExit(main())
