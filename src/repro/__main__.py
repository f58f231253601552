"""Command-line entry point: ``python -m repro [command]``.

Commands:

* ``report``  — the headline paper-vs-reproduced evaluation summary
* ``attacks`` — replay the §3.3 attacks (commodity vs S-NIC)
* ``trace``   — run the two-tenant co-tenancy demo with tracing on and
  write a Chrome/Perfetto-loadable ``trace_event`` JSON
  (``python -m repro trace -o snic_trace.json -n 60``)
* ``matrix``  — sweep the declarative scenario matrix
  ``{nic_model} x {tenant_count} x {fault_class} x {arbiter} x {seed}``
  and emit one schema-versioned record per cell
  (``--quick`` for the 16-cell CI gate, ``--format text|json|csv``,
  ``--sanitize`` to run every cell under IsoSan, ``--shards N`` to
  deal whole cells to N worker processes; the report is byte-identical
  to the run without the flag)
* ``bench``   — run the unified benchmark harness over every
  ``benchmarks/bench_*.py`` scenario and write a schema-versioned
  ``BENCH_<timestamp>.json`` (``--quick`` for CI-sized runs,
  ``--profile`` for a flamegraph of the co-tenancy scenario,
  ``--compare A B`` to diff two artifacts and flag regressions,
  ``--sanitize`` to run every scenario under the IsoSan runtime
  sanitizer, ``--shards N`` to deal the scenarios to worker processes)
* ``audit``   — the isolation scorecard: solo-vs-co-tenant differential
  on every shared hardware resource under the commodity and S-NIC
  configurations, with per-resource interference matrices, side-channel
  capacity estimates, and a pass/fail noninterference verdict
  (``--quick`` for the CI gate, ``--format text|json|markdown``)
* ``chaos``   — the fault-injection blast-radius matrix: run every
  fault class (DMA errors, bus babble, NF crashes, wire corruption,
  ...) as a commodity-vs-S-NIC differential and verify the blast
  radius is the faulty tenant on S-NIC and the device on commodity
  (``--quick`` for CI, ``--matrix`` for all twelve classes,
  ``--seed N`` for a replayable schedule)
* ``slo``     — the per-tenant SLO scorecard: run hundreds of
  Zipf-skewed tenants under each bus arbiter, aggregate sim-time
  windows, fire SRE burn-rate alerts, and judge every tenant's
  p99-latency / throughput-floor / interference-budget /
  teardown-deadline objectives (``--quick``, ``--tenants N``,
  ``--violation-demo`` for the seeded alert self-test,
  ``--openmetrics PATH`` for the OpenMetrics export, ``--shards N``
  to deal the arbiter cells to N worker processes, with the report
  byte-identical to the run without the flag)
* ``postmortem`` — inspect a forensics bundle dropped by ``chaos`` or
  ``matrix`` (``--postmortem-dir``): pretty-print the audit
  excerpt and its flight tail, ``--verify`` the sha256 hash chain, or
  ``--diff`` two bundles field by field
* ``lint``    — S-NIC-specific static analysis over the source tree:
  one rule per hazard -- the per-module rules SNIC001, SNIC002,
  SNIC004, SNIC005 and SNIC008 and the whole-program rule SNIC010
  (module-level state a cell writes outside its cell state) -- in
  one pass (``--format text|json|github``; ``--stats`` prints
  the per-rule suppression table and fails on stale
  ``# snic: ignore[...]`` comments)
* ``sanitize`` — determinism checker: run the co-tenancy demo twice
  and fail on event-stream digest divergence
* ``info``    — version, package inventory and this command table
  (default)

Each experiment has exactly this one entry point.  ``matrix``, ``slo``,
``bench``, ``audit``, ``chaos`` and ``sanitize`` run every cell through
:func:`repro.obs.bench.cell_scope` (state reset, IsoSan, forensics) and
end in :func:`repro.obs.bench.emit_report`.
"""

from __future__ import annotations

import sys

#: command -> one-line description, in display order (``--help`` prints
#: exactly this table, so adding a command here *is* documenting it).
_COMMANDS = {
    "info": "version, package inventory and this table (default)",
    "report": "headline paper-vs-reproduced evaluation summary",
    "attacks": "replay the §3.3 commodity attacks (corruption, DPI "
               "theft, bus DoS)",
    "trace": "trace the two-tenant co-tenancy demo; export a Chrome "
             "trace (-o PATH, -n PACKETS, -m METRICS)",
    "matrix": "sweep {nic_model} x {tenant_count} x {fault_class} x "
              "{arbiter}; one record per cell (--quick, --shards N)",
    "bench": "run benchmarks/bench_*.py under the unified harness "
             "(--quick, --profile, --compare A B, --shards N)",
    "audit": "isolation scorecard: solo-vs-co-tenant differential per "
             "shared resource (--quick)",
    "chaos": "fault-injection blast-radius differential, commodity vs "
             "S-NIC (--quick, --matrix, --seed N, --postmortem-dir DIR)",
    "slo": "per-tenant SLO scorecard with burn-rate alerts across "
           "arbiters (--quick, --tenants N, --shards N, "
           "--violation-demo, --openmetrics PATH)",
    "postmortem": "inspect a forensics bundle: pretty-print, --verify "
                  "the hash chain, --diff two bundles",
    "lint": "S-NIC-specific static analysis, one rule per hazard "
            "(SNIC001/002/004/005/008 and the whole-program SNIC010; "
            "--format text|json|github, --stats)",
    "sanitize": "determinism checker: same seed must give the same "
                "event-stream digest",
    "help": "this table",
}


def _info() -> None:
    import repro

    print(f"repro {repro.__version__} — S-NIC (EuroSys 2024) reproduction")
    print("subpackages:", ", ".join(repro.__all__))
    print()
    _help()


def _help() -> int:
    """``python -m repro help`` / ``--help``: the full command table."""
    print("usage: python -m repro <command> [options]")
    print()
    print("commands:")
    width = max(len(name) for name in _COMMANDS)
    for name, description in _COMMANDS.items():
        print(f"  {name:<{width}}  {description}")
    print()
    print("`python -m repro <command> --help` shows each command's options.")
    return 0


def _trace(argv: list) -> int:
    """``python -m repro trace [-o trace.json] [-n PACKETS] [-m PATH]``"""
    import argparse

    from repro.obs.bench import positive_int

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run the two-tenant co-tenancy demo with the "
                    "repro.obs tracer enabled and export a Chrome "
                    "trace_event JSON (load it in chrome://tracing or "
                    "https://ui.perfetto.dev).",
    )
    parser.add_argument("-o", "--out", default="snic_trace.json",
                        help="trace output path (default: snic_trace.json)")
    parser.add_argument("-m", "--metrics", default=None,
                        help="also dump the metrics registry as JSON here")
    parser.add_argument("-n", "--packets", type=positive_int, default=60,
                        help="packets to inject across the tenants")
    args = parser.parse_args(argv)

    from repro.obs import export, get_registry
    from repro.obs.scenario import run_cotenancy_scenario

    summary = run_cotenancy_scenario(out_path=args.out,
                                     n_packets=args.packets,
                                     metrics_path=args.metrics)
    print(f"wrote {summary['trace_path']}: {summary['events']} events, "
          f"{summary['spans']} spans")
    print(f"  tenants: {summary['tenants']}")
    print(f"  layers:  {', '.join(summary['span_layers'])}")
    print(f"  tracks:  {', '.join(summary['tracks'])}")
    print(f"  packets: {summary['packets_completed']} completed, "
          f"{summary['packets_dropped']} dropped")
    if summary["metrics_path"]:
        print(f"wrote {summary['metrics_path']} (metrics registry dump)")
    print()
    print(export.format_metrics_table(get_registry(),
                                      title="metrics snapshot"))
    print()
    print("open the trace in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _bench(argv: list) -> int:
    """``python -m repro bench [--quick] [--profile] [--compare A B]``"""
    import argparse

    from repro.obs import bench

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run every benchmarks/bench_*.py scenario under the "
                    "unified harness and write a schema-versioned "
                    "BENCH_<timestamp>.json, or diff two such artifacts.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized parameters (seconds, not minutes)")
    parser.add_argument("--profile", action="store_true",
                        help="also profile the co-tenancy scenario and "
                             "write a collapsed-stack flamegraph file")
    parser.add_argument("--compare", nargs=2, metavar=("BASELINE", "CANDIDATE"),
                        help="diff two BENCH_*.json artifacts instead of "
                             "running; exits 1 when a regression is flagged")
    parser.add_argument("--threshold", type=float, default=20.0,
                        help="regression threshold for --compare, percent "
                             "(default 20)")
    parser.add_argument("--only", action="append", default=None,
                        metavar="NAME",
                        help="run only scenarios whose name contains NAME "
                             "(repeatable)")
    parser.add_argument("--out", default=None,
                        help="artifact path (default: BENCH_<ts>.json at "
                             "the repo root)")
    parser.add_argument("--verbose", action="store_true",
                        help="stream each scenario's own table output")
    parser.add_argument("--sanitize", action="store_true",
                        help="run every scenario under the IsoSan runtime "
                             "sanitizer (isolation violations become "
                             "scenario errors)")
    parser.add_argument("--shards", type=bench.positive_int, default=None,
                        metavar="N",
                        help="deal the bench scripts to a pool of N "
                             "worker processes (the artifact keeps "
                             "discovery order)")
    args = parser.parse_args(argv)

    if args.compare:
        try:
            report = bench.compare_paths(args.compare[0], args.compare[1],
                                         threshold=args.threshold / 100.0)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot compare: {exc}")
        return bench.emit_report(bench.format_compare(report) + "\n",
                                 ok=not report["n_regressions"])

    def progress(record):
        marker = {"ok": "ok", "error": "ERROR", "skipped": "skip"}[record.status]
        print(f"  {record.name:<28} {marker:<5} {record.wall_s:>8.3f}s  "
              f"sim {record.sim_time_ns:>12} ns  "
              f"{record.events_executed:>7} events  "
              f"{record.trace_events:>6} trace-ev")
        if record.error:
            print("    " + record.error.strip().replace("\n", "\n    "))

    mode = "quick" if args.quick else "full"
    suffix = " [IsoSan]" if args.sanitize else ""
    print(f"repro bench — {mode} run over benchmarks/bench_*.py{suffix}")
    def _run():
        # Shard workers fork inside this call, so a surrounding
        # sanitized() scope travels into every worker process.
        return bench.run_benchmarks(
            quick=args.quick, only=args.only, capture=not args.verbose,
            progress=progress, workers=args.shards)

    if args.sanitize:
        from repro.analysis.isosan import sanitized

        with sanitized():
            artifact = _run()
    else:
        artifact = _run()
    out_path = bench.write_artifact(artifact, args.out)
    lines = [f"\nwrote {out_path}: {artifact['n_ok']}/"
             f"{artifact['n_benchmarks']} scenarios ok in "
             f"{artifact['total_wall_s']:.1f}s "
             f"(schema {artifact['schema']}/v{artifact['schema_version']})"]
    if args.profile:
        from repro.obs.profile import profile_cotenancy_scenario

        collapsed = str(out_path).replace(".json", "") + ".collapsed"
        result = profile_cotenancy_scenario(collapsed_path=collapsed)
        profiler = result["profiler"]
        lines += [f"\nwrote {collapsed} "
                  f"({len(profiler.collapsed())} stacks; feed it to "
                  f"flamegraph.pl or https://www.speedscope.app)",
                  profiler.format_report(top=15)]
    return bench.emit_report("\n".join(lines) + "\n",
                             ok=artifact["n_error"] == 0)


def main(argv: list) -> int:
    command = argv[1] if len(argv) > 1 else "info"
    if command in ("help", "-h", "--help"):
        return _help()
    if command == "info":
        _info()
    elif command == "trace":
        return _trace(argv[2:])
    elif command == "matrix":
        from repro.scenario.matrix import main as matrix_main

        return matrix_main(argv[2:])
    elif command == "bench":
        return _bench(argv[2:])
    elif command == "audit":
        from repro.obs.audit import main as audit_main

        return audit_main(argv[2:])
    elif command == "chaos":
        from repro.faults.chaos import main as chaos_main

        return chaos_main(argv[2:])
    elif command == "slo":
        from repro.obs.scorecard import main as slo_main

        return slo_main(argv[2:])
    elif command == "postmortem":
        from repro.obs.postmortem import main as postmortem_main

        return postmortem_main(argv[2:])
    elif command == "lint":
        from repro.analysis.lint import main as lint_main

        return lint_main(argv[2:])
    elif command == "sanitize":
        from repro.analysis.determinism import main as sanitize_main

        return sanitize_main(argv[2:])
    elif command == "report":
        from repro.report import main as report_main

        report_main()
    elif command == "attacks":
        from repro.commodity.attacks import (
            bus_dos_attack,
            run_dpi_stealing_experiment,
            run_packet_corruption_experiment,
        )
        from repro.commodity.agilio import AgilioNIC

        result, clean, attacked = run_packet_corruption_experiment()
        print(f"packet corruption (LiquidIO): {result.details}; "
              f"translations {clean} -> {attacked}")
        result, ruleset = run_dpi_stealing_experiment()
        print(f"DPI ruleset stealing (LiquidIO): {result.details}")
        result = bus_dos_attack(AgilioNIC())
        print(f"bus DoS (Agilio): {result.details}")
        print("replays on S-NIC are all blocked — see examples/attack_demo.py")
    else:
        print(f"unknown command {command!r}", file=sys.stderr)
        _info()
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
