"""One workload run, in a fresh interpreter: ``run.py`` starts this.

The child imports ``repro`` from the checkout's ``src/``, writes the
workload's generated spec file, installs the benchmark's timers (or,
with ``--trace``, its layer spans), calls ``repro.__main__.main`` with
the generated arguments and writes what it measured to ``--result`` as
JSON.  The report the CLI prints goes to ``<workdir>/report.json``.

    python benchmarks/perf/child.py --workload nf-dense --seed 7 \\
        --workdir DIR --result DIR/result.json [--trace] [--chrome PATH] \\
        [--cpu N]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import sys
from pathlib import Path
from time import monotonic_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--chrome", default=None,
                        help="write the traced run's spans here")
    parser.add_argument("--scale", type=int, default=1,
                        help="shrink the workload (tests only)")
    parser.add_argument("--cpu", type=int, default=None,
                        help="run on this CPU only (the probe's)")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import spans
    import workloads

    for module in spans.PRELOAD:
        importlib.import_module(module)
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from repro.__main__ import main as repro_main

    cli = ["repro"] + workloads.prepare(args.workload, args.seed,
                                        args.workdir, scale=args.scale)
    report_path = os.path.join(args.workdir, "report.json")
    if args.trace:
        tracer = spans.SpanTracer()
        patches = spans.install_trace(tracer)
        entry = tracer.span("other", "repro.__main__:main", repro_main,
                            coarse=True)
    else:
        timers = spans.Timers()
        patches = spans.install_timers(timers)
        entry = repro_main
    try:
        with open(report_path, "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            start = monotonic_ns()
            exit_code = entry(cli)
            end = monotonic_ns()
    finally:
        patches.remove()

    result = {"workload": args.workload, "seed": args.seed, "argv": cli,
              "exit_code": exit_code, "wall": [start, end],
              "wall_s": (end - start) / 1e9, "report": report_path,
              "traced": args.trace}
    if args.trace:
        result["layers"] = {
            "self_ns": dict(tracer.self_ns),
            "total_ns": dict(tracer.total_ns),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "kernel_callback_ns": tracer.kernel.callback_ns,
            "spans_kept": sum(tracer.kept.values()),
            "spans_dropped": sum(tracer.dropped.values()),
        }
        if args.chrome:
            with open(args.chrome, "w", encoding="utf-8") as fh:
                json.dump(spans.chrome_trace(tracer, {
                    "workload": args.workload, "seed": args.seed,
                    "argv": cli}), fh)
    else:
        result["timers"] = vars(timers)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
