"""``repro.obs.bench`` — the unified benchmark harness, and the one
experiment harness every front end runs its cells through.

The evaluation used to be 22 one-off scripts under ``benchmarks/``,
each printing tables by hand, with no recorded performance trajectory:
a regression in the event kernel or the cache simulator would ship
silently.  This module makes the whole evaluation a single measured
unit:

* **discovery** — every ``benchmarks/bench_*.py`` that exposes a
  ``run(quick: bool) -> dict`` entry point is a *scenario*;
* **isolation** — each scenario runs in a fresh
  :class:`~repro.obs.cell.CellState`: a new metrics registry (serial
  labels restart at ``#1``), a new disabled tracer and zeroed
  event-kernel tallies, so scenarios can neither alias nor observe
  each other;
* **telemetry** — per scenario the harness records host wall-time,
  simulated nanoseconds advanced, discrete events executed, trace
  events recorded, registry size, and the scenario's own key model
  outputs (whatever its ``run`` returns);
* **artifact** — one schema-versioned ``BENCH_<timestamp>.json`` at the
  repo root per run;
* **regression detection** — :func:`compare` diffs two artifacts and
  flags wall-time regressions beyond a configurable threshold, plus
  sim-side drift (different event counts for the same scenario mean the
  *model* changed, not the machine).

The same isolation serves every experiment front end (``matrix``,
``slo``, ``bench``, ``audit``, ``chaos`` and ``sanitize``):
:func:`isolate` installs the one fresh cell state, :func:`cell_scope`
is the one way to run a cell (isolate, optionally sanitize and arm
forensics, isolate again), :func:`run_differential` is the one
commodity-vs-S-NIC leg runner of ``audit`` and ``chaos``,
:func:`run_cells` deals whole cells to worker processes, and
:func:`format_json` plus :func:`emit_report` are the one report tail.

CLI: ``python -m repro bench [--quick] [--profile] [--compare A B]``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import gc
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path, PurePath
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    TextIO, Tuple)

from repro.obs.cell import CELL, CellState

SCHEMA = "repro.bench"
SCHEMA_VERSION = 1

#: Default wall-time regression threshold for :func:`compare` (fraction).
DEFAULT_THRESHOLD = 0.20


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------

def default_bench_dir() -> Path:
    """The repo's ``benchmarks/`` directory (source checkouts only)."""
    here = Path(__file__).resolve()
    for candidate in (here.parents[3] / "benchmarks",
                      Path.cwd() / "benchmarks"):
        if candidate.is_dir():
            return candidate
    raise FileNotFoundError(
        "no benchmarks/ directory found; pass bench_dir explicitly")


def discover(bench_dir: Optional[Path] = None) -> List[Path]:
    """Every ``bench_*.py`` scenario file, sorted by name."""
    bench_dir = Path(bench_dir) if bench_dir else default_bench_dir()
    return sorted(bench_dir.glob("bench_*.py"))


def scenario_name(path: Path) -> str:
    return path.stem[len("bench_"):] if path.stem.startswith("bench_") \
        else path.stem


def load_scenario(path: Path):
    """Import one bench script as a module (``_common`` importable)."""
    import importlib.util

    bench_dir = str(path.parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    spec = importlib.util.spec_from_file_location(
        f"repro_bench.{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------

@dataclass
class BenchRecord:
    """One scenario's measured run."""

    name: str
    status: str = "ok"                  # "ok" | "error" | "skipped"
    wall_s: float = 0.0
    sim_time_ns: int = 0
    events_executed: int = 0
    trace_events: int = 0
    metrics_instruments: int = 0
    #: ``{metric{labels}: {count,p50,p95,p99}}`` for every histogram the
    #: scenario left in its registry — tail latency lands in the
    #: artifact without each bench script exporting it by hand.
    histograms: Optional[Dict[str, Dict[str, float]]] = None
    outputs: Optional[Dict[str, object]] = None
    error: Optional[str] = None


# ----------------------------------------------------------------------
# The experiment harness: isolation, cell scope, report tail
# ----------------------------------------------------------------------

def isolate() -> None:
    """Install a fresh :class:`~repro.obs.cell.CellState`: a new
    metrics registry, tracer, audit log, interference accountant and
    event-kernel tallies, all off and empty.  The previous cell's
    objects are dropped, not cleared."""
    CELL.install(CellState())


def bind_clock(clock: Optional[Callable[[], float]]) -> None:
    """Put every enabled sink (tracer, audit log) on ``clock``, a cell's
    simulated time; ``None`` releases both, so nothing keeps reading a
    dead cell's simulator."""
    for sink in (CELL.tracer, CELL.audit):
        if clock is None or sink.enabled:
            sink.use_clock(clock)


def _fill_record(record: BenchRecord) -> None:
    """Copy the kernel, tracer and registry tallies into ``record``."""
    record.sim_time_ns = CELL.kernel.sim_ns_advanced
    record.events_executed = CELL.kernel.events_executed
    record.trace_events = len(CELL.tracer.events)
    record.metrics_instruments = CELL.registry.series()
    record.histograms = _histogram_percentiles(CELL.registry)


@contextlib.contextmanager
def cell_scope(record: Optional[BenchRecord] = None, *,
               sanitize: bool = False, audit: bool = False,
               bundle: Optional[str] = None, spec: object = None,
               note: Optional[Dict[str, object]] = None) -> Iterator[None]:
    """Run one experiment cell between two :func:`isolate` resets.

    Inside, in order: IsoSan when ``sanitize``; the audit log when
    ``audit`` or when ``bundle`` (a postmortem path) is set.  A forensic
    scope writes its bundle from the live state before the trailing
    reset: with the exception as the reason when the body raises, or
    with ``note`` as the reason when one is given and the body
    returns.  With a ``record``, its kernel, tracer and registry
    tallies are filled before that reset too, and an exception marks
    the record an error instead of propagating; without one,
    exceptions propagate.
    """
    from repro.analysis.isosan import sanitized
    from repro.obs import postmortem

    isolate()
    if audit or bundle is not None:
        CELL.audit.enable()
    try:
        with sanitized() if sanitize else contextlib.nullcontext():
            yield
    except Exception as exc:
        if bundle is not None:
            postmortem.write_bundle(
                postmortem.build_bundle(reason=exc, spec=spec), bundle)
        if record is None:
            raise
        record.status = "error"
        # Start the traceback at the body, not at this scope's frame.
        record.error = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__.tb_next, limit=8))
    else:
        if bundle is not None and note is not None:
            postmortem.write_bundle(
                postmortem.build_bundle(reason=note, spec=spec), bundle)
    finally:
        if record is not None:
            _fill_record(record)
        isolate()


def run_differential(
        items: Sequence[Any], leg: Callable[[Any, bool, bool], Any],
        forensics: Optional[Callable[[Any], Dict[str, Any]]] = None,
) -> Dict[Any, Dict[str, Tuple[Any, Any]]]:
    """The commodity-vs-S-NIC differential ``audit`` and ``chaos`` share.

    For every item, under the commodity and then the S-NIC
    configuration, run the baseline leg ``leg(item, snic, False)`` and
    the perturbed leg ``leg(item, snic, True)`` (a well-behaved
    co-tenant for the audit, an injected fault for chaos), each in its
    own :func:`cell_scope` and all inside one IsoSan ``sanitized()``
    scope.  A leg reads what it reports from its cell before it
    returns.  ``forensics(item)`` gives the ``bundle``, ``spec`` and
    ``note`` of the perturbed S-NIC leg's scope; no other leg is
    armed.  Returns ``{item: {"commodity": (baseline, perturbed),
    "snic": (baseline, perturbed)}}``.
    """
    from repro.analysis.isosan import sanitized

    results: Dict[Any, Dict[str, Tuple[Any, Any]]] = {}
    with sanitized():
        for item in items:
            legs: Dict[str, Tuple[Any, Any]] = {}
            results[item] = legs
            for label, snic in (("commodity", False), ("snic", True)):
                with cell_scope():
                    baseline = leg(item, snic, False)
                armed = forensics(item) if forensics and snic else {}
                with cell_scope(**armed):
                    legs[label] = (baseline, leg(item, snic, True))
    return results


# ----------------------------------------------------------------------
# Dealing whole cells to worker processes (``--shards N``)
# ----------------------------------------------------------------------

class ShardError(RuntimeError):
    """A cell failed in its worker, or its worker died."""


_PLAIN_ATOMS = (type(None), bool, int, float, str, bytes, PurePath,
                enum.Enum)


def _is_plain(value: object) -> bool:
    """Whether ``value`` is plain data: atoms, and tuples, lists,
    sets, dicts and frozen dataclasses of plain data."""
    if isinstance(value, _PLAIN_ATOMS):
        return True
    if isinstance(value, (tuple, list, set, frozenset)):
        return all(_is_plain(item) for item in value)
    if isinstance(value, dict):
        return all(_is_plain(key) and _is_plain(item)
                   for key, item in value.items())
    params = getattr(type(value), "__dataclass_params__", None)
    return params is not None and params.frozen and all(
        _is_plain(getattr(value, field.name))
        for field in dataclasses.fields(value))  # type: ignore[arg-type]


def run_cells(task: Callable[..., object], calls: Sequence[tuple],
              workers: int = 1) -> List[object]:
    """``task(*call)`` for every call, each call one whole cell, on a
    pool of ``workers`` processes; the results in call order.

    A cell runs through exactly the code a run without workers uses
    (:func:`~repro.scenario.matrix.run_cell`,
    :func:`~repro.obs.scorecard.run_spec` or a bench script), so the
    worker count never reaches a report.  A worker gets plain data and
    hands back plain data: an argument that is anything else (a live
    ``Simulator``, a ``BuiltScenario``, a registry) raises
    :class:`TypeError` here, before any cell runs, instead of running
    on a copy whose changes the caller never sees.  Raises
    :class:`ShardError` naming the cell whose task raised, or the first
    one left without a result when a worker died.  The pool uses the
    fork context, so the children inherit the parent's imports and any
    open ``sanitized()`` scope, and share its heap copy-on-write.
    """
    # Imported here: a run without workers never loads multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    for index, call in enumerate(calls):
        for arg in call:
            if not _is_plain(arg):
                raise TypeError(
                    f"cell {index} argument {type(arg).__name__} is not "
                    f"plain data; pass a spec, not a live simulation "
                    f"object")
    if not calls:
        return []
    n_workers = max(1, min(int(workers), len(calls)))
    # Forked workers inherit the parent heap copy-on-write.  Any garbage
    # the parent accumulated (say, an earlier in-process sweep)
    # would be traversed by every worker's collector, faulting those
    # shared pages into private copies and erasing the scale-out win --
    # so drop the garbage now and pin the survivors in the permanent
    # generation for the fork.
    gc.collect()
    gc.freeze()
    try:
        with ProcessPoolExecutor(
                max_workers=n_workers,
                mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(task, *call) for call in calls]
            results = []
            for index, future in enumerate(futures):
                try:
                    results.append(future.result())
                except Exception as exc:
                    pool.shutdown(wait=False, cancel_futures=True)
                    if isinstance(exc, BrokenProcessPool):
                        raise ShardError(
                            f"a worker died before cell {index} "
                            f"returned") from exc
                    raise ShardError(
                        f"cell {index} failed in its worker: "
                        f"{exc!r}") from exc
    finally:
        gc.unfreeze()
    return results


def positive_int(text: str) -> int:
    """argparse ``type=`` for counts and sizes: an integer >= 1, or a
    usage error (exit 2) rather than a traceback from deep in a run."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def format_json(report: Dict[str, object]) -> str:
    """A report as sorted, indented JSON: byte-stable across runs."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def emit_report(rendered: str, *, ok: bool = True,
                out: Optional[str] = None,
                stream: Optional[TextIO] = None,
                label: str = "report") -> int:
    """The one report tail: write ``rendered`` to ``stream`` (stdout)
    and, with ``out``, to that file; return the exit code, 0 iff
    ``ok``."""
    (stream if stream is not None else sys.stdout).write(rendered)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        print(f"{label} written to {out}", file=sys.stderr)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Running bench scripts
# ----------------------------------------------------------------------

def run_scenario(path: Path, quick: bool = False,
                 capture: bool = True) -> BenchRecord:
    """Run one bench script's ``run(quick)`` under full isolation."""
    record = BenchRecord(name=scenario_name(path))
    buffer = io.StringIO()
    with cell_scope(record):
        # snic: ignore[SNIC002] -- the bench harness *measures* host
        # wall-time; BENCH artifacts are timestamped, not byte-compared
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer) if capture \
                    else contextlib.nullcontext():
                module = load_scenario(path)
                run = getattr(module, "run", None)
                if run is None:
                    record.status = "skipped"
                    record.error = "no run(quick) entry point"
                    return record
                outputs = run(quick=quick)
            record.outputs = jsonable(outputs if isinstance(outputs, dict)
                                      else {"result": outputs})
        except Exception:
            record.status = "error"
            tail = buffer.getvalue().splitlines()[-5:]
            record.error = traceback.format_exc(limit=8) + (
                "\n[stdout tail]\n" + "\n".join(tail) if tail else "")
        finally:
            # snic: ignore[SNIC002] -- wall_s is the bench regression
            # signal; matrix cells leave it 0.0 instead
            record.wall_s = time.perf_counter() - started
    return record


def _histogram_percentiles(registry) -> Optional[Dict[str, Dict[str, float]]]:
    """Tail-latency summary of every populated histogram in ``registry``."""
    from repro.obs.export import _format_labels
    from repro.obs.metrics import Histogram

    out: Dict[str, Dict[str, float]] = {}
    for instrument in registry.instruments():
        if not isinstance(instrument, Histogram) or not instrument.count:
            continue
        key = instrument.name
        labels = _format_labels(dict(instrument.labels))
        if labels:
            key = f"{key}{{{labels}}}"
        out[key] = {
            "count": float(instrument.count),
            "p50": instrument.p50,
            "p95": instrument.p95,
            "p99": instrument.p99,
        }
    return dict(sorted(out.items())) or None


def run_benchmarks(
    bench_dir: Optional[Path] = None,
    quick: bool = False,
    only: Optional[Sequence[str]] = None,
    capture: bool = True,
    progress=None,
    workers: Optional[int] = None,
) -> Dict[str, object]:
    """Run every discovered scenario and build the artifact dict.

    ``only`` filters by scenario name (substring match); ``progress`` is
    an optional callable invoked with each finished :class:`BenchRecord`
    (the CLI uses it to print one line per scenario as it lands).

    ``workers`` deals the scripts to that many worker processes
    (:func:`run_cells`); the artifact keeps
    discovery order, and ``progress`` sees the records once all are
    done.  Sim-side fields do not depend on the worker count; wall
    times are measurements and never part of a byte-identity contract.
    """
    import platform

    import repro

    paths = discover(bench_dir)
    if only:
        paths = [p for p in paths
                 if any(pat in scenario_name(p) for pat in only)]
    records: List[BenchRecord] = []
    # snic: ignore[SNIC002] -- total_wall_s measures the whole bench run
    started = time.perf_counter()
    if workers is None:
        for path in paths:
            record = run_scenario(path, quick=quick, capture=capture)
            records.append(record)
            if progress is not None:
                progress(record)
    else:
        records = run_cells(
            run_scenario, [(path, quick, capture) for path in paths],
            workers=workers)
        if progress is not None:
            for record in records:
                progress(record)
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        # snic: ignore[SNIC002] -- a BENCH artifact records when it ran
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "repro_version": getattr(repro, "__version__", "unknown"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "n_benchmarks": len(records),
        "n_ok": sum(1 for r in records if r.status == "ok"),
        "n_error": sum(1 for r in records if r.status == "error"),
        # snic: ignore[SNIC002] -- the bench run's own host wall-time
        "total_wall_s": time.perf_counter() - started,
        "benchmarks": {r.name: dataclasses.asdict(r) for r in records},
    }


def artifact_path(out_dir: Optional[Path] = None,
                  timestamp: Optional[str] = None) -> Path:
    out_dir = Path(out_dir) if out_dir else default_bench_dir().parent
    # snic: ignore[SNIC002] -- BENCH file names are timestamped by design
    stamp = timestamp or time.strftime("%Y%m%d_%H%M%S")
    return out_dir / f"BENCH_{stamp}.json"


def write_artifact(artifact: Dict[str, object],
                   path: Optional[Path] = None) -> Path:
    path = Path(path) if path else artifact_path()
    path.write_text(json.dumps(artifact, indent=2, sort_keys=False) + "\n")
    return path


def load_artifact(path) -> Dict[str, object]:
    with open(path) as fh:
        try:
            artifact = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from exc
    if artifact.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} artifact "
                         f"(schema={artifact.get('schema')!r})")
    if int(artifact.get("schema_version", 0)) > SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {artifact['schema_version']} is newer "
            f"than this harness understands ({SCHEMA_VERSION})")
    return artifact


# ----------------------------------------------------------------------
# Comparison / regression detection
# ----------------------------------------------------------------------

def compare(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
) -> Dict[str, object]:
    """Diff two artifacts; flag wall-time regressions beyond ``threshold``.

    A scenario *regresses* when its candidate wall-time exceeds the
    baseline by more than ``threshold`` (fractional, default 20%).
    Changed ``events_executed``/``sim_time_ns`` are reported as *model
    drift* — the simulation itself changed, so wall-time deltas for that
    scenario are expected rather than alarming.
    """
    base = baseline["benchmarks"]
    cand = candidate["benchmarks"]
    rows: List[Dict[str, object]] = []
    for name in sorted(set(base) | set(cand)):
        a, b = base.get(name), cand.get(name)
        if a is None or b is None:
            rows.append({
                "name": name,
                "status": "added" if a is None else "removed",
                "regressed": False,
            })
            continue
        wall_a, wall_b = a["wall_s"], b["wall_s"]
        delta = (wall_b - wall_a) / wall_a if wall_a > 0 else 0.0
        drift = (a["events_executed"] != b["events_executed"]
                 or a["sim_time_ns"] != b["sim_time_ns"])
        rows.append({
            "name": name,
            "status": "compared",
            "wall_s_baseline": wall_a,
            "wall_s_candidate": wall_b,
            "wall_delta_pct": 100.0 * delta,
            "model_drift": drift,
            "regressed": (a["status"] == "ok" and b["status"] == "ok"
                          and delta > threshold),
        })
    regressions = [r["name"] for r in rows if r.get("regressed")]
    return {
        "schema": f"{SCHEMA}.compare",
        "threshold_pct": 100.0 * threshold,
        "baseline_created": baseline.get("created_utc"),
        "candidate_created": candidate.get("created_utc"),
        "quick_mismatch": baseline.get("quick") != candidate.get("quick"),
        "n_compared": sum(1 for r in rows if r["status"] == "compared"),
        "n_regressions": len(regressions),
        "regressions": regressions,
        "rows": rows,
    }


def compare_paths(path_a, path_b,
                  threshold: float = DEFAULT_THRESHOLD) -> Dict[str, object]:
    return compare(load_artifact(path_a), load_artifact(path_b),
                   threshold=threshold)


def format_compare(report: Dict[str, object]) -> str:
    lines = [
        f"bench compare — threshold {report['threshold_pct']:.0f}%, "
        f"{report['n_compared']} scenarios, "
        f"{report['n_regressions']} regression(s)"
    ]
    if report.get("quick_mismatch"):
        lines.append("WARNING: artifacts mix --quick and full runs; "
                     "wall-time deltas are not comparable")
    lines.append(f"{'scenario':<28} {'base s':>9} {'cand s':>9} "
                 f"{'delta':>8}  flags")
    for row in report["rows"]:
        if row["status"] != "compared":
            lines.append(f"{row['name']:<28} {'—':>9} {'—':>9} {'—':>8}  "
                         f"{row['status']}")
            continue
        flags = []
        if row["regressed"]:
            flags.append("REGRESSION")
        if row["model_drift"]:
            flags.append("model-drift")
        lines.append(
            f"{row['name']:<28} {row['wall_s_baseline']:>9.4f} "
            f"{row['wall_s_candidate']:>9.4f} "
            f"{row['wall_delta_pct']:>+7.1f}%  {' '.join(flags)}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# JSON hygiene
# ----------------------------------------------------------------------

def jsonable(value):
    """Recursively coerce a scenario's outputs into JSON-safe types.

    numpy scalars become Python floats/ints, tuples become lists,
    non-string dict keys are stringified, and anything else opaque is
    rendered with ``repr`` rather than failing the whole artifact.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") \
            else repr(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    # numpy scalars (and anything else numeric) without importing numpy:
    for caster in (int, float):
        try:
            if isinstance(value, caster) or (
                    hasattr(value, "item") and
                    isinstance(value.item(), (int, float))):
                return jsonable(value.item() if hasattr(value, "item")
                                else caster(value))
        except Exception:
            pass
    return repr(value)
