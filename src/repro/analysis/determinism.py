"""Determinism checker: run a scenario twice, diff event-stream digests.

The event kernel promises bit-identical reruns (integer ns clock, stable
same-instant ordering, seeded RNGs — see :mod:`repro.hw.events`); the
§5/§6 noninterference experiments and the bench regression gate both
lean on that promise.  This module *enforces* it: execute a scenario
twice under :mod:`repro.obs` tracing, each run in its own isolated
cell scope, digest each run's event stream, and fail loudly on any
divergence.

A digest captures the stream at three resolutions so a mismatch report
says *how* the runs diverged, not just that they did:

* **counts** — total events, spans, and the final timestamp: coarse
  "did the same amount of work happen";
* **stream hash** — sha256 over every event's canonical serialization
  (phase, name, timestamps, tenant, track, category, sorted args):
  any reordering or value drift flips it;
* **span-tree hash** — sha256 over per-track span nesting (spans sorted
  by start, intervals only): catches timing-structure drift even when
  the flat stream happens to collide.

``python -m repro sanitize`` runs :func:`check_cotenancy_determinism`
(two co-tenancy demo runs) and exits non-zero on divergence; CI wires
it into the bench-smoke job.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro.obs.tracer import TraceEvent, get_tracer


def _canonical(value: Any) -> Any:
    """JSON-stable rendering for event args (tuples→lists, bytes→hex)."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _event_record(event: TraceEvent) -> List[Any]:
    return [event.ph, event.name, event.ts_ns, event.dur_ns, event.tenant,
            event.track, event.cat, _canonical(event.args)]


def digest_events(events: Sequence[TraceEvent]) -> "RunDigest":
    """Digest one recorded event stream (see module docstring)."""
    hasher = hashlib.sha256()
    final_ts = 0.0
    span_count = 0
    per_track: Dict[str, List[Tuple[float, float, str]]] = {}
    for event in events:
        hasher.update(json.dumps(_event_record(event),
                                 sort_keys=True).encode())
        hasher.update(b"\n")
        final_ts = max(final_ts, event.ts_ns + event.dur_ns)
        if event.ph == "X":
            span_count += 1
            per_track.setdefault(event.track, []).append(
                (event.ts_ns, event.dur_ns, event.name))
    tree = hashlib.sha256()
    for track in sorted(per_track):
        tree.update(track.encode())
        for start, duration, name in sorted(per_track[track]):
            tree.update(f"{start!r}+{duration!r}:{name}".encode())
        tree.update(b";")
    return RunDigest(
        event_count=len(events),
        span_count=span_count,
        final_ts_ns=final_ts,
        stream_sha256=hasher.hexdigest(),
        span_tree_sha256=tree.hexdigest(),
    )


@dataclass(frozen=True)
class RunDigest:
    """The determinism fingerprint of one traced run."""

    event_count: int
    span_count: int
    final_ts_ns: float
    stream_sha256: str
    span_tree_sha256: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "event_count": self.event_count,
            "span_count": self.span_count,
            "final_ts_ns": self.final_ts_ns,
            "stream_sha256": self.stream_sha256,
            "span_tree_sha256": self.span_tree_sha256,
        }

    def diff(self, other: "RunDigest") -> List[str]:
        """Human-readable field-by-field divergence report."""
        lines: List[str] = []
        for label, a, b in (
            ("event count", self.event_count, other.event_count),
            ("span count", self.span_count, other.span_count),
            ("final sim-time ns", self.final_ts_ns, other.final_ts_ns),
            ("stream sha256", self.stream_sha256, other.stream_sha256),
            ("span-tree sha256", self.span_tree_sha256,
             other.span_tree_sha256),
        ):
            if a != b:
                lines.append(f"{label}: run1={a} run2={b}")
        return lines


@dataclass
class DeterminismReport:
    """Outcome of a double run."""

    scenario: str
    digests: List[RunDigest] = field(default_factory=list)
    summaries: List[Dict[str, object]] = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        return len(set(self.digests)) <= 1

    @property
    def divergence(self) -> List[str]:
        if self.deterministic or len(self.digests) < 2:
            return []
        return self.digests[0].diff(self.digests[1])

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "deterministic": self.deterministic,
            "digests": [d.as_dict() for d in self.digests],
            "divergence": self.divergence,
        }

    def render(self) -> str:
        lines = [f"determinism check: {self.scenario}"]
        for index, digest in enumerate(self.digests, start=1):
            lines.append(
                f"  run {index}: {digest.event_count} events, "
                f"{digest.span_count} spans, final ts "
                f"{digest.final_ts_ns:.0f} ns, "
                f"stream {digest.stream_sha256[:16]}…, "
                f"tree {digest.span_tree_sha256[:16]}…")
        if self.deterministic:
            lines.append("  PASS: digests identical across runs")
        else:
            lines.append("  FAIL: runs diverged —")
            lines.extend(f"    {line}" for line in self.divergence)
        return "\n".join(lines)


def check_determinism(
    run: Callable[[], Optional[Dict[str, object]]],
    scenario: str = "custom",
    runs: int = 2,
) -> DeterminismReport:
    """Execute ``run`` ``runs`` times, each in its own
    :func:`~repro.obs.bench.cell_scope` (so run 2 starts exactly where
    run 1 did), and digest each run's recorded event stream.

    ``run`` is responsible for enabling the tracer (the packaged
    scenarios do); its optional summary dict is kept on the report.
    """
    from repro.obs.bench import cell_scope

    report = DeterminismReport(scenario=scenario)
    for _ in range(runs):
        with cell_scope():
            summary = run()
            report.digests.append(digest_events(get_tracer().events))
        report.summaries.append(dict(summary) if summary else {})
    return report


def check_cotenancy_determinism(n_packets: int = 60) -> DeterminismReport:
    """Double-run the co-tenancy demo (`python -m repro trace`'s
    scenario) and compare digests — the CI determinism gate."""
    from repro.obs.scenario import run_cotenancy_scenario

    with tempfile.TemporaryDirectory(prefix="repro-determinism-") as tmp:
        counter = iter(range(1_000_000))

        def run() -> Optional[Dict[str, object]]:
            out = os.path.join(tmp, f"trace-{next(counter)}.json")
            return run_cotenancy_scenario(out_path=out, n_packets=n_packets)

        return check_determinism(run, scenario="cotenancy-demo")


def check_shard_invariance(
    worker_counts: Sequence[int] = (1, 2),
    seed: int = 7,
) -> DeterminismReport:
    """Assert that dealing cells to workers never reaches a report.

    Runs the quick ``commodityx2t`` matrix sweep in-process, then with
    ``--shards`` at each worker count, and requires every report to be
    byte-identical to the in-process one: a worker runs whole cells
    through the same :func:`~repro.scenario.matrix.run_cell`.

    The digest reuses :class:`RunDigest` with sweep-flavoured fields:
    the kernel tallies summed over the cells (events/spans/sim-time)
    and two hashes — the rendered report and its ``summary`` rows.
    """
    from repro.obs.bench import format_json
    from repro.scenario.matrix import run_matrix

    report = DeterminismReport(scenario="shard-invariance:commodityx2t")
    for workers in (None, *worker_counts):
        sweep = run_matrix(quick=True, only=["commodityx2t"], seed=seed,
                           shards=workers)
        cells = cast(Dict[str, Any], sweep["cells"])
        records = [entry["record"] for entry in cells.values()]
        report.digests.append(RunDigest(
            event_count=sum(r["events_executed"] for r in records),
            span_count=sum(r["trace_events"] for r in records),
            final_ts_ns=float(sum(r["sim_time_ns"] for r in records)),
            stream_sha256=hashlib.sha256(
                format_json(sweep).encode()).hexdigest(),
            span_tree_sha256=hashlib.sha256(json.dumps(
                sweep["summary"], sort_keys=True).encode()).hexdigest(),
        ))
        report.summaries.append({"workers": workers or 0,
                                 "n_error": sweep["n_error"]})
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI body for ``python -m repro sanitize``."""
    import argparse

    from repro.obs.bench import emit_report, positive_int

    parser = argparse.ArgumentParser(
        prog="repro sanitize",
        description="run the determinism checker over the co-tenancy demo")
    parser.add_argument("--packets", type=positive_int, default=60,
                        help="packets per run (default 60)")
    parser.add_argument("--shards", action="store_true",
                        help="also assert worker invariance: the quick "
                             "commodityx2t matrix sweep dealt to 1 and 2 "
                             "workers must equal the in-process sweep "
                             "byte for byte")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    args = parser.parse_args(argv)

    reports = [check_cotenancy_determinism(n_packets=args.packets)]
    if args.shards:
        reports.append(check_shard_invariance())
    if args.json:
        rendered = json.dumps([r.as_dict() for r in reports], indent=2) \
            if len(reports) > 1 \
            else json.dumps(reports[0].as_dict(), indent=2)
    else:
        rendered = "\n".join(r.render() for r in reports)
    return emit_report(rendered + "\n",
                       ok=all(r.deterministic for r in reports))


if __name__ == "__main__":
    raise SystemExit(main())
