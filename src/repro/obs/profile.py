"""``repro.obs.profile`` — deterministic (layer, tenant, operation) profiler.

The tracer (:mod:`repro.obs.tracer`) records *what happened*; this
module answers *where the time went*.  It attributes two different
clocks to named frames:

* **simulated nanoseconds** — consumed from the tracer's span stream.
  Every complete span carries a layer (its ``cat``: ``bus``, ``cache``,
  ``runtime`` …), a tenant (the paper's security domain, ``None`` for
  the NIC OS) and an operation (its ``name``).  Spans on the same
  (tenant, track) lane nest by interval containment, giving real call
  stacks: self time is a span's duration minus its children's, and the
  collapsed-stack export is directly flamegraph-compatible
  (``flamegraph.pl``, speedscope, inferno).
* **host wall nanoseconds** — measured live by hooking the
  discrete-event kernel (:meth:`repro.hw.events.Simulator.set_profiler`).
  Every executed event is timed with the host monotonic clock and
  attributed to its callback, so "which simulation layer is slow *to
  simulate*" is a first-class question rather than something inferred
  from counters.

Because both sources are deterministic functions of the simulation
(spans live on simulated time; kernel attribution is by callback
identity), two runs of the same scenario produce identical sim-time
profiles — which is what lets ``python -m repro bench --profile``
artifacts be diffed across commits.

Typical use::

    from repro.obs import profile

    prof = profile.Profiler()
    with prof.measure():            # wall-clock bracketing
        ...  # run a scenario with tracing enabled
    prof.ingest(obs.get_tracer())   # sim-time attribution
    prof.write_collapsed("run.collapsed")
    print(prof.format_report(top=15))

or the packaged one-call version over the co-tenancy demo::

    result = profile.profile_cotenancy_scenario("run.collapsed")
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.tracer import TraceEvent, Tracer

#: Frame used for spans whose tenant is ``None`` — NIC OS / shared
#: infrastructure work, the lane the paper treats as the trusted base.
INFRA_TENANT = "infra"


def layer_frame(cat: str) -> str:
    return f"layer:{cat or 'unknown'}"


def tenant_frame(tenant: Optional[int]) -> str:
    return f"tenant:{INFRA_TENANT if tenant is None else tenant}"


@dataclass
class FrameStat:
    """Aggregated timings for one unique stack of frames."""

    stack: Tuple[str, ...]
    self_ns: float = 0.0
    cumulative_ns: float = 0.0
    count: int = 0

    @property
    def leaf(self) -> str:
        return self.stack[-1]


@dataclass
class HostStat:
    """Host wall-time attributed to one kernel callback."""

    operation: str
    host_ns: int = 0
    sim_ns: int = 0
    events: int = 0


@dataclass
class _OpenSpan:
    end_ns: float
    name: str
    dur_ns: float
    self_ns: float
    stack: Tuple[str, ...]


class Profiler:
    """Attributes simulated ns and host wall ns to (layer, tenant, op).

    The profiler is append-only: :meth:`ingest` can be called repeatedly
    (e.g. once per scenario phase) and stats accumulate.  All derived
    views (:meth:`collapsed`, :meth:`report`, :meth:`coverage`) are
    computed on demand from the accumulated tables.
    """

    def __init__(self) -> None:
        self._stacks: Dict[Tuple[str, ...], FrameStat] = {}
        self._host: Dict[str, HostStat] = {}
        self._total_sim_ns = 0.0
        self._attributed_sim_ns = 0.0
        self._wall_ns = 0
        self._wall_started: Optional[int] = None
        self._instants = 0

    # ------------------------------------------------------------------
    # Wall-clock bracketing
    # ------------------------------------------------------------------

    def start(self) -> None:
        # snic: ignore[SNIC002] -- a profile brackets the run's host time
        self._wall_started = perf_counter_ns()

    def stop(self) -> None:
        if self._wall_started is not None:
            # snic: ignore[SNIC002] -- the other end of that bracket
            self._wall_ns += perf_counter_ns() - self._wall_started
            self._wall_started = None

    @contextmanager
    def measure(self):
        """``with prof.measure(): ...`` — accumulate host wall time."""
        self.start()
        try:
            yield self
        finally:
            self.stop()

    @property
    def wall_ns(self) -> int:
        return self._wall_ns

    # ------------------------------------------------------------------
    # Host-side attribution (event-kernel hook)
    # ------------------------------------------------------------------

    def attach_kernel(self, sim) -> None:
        """Time every event ``sim`` executes (detach with
        :meth:`detach_kernel`)."""
        sim.set_profiler(self)

    def detach_kernel(self, sim) -> None:
        sim.set_profiler(None)

    def on_kernel_event(self, callback, host_ns: int, sim_ns: int) -> None:
        """Called by :meth:`Simulator.step` for each executed event."""
        name = _callback_name(callback)
        stat = self._host.get(name)
        if stat is None:
            stat = self._host[name] = HostStat(operation=name)
        stat.host_ns += host_ns
        stat.sim_ns += sim_ns
        stat.events += 1

    # ------------------------------------------------------------------
    # Sim-side attribution (tracer span stream)
    # ------------------------------------------------------------------

    def ingest(self, source: Union[Tracer, Iterable[TraceEvent]]) -> int:
        """Fold a tracer's (or raw event list's) spans into the profile.

        Returns the number of complete spans consumed.  Spans are
        grouped into (tenant, track) lanes; within a lane they nest by
        interval containment, which turns the flat event stream into
        stacks rooted at ``layer:<cat>;tenant:<id>``.
        """
        events = source.events if isinstance(source, Tracer) else list(source)
        spans = [e for e in events if e.ph == "X"]
        self._instants += sum(1 for e in events if e.ph == "i")

        lanes: Dict[Tuple[Optional[int], str], List[TraceEvent]] = {}
        for span in spans:
            lanes.setdefault((span.tenant, span.track), []).append(span)

        for (tenant, _track), lane in sorted(
            lanes.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
        ):
            lane.sort(key=lambda e: (e.ts_ns, -e.dur_ns))
            open_spans: List[_OpenSpan] = []
            for span in lane:
                while open_spans and span.ts_ns >= open_spans[-1].end_ns:
                    self._close(open_spans.pop())
                base = (
                    open_spans[-1].stack
                    if open_spans
                    else (layer_frame(span.cat), tenant_frame(tenant))
                )
                if open_spans:
                    # Child time is the parent's cumulative, not self.
                    open_spans[-1].self_ns -= span.dur_ns
                else:
                    self._total_sim_ns += span.dur_ns
                    if span.cat and _is_named_lane(span.cat, tenant):
                        self._attributed_sim_ns += span.dur_ns
                open_spans.append(_OpenSpan(
                    end_ns=span.ts_ns + span.dur_ns,
                    name=span.name,
                    dur_ns=span.dur_ns,
                    self_ns=span.dur_ns,
                    stack=base + (span.name,),
                ))
            while open_spans:
                self._close(open_spans.pop())
        return len(spans)

    def _close(self, open_span: _OpenSpan) -> None:
        stat = self._stacks.get(open_span.stack)
        if stat is None:
            stat = self._stacks[open_span.stack] = FrameStat(open_span.stack)
        stat.self_ns += max(0.0, open_span.self_ns)
        stat.cumulative_ns += open_span.dur_ns
        stat.count += 1

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def total_sim_ns(self) -> float:
        """Total simulated time under root spans (all lanes)."""
        return self._total_sim_ns

    @property
    def attributed_sim_ns(self) -> float:
        """Root-span time attributed to a named (layer, tenant) lane."""
        return self._attributed_sim_ns

    def coverage(self) -> float:
        """Fraction of simulated time attributed to named frames."""
        if self._total_sim_ns <= 0:
            return 0.0
        return self._attributed_sim_ns / self._total_sim_ns

    def frame_stats(self) -> List[FrameStat]:
        return list(self._stacks.values())

    def cumulative_by_frame(self) -> Dict[str, float]:
        """Cumulative sim-ns per individual frame (any stack depth).

        A frame's cumulative time is the self time of every stack it
        appears in: each ns of self time lies under every enclosing
        frame exactly once, so this never double-counts recursion-free
        stacks (and counts each recursive frame once per stack thanks
        to the ``set``).
        """
        totals: Dict[str, float] = {}
        for stat in self._stacks.values():
            for frame in set(stat.stack):
                totals[frame] = totals.get(frame, 0.0) + stat.self_ns
        return totals

    def collapsed(self) -> List[str]:
        """Flamegraph collapsed-stack lines (value = self sim-ns)."""
        lines = []
        for stat in sorted(self._stacks.values(), key=lambda s: s.stack):
            value = int(round(stat.self_ns))
            if value > 0:
                lines.append(";".join(stat.stack) + f" {value}")
        return lines

    def write_collapsed(self, path: str) -> str:
        with open(path, "w") as fh:
            fh.write("\n".join(self.collapsed()) + "\n")
        return path

    def report(self, top: int = 20) -> List[Dict[str, object]]:
        """Top-``top`` stacks by self sim-time, with per-frame cumulative."""
        cumulative = self.cumulative_by_frame()
        rows = []
        for stat in sorted(
            self._stacks.values(), key=lambda s: -s.self_ns
        )[: top]:
            rows.append({
                "stack": ";".join(stat.stack),
                "leaf": stat.leaf,
                "count": stat.count,
                "self_ns": stat.self_ns,
                "self_pct": (100.0 * stat.self_ns / self._total_sim_ns
                             if self._total_sim_ns else 0.0),
                "cumulative_ns": cumulative.get(stat.leaf, stat.self_ns),
            })
        return rows

    def host_report(self, top: int = 20) -> List[Dict[str, object]]:
        """Top-``top`` kernel callbacks by host wall-time."""
        rows = []
        total = sum(s.host_ns for s in self._host.values()) or 1
        for stat in sorted(self._host.values(), key=lambda s: -s.host_ns)[:top]:
            rows.append({
                "operation": stat.operation,
                "events": stat.events,
                "host_ns": stat.host_ns,
                "host_pct": 100.0 * stat.host_ns / total,
                "sim_ns": stat.sim_ns,
            })
        return rows

    def format_report(self, top: int = 20) -> str:
        lines = [
            f"profile: {self._total_sim_ns:.0f} sim-ns under "
            f"{len(self._stacks)} stacks, "
            f"{self.coverage() * 100.0:.1f}% attributed to named "
            f"(layer, tenant) frames"
        ]
        if self._wall_ns:
            lines[0] += f", {self._wall_ns / 1e6:.1f} ms wall"
        lines.append(f"{'self sim-ns':>14}  {'self %':>7}  {'calls':>7}  stack")
        for row in self.report(top):
            lines.append(
                f"{row['self_ns']:>14.0f}  {row['self_pct']:>6.2f}%  "
                f"{row['count']:>7}  {row['stack']}"
            )
        host_rows = self.host_report(top)
        if host_rows:
            lines.append("")
            lines.append(
                f"{'host ns':>14}  {'host %':>7}  {'events':>7}  "
                "kernel callback"
            )
            for row in host_rows:
                lines.append(
                    f"{row['host_ns']:>14}  {row['host_pct']:>6.2f}%  "
                    f"{row['events']:>7}  {row['operation']}"
                )
        return "\n".join(lines)

    def summary(self) -> Dict[str, object]:
        """Machine-readable roll-up (embedded in BENCH artifacts)."""
        return {
            "total_sim_ns": self._total_sim_ns,
            "attributed_sim_ns": self._attributed_sim_ns,
            "coverage": self.coverage(),
            "stacks": len(self._stacks),
            "instants": self._instants,
            "wall_ns": self._wall_ns,
            "kernel_events_timed": sum(s.events for s in self._host.values()),
            "kernel_host_ns": sum(s.host_ns for s in self._host.values()),
        }


def _is_named_lane(cat: str, tenant: Optional[int]) -> bool:
    """A lane is *named* when its layer is a real category and its
    tenant resolves (a domain id, or the infra lane)."""
    return bool(cat) and (tenant is None or isinstance(tenant, int))


def _callback_name(callback) -> str:
    name = getattr(callback, "__qualname__", None)
    if name is None:
        return repr(callback)
    return name.replace(".<locals>", "")


def profile_cotenancy_scenario(
    collapsed_path: Optional[str] = None,
    n_packets: int = 60,
    top: int = 15,
) -> Dict[str, object]:
    """Run the packaged co-tenancy demo under the profiler.

    This is what ``python -m repro bench --profile`` executes: the
    scenario runs with tracing on and the event kernel hooked, the span
    stream is folded into (layer, tenant, operation) stacks, and the
    collapsed-stack file (if requested) is written for flamegraph
    tooling.  Returns ``{"profiler", "scenario", "collapsed_path"}``.
    """
    import os
    import tempfile

    from repro.obs import tracer as tracer_mod
    from repro.obs.scenario import run_cotenancy_scenario

    profiler = Profiler()
    with tempfile.TemporaryDirectory() as tmp:
        with profiler.measure():
            scenario = run_cotenancy_scenario(
                out_path=os.path.join(tmp, "profile_trace.json"),
                n_packets=n_packets,
                profiler=profiler,
            )
    profiler.ingest(tracer_mod.get_tracer())
    if collapsed_path:
        profiler.write_collapsed(collapsed_path)
    return {
        "profiler": profiler,
        "scenario": scenario,
        "collapsed_path": collapsed_path,
        "report": profiler.report(top),
        "summary": profiler.summary(),
    }
