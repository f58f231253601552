"""The span/event tracer: timestamped, tenant-tagged simulation events.

The tracer records three event shapes, mirroring the Chrome
``trace_event`` vocabulary the exporter targets:

* **complete spans** (``ph="X"``) — a named interval with a duration:
  a bus transfer, an accelerator service, an ``nf_launch``;
* **instant events** (``ph="i"``) — a point in time: a packet drop, a
  DMA window check, a cache scrub;
* **counter samples** (``ph="C"``) — a named value over time: RX-ring
  occupancy, bus backlog.

Every event carries a ``tenant`` (the paper's security domain — an NF
id, or ``None`` for the NIC OS / infrastructure) and a ``track`` (the
hardware layer: ``"bus"``, ``"l2"``, ``"dpi-cluster0"`` …).  Tenants
become Chrome *processes* and tracks become *threads*, so loading the
export in Perfetto shows cross-tenant interference as overlapping spans
on the same shared-resource track.

Overhead discipline
-------------------

Tracing defaults to **off**, and every hook in the hot layers is
written as::

    tracer = CELL.tracer
    if tracer.enabled:
        tracer.complete(...)

reading the current cell's tracer off the :data:`repro.obs.cell.CELL`
holder, so the disabled cost is two attribute loads and a falsy
branch — no allocation, no clock read, no string formatting.  :meth:`Tracer.span`
returns a shared no-op context-manager singleton when disabled for the
same reason.

Clocks
------

The tracer is clock-agnostic: bind it to a discrete-event simulator's
``now_ns`` (see :class:`repro.core.runtime.SNICRuntime`) and spans land
on simulated time; leave it unbound and a deterministic internal tick
(one unit per ``now()`` call) keeps event ordering stable without
touching the wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class TraceEvent:
    """One recorded event, pre-shaped for Chrome ``trace_event`` export."""

    ph: str                     # "X" complete, "i" instant, "C" counter
    name: str
    ts_ns: float
    dur_ns: float = 0.0
    tenant: Optional[int] = None
    track: str = "main"
    cat: str = "sim"
    args: Dict[str, Any] = field(default_factory=dict)


class _NoopSpan:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **args: Any) -> None:
        """Accept (and drop) annotations so call sites stay branch-free."""


NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: records a complete event when the ``with`` exits."""

    __slots__ = ("_tracer", "name", "tenant", "track", "cat", "args",
                 "start_ns")

    def __init__(self, tracer: "Tracer", name: str, tenant: Optional[int],
                 track: str, cat: str, args: Optional[Dict[str, Any]]) -> None:
        self._tracer = tracer
        self.name = name
        self.tenant = tenant
        self.track = track
        self.cat = cat
        self.args = dict(args) if args else {}
        self.start_ns = 0.0

    def annotate(self, **args: Any) -> None:
        self.args.update(args)

    def __enter__(self) -> "_Span":
        self.start_ns = self._tracer.now()
        return self

    def __exit__(self, *exc: object) -> bool:
        tracer = self._tracer
        end = tracer.now()
        event = TraceEvent(
            ph="X",
            name=self.name,
            ts_ns=self.start_ns,
            dur_ns=max(0.0, end - self.start_ns),
            tenant=self.tenant,
            track=self.track,
            cat=self.cat,
            args=self.args,
        )
        tracer.events.append(event)
        return False


class Tracer:
    """Records :class:`TraceEvent` streams with a no-op disabled mode."""

    def __init__(self, enabled: bool = False,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        self._clock = clock
        self._tick = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def enable(self, clock: Optional[Callable[[], float]] = None) -> None:
        """Turn recording on, optionally binding a time source."""
        self.enabled = True
        if clock is not None:
            self._clock = clock

    def disable(self) -> None:
        self.enabled = False

    def use_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """(Re)bind the time source; ``None`` reverts to internal ticks."""
        self._clock = clock

    def clear(self) -> None:
        self.events = []
        self._tick = 0

    def drain(self) -> List[TraceEvent]:
        """Return and forget all recorded events."""
        events, self.events = self.events, []
        return events

    def now(self) -> float:
        if self._clock is not None:
            return float(self._clock())
        self._tick += 1
        return float(self._tick)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def span(self, name: str, *, tenant: Optional[int] = None,
             track: str = "main", cat: str = "sim",
             **args: Any):
        """Context manager measuring ``now()`` across the ``with`` body.

        Returns the shared no-op singleton when disabled — zero
        allocation on the fast path.
        """
        if not self.enabled:
            return NOOP_SPAN
        return _Span(self, name, tenant, track, cat, args or None)

    def complete(self, name: str, ts_ns: float, dur_ns: float, *,
                 tenant: Optional[int] = None, track: str = "main",
                 cat: str = "sim", **args: Any) -> None:
        """Record a finished interval with explicit timestamps (the form
        the simulators use: they already know start and completion)."""
        if not self.enabled:
            return
        event = TraceEvent(ph="X", name=name, ts_ns=ts_ns,
                           dur_ns=max(0.0, dur_ns), tenant=tenant,
                           track=track, cat=cat, args=args)
        self.events.append(event)

    def instant(self, name: str, *, ts_ns: Optional[float] = None,
                tenant: Optional[int] = None, track: str = "main",
                cat: str = "sim", **args: Any) -> None:
        if not self.enabled:
            return
        event = TraceEvent(ph="i", name=name,
                           ts_ns=self.now() if ts_ns is None else ts_ns,
                           tenant=tenant, track=track, cat=cat, args=args)
        self.events.append(event)

    def counter_sample(self, name: str, value: float, *,
                       ts_ns: Optional[float] = None,
                       tenant: Optional[int] = None, track: str = "main",
                       cat: str = "sim") -> None:
        if not self.enabled:
            return
        event = TraceEvent(ph="C", name=name,
                           ts_ns=self.now() if ts_ns is None else ts_ns,
                           tenant=tenant, track=track, cat=cat,
                           args={"value": value})
        self.events.append(event)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def spans(self, name: Optional[str] = None) -> List[TraceEvent]:
        return [e for e in self.events
                if e.ph == "X" and (name is None or e.name == name)]

    def tracks(self) -> List[str]:
        return sorted({e.track for e in self.events})

    def tenants(self) -> List[Optional[int]]:
        return sorted({e.tenant for e in self.events},
                      key=lambda t: (t is None, t))


def get_tracer() -> Tracer:
    """The current cell's tracer, the one every hook targets."""
    from repro.obs.cell import CELL

    return CELL.tracer


def enable_tracing(clock: Optional[Callable[[], float]] = None) -> Tracer:
    tracer = get_tracer()
    tracer.enable(clock)
    return tracer


def disable_tracing() -> None:
    get_tracer().disable()
