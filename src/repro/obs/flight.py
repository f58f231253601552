"""The flight recorder: a bounded, sim-time-windowed ring of recent
observability state.

Post-mortem forensics (:mod:`repro.obs.postmortem`) needs the *recent
past* at the moment a violation or watchdog timeout fires — but the
tracer's unbounded event list is a debugging tool you turn on for one
run, not something the chaos and matrix harnesses can leave enabled
across thousands of cells.  The flight recorder is the bounded
alternative: a ring of at most ``capacity`` entries, additionally
evicted by simulated age (``window_ns``), fed from two sources:

* **audit events** — every security-relevant record the
  :mod:`repro.obs.auditlog` emitter routes (attestation verdicts,
  scrubs, TLB installs, denials, faults, recovery actions);
* **trace events** — when the tracer is *also* enabled, each recorded
  span/instant/counter is mirrored into the ring (the tracer keeps its
  full list; the ring keeps the tail).

Overhead discipline
-------------------

Same contract as the tracer (DESIGN.md §1.4): recording defaults to
**off** and every hook is written as::

    flight = CELL.flight
    if flight.enabled:
        flight.record(...)

two attribute loads (the recorder off the :data:`repro.obs.cell.CELL`
holder, then its flag) and a falsy branch — no allocation, no clock
read.
``tests/test_tracer_overhead.py`` pins the disabled path within 5% of a
recorder-free stub.

Determinism
-----------

Entries never carry wall-clock values: timestamps come from a bound
simulation clock or from a deterministic internal tick, so two
same-seed runs produce byte-identical flight tails (the post-mortem
``cmp`` gate in CI depends on this).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

#: Default ring capacity (entries), sized for a useful post-mortem tail
#: without unbounded growth across long chaos sweeps.
DEFAULT_CAPACITY = 512


class FlightEntry:
    """One ring entry, pre-shaped for JSON export."""

    __slots__ = ("kind", "name", "ts_ns", "tenant", "track", "args")

    def __init__(self, kind: str, name: str, ts_ns: float,
                 tenant: Optional[int], track: str,
                 args: Dict[str, Any]) -> None:
        self.kind = kind
        self.name = name
        self.ts_ns = ts_ns
        self.tenant = tenant
        self.track = track
        self.args = args

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "ts_ns": self.ts_ns,
            "tenant": self.tenant,
            "track": self.track,
            "args": self.args,
        }


#: TraceEvent ``ph`` -> flight entry kind.
_PH_KINDS = {"X": "span", "i": "event", "C": "counter"}


class FlightRecorder:
    """A bounded, sim-time-windowed ring buffer of recent entries."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 window_ns: Optional[float] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.enabled = False
        self.capacity = capacity
        self.window_ns = window_ns
        self._entries: Deque[FlightEntry] = deque(maxlen=capacity)
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

    def now(self) -> float:
        if self._clock is not None:
            return float(self._clock())
        self._tick += 1
        return float(self._tick)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, kind: str, name: str, *,
               ts_ns: Optional[float] = None,
               tenant: Optional[int] = None,
               track: str = "main",
               args: Optional[Dict[str, Any]] = None) -> None:
        """Append one entry; evicts by capacity (deque) and sim age.

        ``args`` is an explicit dict (not ``**kwargs``) so payload keys
        can never collide with the entry's own fields.
        """
        if not self.enabled:
            return
        ts = self.now() if ts_ns is None else float(ts_ns)
        self._entries.append(
            FlightEntry(kind, name, ts, tenant, track,
                        dict(args) if args else {}))
        self._evict(ts)

    def record_trace(self, event: Any) -> None:
        """Mirror one tracer :class:`TraceEvent` into the ring.

        Installed as the tracer's ``mirror`` while the recorder is
        armed; only ever called from the tracer's *enabled* path, so it
        adds nothing to the zero-cost disabled contract.
        """
        if not self.enabled:
            return
        self._entries.append(FlightEntry(
            _PH_KINDS.get(event.ph, "event"), event.name,
            float(event.ts_ns), event.tenant, event.track,
            dict(event.args)))
        self._evict(float(event.ts_ns))

    def _evict(self, now_ns: float) -> None:
        """Drop entries older than the sim-time window (capacity is
        enforced by the deque's ``maxlen``)."""
        window = self.window_ns
        if window is None:
            return
        entries = self._entries
        floor = now_ns - window
        while entries and entries[0].ts_ns < floor:
            entries.popleft()

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[FlightEntry]:
        return list(self._entries)

    def tail(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent ``n`` entries (default: all), JSON-ready."""
        entries = list(self._entries)
        if n is not None:
            entries = entries[-n:]
        return [entry.as_dict() for entry in entries]


def get_flight_recorder() -> FlightRecorder:
    """The current cell's flight recorder."""
    from repro.obs.cell import CELL

    return CELL.flight


def enable_flight_recording(
        clock: Optional[Callable[[], float]] = None,
        capacity: Optional[int] = None,
        window_ns: Optional[float] = None) -> FlightRecorder:
    """Arm the cell's recorder and mirror tracer events into it."""
    from repro.obs.cell import CELL

    flight = CELL.flight
    if capacity is not None and capacity != flight.capacity:
        flight.capacity = capacity
        flight._entries = deque(flight._entries, maxlen=capacity)
    if window_ns is not None:
        flight.window_ns = window_ns
    flight.enable(clock)
    CELL.tracer.mirror = flight
    CELL.audit.refresh()
    return flight


def disable_flight_recording() -> None:
    """Disarm the cell's recorder and detach the tracer mirror."""
    from repro.obs.cell import CELL

    CELL.flight.disable()
    if CELL.tracer.mirror is CELL.flight:
        CELL.tracer.mirror = None
    CELL.audit.refresh()
