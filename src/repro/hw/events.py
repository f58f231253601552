"""A small discrete-event simulation kernel.

All timing in the reproduction runs on simulated nanoseconds managed by
:class:`Simulator`: bus epochs, accelerator service times, packet
arrivals, and the instruction-latency oracle all schedule events here.

The kernel is intentionally minimal — a monotonic clock plus a stable
priority queue of callbacks — because the heavy lifting (cache behaviour,
arbitration) lives in the component models.

Telemetry
---------

Every :class:`Simulator` feeds two process-wide counters — events
executed and simulated nanoseconds advanced — exposed through
:func:`kernel_stats`.  The benchmark harness (:mod:`repro.obs.bench`)
snapshots them around each scenario so every ``BENCH_*.json`` records
how much simulated work a benchmark actually did; the cost on the event
hot path is two integer adds.

A :class:`Simulator` can also carry a *profiler* (see
:mod:`repro.obs.profile`): when attached via :meth:`Simulator.set_profiler`
the kernel times every callback with the host's monotonic clock and
reports ``(callback, host_ns, sim_ns)`` per event, which is how host
wall-time gets attributed to simulation work.  Detached (the default),
the only cost is one attribute load and a falsy branch per event.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:
    from repro.obs.profile import Profiler


class _KernelStats:
    """Process-wide tallies of discrete-event work (cheap by design)."""

    __slots__ = ("events_executed", "sim_ns_advanced")

    def __init__(self) -> None:
        self.events_executed = 0
        self.sim_ns_advanced = 0


_KERNEL = _KernelStats()


def kernel_stats() -> Dict[str, int]:
    """Cumulative counters across every :class:`Simulator` instance."""
    return {
        "events_executed": _KERNEL.events_executed,
        "sim_ns_advanced": _KERNEL.sim_ns_advanced,
    }


def reset_kernel_stats() -> None:
    """Zero the process-wide kernel counters (harness/test isolation)."""
    _KERNEL.events_executed = 0
    _KERNEL.sim_ns_advanced = 0


@dataclass(order=True)
class _Event:
    time_ns: int
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; allows cancellation."""

    def __init__(self, event: _Event) -> None:
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def time_ns(self) -> int:
        return self._event.time_ns


class Simulator:
    """Discrete-event simulator with a nanosecond clock.

    Events scheduled for the same instant fire in scheduling order
    (stable), which keeps component interactions deterministic.
    """

    def __init__(self) -> None:
        self._queue: List[_Event] = []
        self._sequence = itertools.count()
        self._now_ns = 0
        self._running = False
        self._profiler: Optional[Profiler] = None

    def set_profiler(self, profiler: Optional[Profiler]) -> None:
        """Attach (or with ``None`` detach) a per-event profiler.

        The profiler must expose ``on_kernel_event(callback, host_ns,
        sim_ns)``; see :class:`repro.obs.profile.Profiler`.
        """
        self._profiler = profiler

    @property
    def now_ns(self) -> int:
        return self._now_ns

    def schedule(self, delay_ns: int, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` ``delay_ns`` nanoseconds from now."""
        if delay_ns < 0:
            raise ValueError("cannot schedule events in the past")
        event = _Event(
            time_ns=self._now_ns + int(delay_ns),
            sequence=next(self._sequence),
            callback=callback,
        )
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def schedule_at(self, time_ns: int, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute simulated time ``time_ns``."""
        return self.schedule(time_ns - self._now_ns, callback)

    def step(self) -> bool:
        """Run the next pending event; returns False when queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            advanced = event.time_ns - self._now_ns
            self._now_ns = event.time_ns
            profiler = self._profiler
            if profiler is not None:
                host_start = perf_counter_ns()
                event.callback()
                profiler.on_kernel_event(
                    event.callback, perf_counter_ns() - host_start, advanced)
            else:
                event.callback()
            _KERNEL.events_executed += 1
            _KERNEL.sim_ns_advanced += advanced
            return True
        return False

    def run(self, until_ns: Optional[int] = None, max_events: int = 10_000_000) -> int:
        """Drain events, optionally stopping at ``until_ns``.

        Returns the number of events executed.  ``max_events`` guards
        against accidental infinite self-rescheduling loops.
        """
        executed = 0
        while self._queue and executed < max_events:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if until_ns is not None and head.time_ns > until_ns:
                break
            self.step()
            executed += 1
        if until_ns is not None and self._now_ns < until_ns:
            self._now_ns = until_ns
        return executed

    def advance(self, delta_ns: int) -> int:
        """Run all events within the next ``delta_ns`` nanoseconds."""
        return self.run(until_ns=self._now_ns + delta_ns)

    def peek_next_ns(self) -> Optional[int]:
        """Timestamp of the earliest live event, or ``None`` if idle."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time_ns if self._queue else None

    @property
    def pending(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)
