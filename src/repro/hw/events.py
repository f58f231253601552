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


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> None:
        # The kernel skips entries whose callback slot is empty.
        self._entry[2] = None

    @property
    def time_ns(self) -> int:
        return self._entry[0]


class Simulator:
    """Discrete-event simulator with a nanosecond clock.

    Events scheduled for the same instant fire in scheduling order
    (stable), which keeps component interactions deterministic.  Heap
    entries are ``[time_ns, sequence, callback]`` lists: list comparison
    orders them by time, then by the unique sequence number, and never
    reaches the callback.  Cancelling empties the callback slot.
    """

    def __init__(self) -> None:
        self._queue: List[list] = []
        self._sequence = itertools.count()
        self._now_ns = 0
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
        entry = [self._now_ns + int(delay_ns), next(self._sequence), callback]
        heapq.heappush(self._queue, entry)
        return EventHandle(entry)

    def schedule_at(self, time_ns: int, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute simulated time ``time_ns``."""
        return self.schedule(time_ns - self._now_ns, callback)

    def step(self) -> bool:
        """Run the next pending event; returns False when queue is empty."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            if entry[2] is not None:
                self._dispatch(entry)
                return True
        return False

    def _dispatch(self, entry: list) -> None:
        time_ns, _, callback = entry
        advanced = time_ns - self._now_ns
        self._now_ns = time_ns
        profiler = self._profiler
        if profiler is not None:
            host_start = perf_counter_ns()
            callback()
            profiler.on_kernel_event(
                callback, perf_counter_ns() - host_start, advanced)
        else:
            callback()
        _KERNEL.events_executed += 1
        _KERNEL.sim_ns_advanced += advanced

    def run(self, until_ns: Optional[int] = None, max_events: int = 10_000_000) -> int:
        """Drain events, optionally stopping at ``until_ns``.

        Returns the number of events executed.  ``max_events`` guards
        against accidental infinite self-rescheduling loops.
        """
        queue = self._queue
        executed = 0
        while queue and executed < max_events:
            head = queue[0]
            if head[2] is None:
                heapq.heappop(queue)
                continue
            if until_ns is not None and head[0] > until_ns:
                break
            heapq.heappop(queue)
            self._dispatch(head)
            executed += 1
        if until_ns is not None and self._now_ns < until_ns:
            self._now_ns = until_ns
        return executed

    def advance(self, delta_ns: int) -> int:
        """Run all events within the next ``delta_ns`` nanoseconds."""
        return self.run(until_ns=self._now_ns + delta_ns)

    def peek_next_ns(self) -> Optional[int]:
        """Timestamp of the earliest live event, or ``None`` if idle."""
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    @property
    def pending(self) -> int:
        return sum(1 for entry in self._queue if entry[2] is not None)
