"""A small discrete-event simulation kernel.

All timing in the reproduction runs on simulated nanoseconds managed by
:class:`Simulator`: bus epochs, accelerator service times, packet
arrivals, and the instruction-latency oracle all schedule events here.

The kernel is intentionally minimal — a monotonic clock plus a stable
priority queue of callbacks — because the heavy lifting (cache behaviour,
arbitration) lives in the component models.

Observers
---------

Samplers that watch a run rather than drive it (the SLO windows, the
co-tenancy demo's series) tick through :meth:`Simulator.every`.  The
kernel owns their termination: a tick re-arms only while some *work*
event — any event that is not an observer tick — is live, so a drain
loop like ``while sim.pending: sim.step()`` ends one tick after the
last work event, and two observers never keep each other alive.

Telemetry
---------

Every :class:`Simulator` feeds two tallies of the current cell
(:class:`repro.obs.cell.KernelStats`) — events executed and simulated
nanoseconds advanced — exposed through :func:`kernel_stats`.  Each
cell starts them at zero, so every ``BENCH_*.json`` record and matrix
cell records how much simulated work it actually did; the cost on the
event hot path is an attribute load and two integer adds.

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

from repro.obs.cell import CELL

if TYPE_CHECKING:
    from repro.obs.profile import Profiler


def kernel_stats() -> Dict[str, int]:
    """The current cell's tallies across every :class:`Simulator`."""
    kernel = CELL.kernel
    return {
        "events_executed": kernel.events_executed,
        "sim_ns_advanced": kernel.sim_ns_advanced,
    }


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("_sim", "_entry")

    def __init__(self, sim: Simulator, entry: list) -> None:
        self._sim = sim
        self._entry = entry

    def cancel(self) -> None:
        """Drop the event; a no-op once it fired or was cancelled."""
        self._sim._cancel(self._entry)

    @property
    def time_ns(self) -> int:
        return self._entry[0]


class PeriodicHandle:
    """Returned by :meth:`Simulator.every`; ``cancel()`` stops the ticks."""

    __slots__ = ("_sim", "_interval_ns", "_callback", "_next", "_cancelled")

    def __init__(self, sim: Simulator, interval_ns: int,
                 callback: Callable[[], object]) -> None:
        self._sim = sim
        self._interval_ns = interval_ns
        self._callback = callback
        self._next: Optional[EventHandle] = None
        self._cancelled = False
        self._arm()

    def _arm(self) -> None:
        self._next = self._sim.schedule(self._interval_ns, self._tick)
        self._sim._observers += 1

    def _tick(self) -> None:
        sim = self._sim
        sim._observers -= 1
        self._next = None
        self._callback()
        # ``pending`` no longer counts this tick, so it exceeds the live
        # observer ticks exactly while some work is live.
        if not self._cancelled and sim.pending > sim._observers:
            self._arm()

    @property
    def active(self) -> bool:
        """Whether a tick is armed."""
        return self._next is not None

    def cancel(self) -> None:
        """Fire no further tick, even from inside the callback."""
        self._cancelled = True
        if self._next is not None:
            self._next.cancel()
            self._next = None
            self._sim._observers -= 1


class Simulator:
    """Discrete-event simulator with a nanosecond clock.

    Events scheduled for the same instant fire in scheduling order
    (stable), which keeps component interactions deterministic.  Heap
    entries are ``[time_ns, sequence, callback]`` lists: list comparison
    orders them by time, then by the unique sequence number, and never
    reaches the callback.  Cancelling an entry and dispatching it both
    empty its callback slot, so a handle cancels at most once.  The
    cancelled entries still in the heap are counted (``_dead``), which
    makes :attr:`pending` the heap's length minus that count.
    """

    def __init__(self) -> None:
        self._queue: List[list] = []
        self._sequence = itertools.count()
        self._now_ns = 0
        self._profiler: Optional[Profiler] = None
        #: Cancelled entries not yet popped off the heap.
        self._dead = 0
        #: Live observer ticks (see :meth:`every`).
        self._observers = 0

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
        return EventHandle(self, entry)

    def schedule_at(self, time_ns: int, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute simulated time ``time_ns``."""
        return self.schedule(time_ns - self._now_ns, callback)

    def every(self, interval_ns: int,
              callback: Callable[[], object]) -> PeriodicHandle:
        """Run ``callback`` every ``interval_ns`` as an observer.

        The first tick fires at ``now + interval_ns``.  After each tick
        the next one is armed only while a work event is live, so the
        last tick lands on the first grid point at or after the last
        work event.
        """
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        return PeriodicHandle(self, int(interval_ns), callback)

    def _cancel(self, entry: list) -> None:
        if entry[2] is not None:
            entry[2] = None
            self._dead += 1

    def _pop_dead(self) -> None:
        """Drop the cancelled entry at the head of the heap."""
        heapq.heappop(self._queue)
        self._dead -= 1

    def step(self) -> bool:
        """Run the next pending event; returns False when queue is empty."""
        queue = self._queue
        while queue:
            if queue[0][2] is None:
                self._pop_dead()
                continue
            self._dispatch(heapq.heappop(queue))
            return True
        return False

    def _dispatch(self, entry: list) -> None:
        time_ns, _, callback = entry
        entry[2] = None  # fired: a later cancel() is a no-op
        advanced = time_ns - self._now_ns
        self._now_ns = time_ns
        profiler = self._profiler
        if profiler is not None:
            # snic: ignore[SNIC002] -- the profiler's host cost per kernel
            # event; it feeds the profile, never simulated state
            host_start = perf_counter_ns()
            callback()
            profiler.on_kernel_event(
                # snic: ignore[SNIC002] -- the same host-cost measurement
                callback, perf_counter_ns() - host_start, advanced)
        else:
            callback()
        kernel = CELL.kernel
        kernel.events_executed += 1
        kernel.sim_ns_advanced += advanced

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
                self._pop_dead()
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
            self._pop_dead()
        return queue[0][0] if queue else None

    @property
    def pending(self) -> int:
        """Live events: scheduled, not yet fired and not cancelled."""
        return len(self._queue) - self._dead
