"""Sim-time windowed aggregation of the SLO judge's inputs.

The registry (:mod:`repro.obs.metrics`) is cumulative: an instrument
answers "what happened since the run began", which is the right shape
for end-of-run scorecards but useless for *rate* questions — an SLO
burn rate is "how fast is the error budget being consumed **right
now**", which needs per-window deltas.

A window holds only what its reader, the burn-rate alerter, uses: per
tenant, the ``slo_`` latency histogram's delta and the victim's
cross-tenant wait.  :class:`WindowedAggregator` is an observer on the
event kernel (:meth:`~repro.hw.events.Simulator.every`, which ends the
ticks with the work; no wall clock anywhere): every ``window_ns`` of
simulated time it *rotates* into a :class:`WindowSnapshot`:

* histogram deltas are real :class:`~repro.obs.metrics.Histogram`
  objects carrying the per-bucket count difference, so a window can
  answer percentile questions on its own, and merging every window's
  delta via :meth:`Histogram.merge` reproduces the cumulative
  histogram bucket-for-bucket;
* the wait comes from the interference accountant's running
  cross-tenant total per ``(resource, victim)``
  (:attr:`~repro.obs.interference.InterferenceAccountant.cross_wait`):
  a rotation diffs those few totals (resources times victims, not
  victims times culprits) into :attr:`WindowSnapshot.cross_wait`.  The
  per-pair breakdown stays in the cumulative ``interference_*_total``
  counter families.

Phases of an experiment that advance time *outside* the kernel (the
contention rig drives the bus/DMA/DRAM models on hand-stepped
timestamps) rotate manually via :meth:`WindowedAggregator.rotate`, so
their interference still lands in a window of its own.

The registry's cumulative ``min``/``max`` cannot be split per window,
so a delta histogram's extrema are reconstructed from its occupied
buckets (lower edge of the first, upper edge of the last, both clamped
to the cumulative extrema): bucket resolution, the same the cumulative
histogram offers anyway.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.obs.interference import (
    InterferenceAccountant,
    get_accountant,
    victim_totals,
)
from repro.obs.metrics import Histogram, LabelKey

if TYPE_CHECKING:
    from repro.hw.events import PeriodicHandle, Simulator

#: The tracked histograms' name prefix: the SLO layer's own families.
PREFIX = "slo_"

#: The ``metric`` label of a window's cross-tenant wait in exports.
CROSS_WAIT_METRIC = "interference_cross_tenant_wait_ns"

#: Upper bound on retained windows; long experiments drop the oldest.
DEFAULT_MAX_WINDOWS = 4096

InstrumentKey = Tuple[str, LabelKey]


class WindowSnapshot:
    """Everything that changed during one window of simulated time."""

    __slots__ = ("index", "start_ns", "end_ns", "histograms", "cross_wait")

    def __init__(self, index: int, start_ns: float, end_ns: float,
                 histograms: Dict[InstrumentKey, Histogram],
                 cross_wait: Dict[Tuple[str, str], float]) -> None:
        self.index = index
        self.start_ns = start_ns
        self.end_ns = end_ns
        #: ``(name, labels) -> delta Histogram`` for the histograms that
        #: moved, in key order.
        self.histograms = histograms
        #: ``(resource, victim label) -> cross-tenant wait`` added in
        #: this window, for the pairs that moved, in key order.
        self.cross_wait = cross_wait

    @property
    def changed(self) -> bool:
        """Whether any tracked quantity moved during this window."""
        return bool(self.histograms) or bool(self.cross_wait)

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    def histogram(self, name: str, **labels: object) -> Optional[Histogram]:
        """This window's delta histogram, or ``None`` when untouched."""
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self.histograms.get(key)

    def cross_tenant_wait_by_victim(self) -> Dict[str, float]:
        """Per-victim cross-tenant wait in this window, summed over the
        resources in sorted order; victims in label order."""
        return victim_totals(self.cross_wait)


def _histogram_state(histogram: Histogram) -> Tuple[List[int], int, float]:
    """A histogram's ``(counts, count, sum)``, the base of its next delta."""
    return list(histogram.counts), histogram.count, histogram.sum


def _delta_histogram(current: Histogram, base_counts: List[int],
                     base_count: int, base_sum: float) -> Histogram:
    """A fresh Histogram holding ``current``'s change since the base."""
    delta = Histogram(current.name, current.labels, bounds=current.bounds)
    first = last = -1
    for i, cumulative in enumerate(current.counts):
        diff = cumulative - base_counts[i]
        if diff:
            delta.counts[i] = diff
            if first < 0:
                first = i
            last = i
    delta.count = current.count - base_count
    delta.sum = current.sum - base_sum
    if delta.count:
        # Window extrema reconstructed at bucket resolution (see module
        # docstring): the cumulative min/max bound them on both sides.
        lower = current.bounds[first - 1] if first > 0 else 0.0
        upper = current.bounds[last] if last < len(current.bounds) \
            else current.max
        delta.min = max(lower, current.min)
        delta.max = min(upper, current.max) if last < len(current.bounds) \
            else current.max
    return delta


class WindowedAggregator:
    """Rotating delta snapshots of SLO state on the event kernel.

    Usage::

        agg = WindowedAggregator(sim, window_ns=10_000)
        agg.start()
        ... run the kernel-driven workload ...
        agg.close()                # capture the final partial window
        for snap in agg.snapshots: ...
    """

    def __init__(self, sim: Simulator, window_ns: int,
                 accountant: Optional[InterferenceAccountant] = None,
                 max_windows: int = DEFAULT_MAX_WINDOWS,
                 on_rotate: Optional[Callable[[WindowSnapshot], None]]
                 = None) -> None:
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        if max_windows <= 0:
            raise ValueError("max_windows must be positive")
        self.sim = sim
        self.window_ns = int(window_ns)
        self.max_windows = max_windows
        #: Invoked with each finished :class:`WindowSnapshot` — the
        #: burn-rate alerter's attachment point.
        self.on_rotate = on_rotate
        #: The accountant whose cross-tenant totals the windows diff
        #: (the current cell's, when built); its registry holds the
        #: tracked histograms.
        self.accountant = accountant if accountant is not None \
            else get_accountant()
        self.snapshots: List[WindowSnapshot] = []
        self.windows_dropped = 0
        self._window_start_ns = 0.0
        self._ticks: Optional[PeriodicHandle] = None
        self._closed = False
        #: The accountant's cross-tenant totals at the last rotation.
        self._cross_bases: Dict[Tuple[str, Optional[int]], float] = {}
        #: Tracked histograms as ``[key, instrument, (counts, count,
        #: sum)]`` entries in key order.
        self._histograms: List[list] = []
        #: How many of the registry's instruments have been scanned.
        self._index_seen = 0

    def _refresh_histograms(self) -> None:
        """Track the ``slo_`` histograms minted since the last call."""
        registry = self.accountant.registry
        if len(registry) == self._index_seen:
            return
        new = [[key, instrument, ([0] * len(instrument.counts), 0, 0.0)]
               for key, instrument
               in islice(registry.items(), self._index_seen, None)
               if key[0].startswith(PREFIX)
               and isinstance(instrument, Histogram)]
        self._index_seen = len(registry)
        if new:
            self._histograms.extend(new)
            self._histograms.sort(key=itemgetter(0))

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------

    def rotate(self, now_ns: Optional[float] = None) -> WindowSnapshot:
        """Close the current window at ``now_ns`` and start the next.

        Kernel-driven rotation calls this from the periodic tick;
        phases advancing time outside the kernel (the contention rig)
        call it directly with their own timestamps.
        """
        now = float(self.sim.now_ns) if now_ns is None else float(now_ns)
        snapshot = self._capture(now)
        self._record(snapshot)
        return snapshot

    def _capture(self, now: float) -> WindowSnapshot:
        """The window ending at ``now``; moves the bases and the window
        start but records nothing."""
        self._refresh_histograms()
        histograms: Dict[InstrumentKey, Histogram] = {}
        for entry in self._histograms:
            key, instrument, base = entry
            if instrument.count != base[1]:
                histograms[key] = _delta_histogram(
                    instrument, base[0], base[1], base[2])
            entry[2] = _histogram_state(instrument)
        totals = self.accountant.cross_wait
        bases = self._cross_bases
        moved = []
        for (resource, victim), total in totals.items():
            delta = total - bases.get((resource, victim), 0.0)
            if delta:
                moved.append((resource, str(victim), delta))
        self._cross_bases = dict(totals)
        snapshot = WindowSnapshot(
            index=len(self.snapshots) + self.windows_dropped,
            start_ns=self._window_start_ns, end_ns=now,
            histograms=histograms,
            cross_wait={(resource, victim): delta
                        for resource, victim, delta in sorted(moved)})
        self._window_start_ns = now
        return snapshot

    def _record(self, snapshot: WindowSnapshot) -> None:
        """Append a finished window, prune the ring, notify."""
        self.snapshots.append(snapshot)
        if len(self.snapshots) > self.max_windows:
            del self.snapshots[0]
            self.windows_dropped += 1
        if self.on_rotate is not None:
            self.on_rotate(snapshot)

    # ------------------------------------------------------------------
    # Kernel scheduling
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Rotate every ``window_ns`` of simulated time, as a kernel
        observer (:meth:`~repro.hw.events.Simulator.every`)."""
        if self.running:
            raise RuntimeError("aggregator already started")
        # Capture and drop the pre-run state, so window 0 holds only
        # new work.
        self._capture(float(self.sim.now_ns))
        self._ticks = self.sim.every(self.window_ns, self.rotate)

    def stop(self) -> None:
        if self._ticks is not None:
            self._ticks.cancel()

    @property
    def running(self) -> bool:
        return self._ticks is not None and self._ticks.active

    def close(self, now_ns: Optional[float] = None) -> None:
        """Stop and capture any final partial window.

        Idempotent; the trailing window is recorded only when something
        changed after the last rotation (or when time advanced past it).
        An empty tail is dropped before it is recorded, so it neither
        prunes a real window from a full ring nor reaches ``on_rotate``.
        """
        if self._closed:
            return
        self.stop()
        now = float(self.sim.now_ns) if now_ns is None else float(now_ns)
        tail = self._capture(max(now, self._window_start_ns))
        if tail.changed or tail.duration_ns > 0.0:
            self._record(tail)
        self._closed = True

    # ------------------------------------------------------------------
    # Composition (the merge primitive, exercised)
    # ------------------------------------------------------------------

    def merged_histogram(self, name: str, **labels: object) \
            -> Optional[Histogram]:
        """All windows' delta histograms merged back into one.

        By construction this equals the cumulative registry histogram's
        buckets/count/sum over the aggregation interval — the
        merge-then-percentile equivalence the tests pin down.
        """
        merged: Optional[Histogram] = None
        for snapshot in self.snapshots:
            delta = snapshot.histogram(name, **labels)
            if delta is None:
                continue
            if merged is None:
                merged = Histogram(delta.name, delta.labels,
                                   bounds=delta.bounds)
            merged.merge(delta)
        return merged
