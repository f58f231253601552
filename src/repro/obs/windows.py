"""Sim-time windowed aggregation of metrics registry state.

The registry (:mod:`repro.obs.metrics`) is cumulative: a counter or
histogram answers "what happened since the run began", which is the
right shape for end-of-run scorecards but useless for *rate* questions
— an SLO burn rate is "how fast is the error budget being consumed
**right now**", which needs per-window deltas.

:class:`WindowedAggregator` rides the event kernel exactly like
:class:`~repro.obs.timeseries.TimeSeriesSampler` (same cooperative
termination, same no-wall-clock discipline): every ``window_ns`` of
simulated time it *rotates*, snapshotting the delta of every tracked
instrument since the previous rotation into a :class:`WindowSnapshot`.
Deltas are first-class instruments, not flat numbers:

* counter deltas are floats (``value_now - value_at_window_start``);
* histogram deltas are real :class:`~repro.obs.metrics.Histogram`
  objects carrying the per-bucket count difference, so a window can
  answer percentile and threshold-exceedance questions on its own —
  and windows **compose**: merging every window's delta histogram via
  :meth:`Histogram.merge` reproduces the cumulative histogram
  bucket-for-bucket (the same primitive shard-merged metrics will use).

Phases of an experiment that advance time *outside* the kernel (the
contention rig drives the bus/DMA/DRAM models on hand-stepped
timestamps) rotate manually via :meth:`WindowedAggregator.rotate`, so
their interference counters still land in a window of their own.

Delta histograms inherit an approximation: the registry's cumulative
``min``/``max`` cannot be split per window, so a window's extrema are
reconstructed from its occupied buckets (lower edge of the first, upper
edge of the last, both clamped to the cumulative extrema).  Percentile
estimates inside a window are therefore bucket-resolution accurate —
the same resolution the cumulative histogram offers anyway.

Only instruments whose name starts with one of the configured
``prefixes`` are tracked (default: the ``slo_`` and ``interference_``
families).  The aggregator keeps its tracked instruments sorted
between rotations, each with its value at the previous rotation: the
registry only grows between clears, so a rotation scans just the
instruments minted since the previous one and merges them in.  A
rotation therefore costs one pass over the tracked instruments (plus a
merge when new ones were minted), never a walk or sort of the whole
registry.  A registry ``clear()`` (a new ``generation``) rebuilds the
index from scratch.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.hw.events import Simulator
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabelKey,
    MetricsRegistry,
    get_registry,
)

#: Default tracked-name prefixes: the SLO layer's own instruments and
#: the interference attribution families it reads through.
DEFAULT_PREFIXES: Tuple[str, ...] = ("slo_", "interference_")

#: Upper bound on retained windows; long experiments drop the oldest.
DEFAULT_MAX_WINDOWS = 4096

InstrumentKey = Tuple[str, LabelKey]


class WindowSnapshot:
    """Everything that changed during one window of simulated time."""

    __slots__ = ("index", "start_ns", "end_ns", "counters", "histograms")

    def __init__(self, index: int, start_ns: float, end_ns: float,
                 counters: Dict[InstrumentKey, float],
                 histograms: Dict[InstrumentKey, Histogram]) -> None:
        self.index = index
        self.start_ns = start_ns
        self.end_ns = end_ns
        #: ``(name, labels) -> delta`` for counters and gauges.
        self.counters = counters
        #: ``(name, labels) -> delta Histogram`` for histograms.
        self.histograms = histograms

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    def counter(self, name: str, **labels: object) -> float:
        """This window's delta for one counter (0.0 when untouched)."""
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self.counters.get(key, 0.0)

    def histogram(self, name: str, **labels: object) -> Optional[Histogram]:
        """This window's delta histogram, or ``None`` when untouched."""
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self.histograms.get(key)

    def cross_tenant_wait_by_victim(self) -> Dict[str, float]:
        """Per-victim cross-tenant attributed wait in this window.

        The read-through into the PR 4 interference families: sums
        ``interference_wait_ns_total`` deltas where the ``tenant``
        (victim) and ``culprit`` labels differ, keyed by the victim's
        string label.  Deterministically sorted.
        """
        waits: Dict[str, float] = {}
        for (name, labels), delta in self.counters.items():
            if name != "interference_wait_ns_total" or delta <= 0.0:
                continue
            victim = culprit = None
            for label, value in labels:
                if label == "tenant":
                    victim = value
                elif label == "culprit":
                    culprit = value
            if victim is None or victim == culprit:
                continue
            waits[victim] = waits.get(victim, 0.0) + delta
        return dict(sorted(waits.items()))

    def as_dict(self) -> Dict[str, object]:
        """JSON-able summary (used by exporters and reports)."""
        return {
            "index": self.index,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "n_counters": len(self.counters),
            "n_histograms": len(self.histograms),
            "cross_tenant_wait_by_victim":
                self.cross_tenant_wait_by_victim(),
        }


def _histogram_state(histogram: Histogram) -> Tuple[List[int], int, float]:
    """A histogram's ``(counts, count, sum)``, the base of its next delta."""
    return list(histogram.counts), histogram.count, histogram.sum


def _delta_histogram(current: Histogram, base_counts: List[int],
                     base_count: int, base_sum: float) -> Histogram:
    """A fresh Histogram holding ``current``'s change since the base."""
    delta = Histogram(current.name, current.labels, bounds=current.bounds)
    total = 0
    first = last = -1
    for i, cumulative in enumerate(current.counts):
        diff = cumulative - base_counts[i]
        if diff:
            delta.counts[i] = diff
            total += diff
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
    """Rotating delta snapshots of registry state on the event kernel.

    Usage::

        agg = WindowedAggregator(sim, window_ns=10_000)
        agg.start()
        ... run the kernel-driven workload ...
        agg.close()                # capture the final partial window
        for snap in agg.snapshots: ...
    """

    def __init__(self, sim: Simulator, window_ns: int,
                 registry: Optional[MetricsRegistry] = None,
                 prefixes: Sequence[str] = DEFAULT_PREFIXES,
                 max_windows: int = DEFAULT_MAX_WINDOWS,
                 on_rotate: Optional[Callable[[WindowSnapshot], None]]
                 = None) -> None:
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        if max_windows <= 0:
            raise ValueError("max_windows must be positive")
        self.sim = sim
        self.window_ns = int(window_ns)
        self.prefixes = tuple(prefixes)
        self.max_windows = max_windows
        #: Invoked with each finished :class:`WindowSnapshot` — the
        #: burn-rate alerter's attachment point.
        self.on_rotate = on_rotate
        self._registry = registry
        self.snapshots: List[WindowSnapshot] = []
        self.windows_dropped = 0
        self._window_start_ns = 0.0
        self._handle = None
        self._closed = False
        #: Tracked counters/gauges and histograms as ``[key,
        #: instrument, base]`` entries in key order, ``base`` being the
        #: state at the last rotation (a float, or ``(counts, count,
        #: sum)`` for a histogram).  Valid for ``_index_owner``'s
        #: ``(registry, generation)`` after scanning its first
        #: ``_index_seen`` instruments.
        self._counters: List[list] = []
        self._histograms: List[list] = []
        self._index_owner: Tuple[Optional[MetricsRegistry], int] = (None, -1)
        self._index_seen = 0

    def _resolve(self) -> MetricsRegistry:
        return self._registry if self._registry is not None \
            else get_registry()

    def _tracked(self) -> Tuple[List[list], List[list]]:
        """Tracked counters/gauges and histograms, each in deterministic
        (name, labels) order.

        Scans only the instruments minted since the previous call and
        merges them into the kept entries (see the module docstring).
        A new registry generation starts from empty entries, so every
        base restarts at zero.
        """
        registry = self._resolve()
        if self._index_owner != (registry, registry.generation):
            self._counters, self._histograms = [], []
            self._index_owner = (registry, registry.generation)
            self._index_seen = 0
        minted = registry.minted_since(self._index_seen)
        self._index_seen += len(minted)
        new_counters: List[list] = []
        new_histograms: List[list] = []
        for key, instrument in minted:
            if not key[0].startswith(self.prefixes):
                continue
            if isinstance(instrument, Histogram):
                new_histograms.append(
                    [key, instrument, ([0] * len(instrument.counts), 0, 0.0)])
            elif isinstance(instrument, (Counter, Gauge)):
                new_counters.append([key, instrument, 0.0])
        for entries, new in ((self._counters, new_counters),
                             (self._histograms, new_histograms)):
            if new:
                # The kept entries are one sorted run, so this sort
                # costs about a merge, not a full re-sort.
                entries.extend(new)
                entries.sort(key=itemgetter(0))
        return self._counters, self._histograms

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------

    def rotate(self, now_ns: Optional[float] = None) -> WindowSnapshot:
        """Close the current window at ``now_ns`` and start the next.

        Kernel-driven rotation calls this from the scheduled tick;
        phases advancing time outside the kernel (the contention rig)
        call it directly with their own timestamps.
        """
        now = float(self.sim.now_ns) if now_ns is None else float(now_ns)
        tracked_counters, tracked_histograms = self._tracked()
        counters: Dict[InstrumentKey, float] = {}
        for entry in tracked_counters:
            value = entry[1].value
            delta = value - entry[2]
            if delta:
                counters[entry[0]] = delta
            entry[2] = value
        histograms: Dict[InstrumentKey, Histogram] = {}
        for entry in tracked_histograms:
            key, instrument, base = entry
            if instrument.count != base[1]:
                histograms[key] = _delta_histogram(
                    instrument, base[0], base[1], base[2])
            entry[2] = _histogram_state(instrument)
        snapshot = WindowSnapshot(
            index=len(self.snapshots) + self.windows_dropped,
            start_ns=self._window_start_ns, end_ns=now,
            counters=counters, histograms=histograms)
        self.snapshots.append(snapshot)
        if len(self.snapshots) > self.max_windows:
            del self.snapshots[0]
            self.windows_dropped += 1
        self._window_start_ns = now
        if self.on_rotate is not None:
            self.on_rotate(snapshot)
        return snapshot

    # ------------------------------------------------------------------
    # Kernel scheduling (the TimeSeriesSampler discipline)
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Schedule rotations every ``window_ns`` of simulated time."""
        if self._handle is not None:
            raise RuntimeError("aggregator already started")
        self._window_start_ns = float(self.sim.now_ns)
        self._prime_bases()
        self._handle = self.sim.schedule(self.window_ns, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        return self._handle is not None

    def _prime_bases(self) -> None:
        """Capture the pre-run state so window 0 holds only new work."""
        tracked_counters, tracked_histograms = self._tracked()
        for entry in tracked_counters:
            entry[2] = entry[1].value
        for entry in tracked_histograms:
            entry[2] = _histogram_state(entry[1])

    def _tick(self) -> None:
        self._handle = None
        self.rotate()
        if self.sim.pending > 0:
            # Cooperative shutdown: our own event already popped, so
            # ``pending`` counts only other work — don't keep a
            # drain-until-empty loop alive with our own rotations.
            self._handle = self.sim.schedule(self.window_ns, self._tick)

    def close(self, now_ns: Optional[float] = None) -> None:
        """Stop and capture any final partial window.

        Idempotent; the trailing window is recorded only when something
        changed after the last rotation (or when time advanced past it).
        """
        if self._closed:
            return
        self.stop()
        now = float(self.sim.now_ns) if now_ns is None else float(now_ns)
        probe = self.rotate(now_ns=max(now, self._window_start_ns))
        if not probe.counters and not probe.histograms \
                and probe.duration_ns <= 0.0:
            self.snapshots.pop()
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

    def total_counter(self, name: str, **labels: object) -> float:
        """Sum of one counter's deltas across every retained window."""
        return sum(snapshot.counter(name, **labels)
                   for snapshot in self.snapshots)
