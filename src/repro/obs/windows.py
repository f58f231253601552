"""Sim-time windowed aggregation of metrics registry state.

The registry (:mod:`repro.obs.metrics`) is cumulative: a counter or
histogram answers "what happened since the run began", which is the
right shape for end-of-run scorecards but useless for *rate* questions
— an SLO burn rate is "how fast is the error budget being consumed
**right now**", which needs per-window deltas.

:class:`WindowedAggregator` is an observer on the event kernel
(:meth:`~repro.hw.events.Simulator.every`, which ends the ticks with the
work; no wall clock anywhere): every ``window_ns`` of simulated time it
*rotates*, snapshotting the delta of every tracked
instrument since the previous rotation into a :class:`WindowSnapshot`.
Deltas are first-class instruments, not flat numbers:

* counter deltas are floats (``value_now - value_at_window_start``);
* histogram deltas are real :class:`~repro.obs.metrics.Histogram`
  objects carrying the per-bucket count difference, so a window can
  answer percentile and threshold-exceedance questions on its own —
  and windows **compose**: merging every window's delta histogram via
  :meth:`Histogram.merge` reproduces the cumulative histogram
  bucket-for-bucket.

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
families).  Between rotations the aggregator keeps its tracked
counters and gauges as parallel sequences: a sorted tuple of their
``(name, labels)`` keys, the instruments in that order, and each one's
value at the previous rotation.  The registry only grows, so a
rotation scans just the instruments minted since the previous one and
merges them into the kept run; the key tuple is replaced only then,
and every snapshot taken in between shares it.

While every tracked key is an interference pair key (the fixed
``culprit``/``resource``/``tenant`` schema the accountant mints), the
merge never compares the nested key tuples: each key keeps four sort
columns (its name and three label values), and the order comes from
one integer per key that ranks those values against the sorted
distinct values -- the same order, at the cost of a few dict lookups.
The labels of the new keys are the only ones read.  Any other tracked
key switches the index back to comparing keys.

A rotation costs one read and one subtraction per tracked instrument.
The deltas go into one ``array('d')`` aligned with the key tuple: raw
doubles, so a window holds no float object per key and the garbage
collector walks none of them.  A snapshot's
:attr:`WindowSnapshot.counters` dict (nonzero deltas in key order) is
built from that array on first access; only the OpenMetrics window
export asks for it.  The SLO alerter reads
:meth:`WindowSnapshot.cross_tenant_wait_by_victim`, which sums the
positive deltas of the cross-tenant ``interference_wait_ns_total``
keys through an index precomputed alongside the key tuple -- each
victim's key positions, in key order -- so its float sums are those of
a walk over the dict.
"""

from __future__ import annotations

from array import array
from functools import reduce
from itertools import islice
from operator import add, itemgetter, sub
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.interference import WAIT_METRIC, on_pair_schema
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabelKey,
    MetricsRegistry,
    get_registry,
)

if TYPE_CHECKING:
    from repro.hw.events import PeriodicHandle, Simulator

#: Default tracked-name prefixes: the SLO layer's own instruments and
#: the interference attribution families it reads through.
DEFAULT_PREFIXES: Tuple[str, ...] = ("slo_", "interference_")

#: Upper bound on retained windows; long experiments drop the oldest.
DEFAULT_MAX_WINDOWS = 4096

InstrumentKey = Tuple[str, LabelKey]

#: Per victim label, in label order: a function picking the deltas of
#: that victim's cross-tenant ``interference_wait_ns_total`` keys out of
#: a delta sequence, as a tuple in key order.
WaitIndex = Tuple[Tuple[str, Callable[[Sequence[float]], Tuple[float, ...]]],
                  ...]


class WindowSnapshot:
    """Everything that changed during one window of simulated time.

    Counter and gauge deltas are held as one ``array('d')`` aligned
    with the aggregator's key tuple at rotation time (zeros included);
    the :attr:`counters` dict is derived from it on first access.
    """

    __slots__ = ("index", "start_ns", "end_ns", "histograms", "_keys",
                 "_deltas", "_wait_index", "_counters")

    def __init__(self, index: int, start_ns: float, end_ns: float,
                 keys: Sequence[InstrumentKey], deltas: Sequence[float],
                 histograms: Dict[InstrumentKey, Histogram],
                 wait_index: WaitIndex = ()) -> None:
        self.index = index
        self.start_ns = start_ns
        self.end_ns = end_ns
        #: ``(name, labels) -> delta Histogram`` for histograms.
        self.histograms = histograms
        self._keys = keys
        self._deltas = deltas
        self._wait_index = wait_index
        self._counters: Optional[Dict[InstrumentKey, float]] = None

    @property
    def counters(self) -> Dict[InstrumentKey, float]:
        """``(name, labels) -> delta`` for the counters and gauges that
        changed, in key order."""
        if self._counters is None:
            self._counters = {key: delta for key, delta
                              in zip(self._keys, self._deltas) if delta}
        return self._counters

    @property
    def changed(self) -> bool:
        """Whether any tracked instrument moved during this window."""
        return bool(self.histograms) or any(self._deltas)

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

        The read-through into the interference families: sums the
        positive ``interference_wait_ns_total`` deltas whose ``tenant``
        (victim) and ``culprit`` labels differ, keyed by the victim's
        string label, in key order.  Deterministically sorted.
        """
        waits: Dict[str, float] = {}
        for victim, pick in self._wait_index:
            positive = [delta for delta in pick(self._deltas) if delta > 0.0]
            if positive:
                # Left to right, as a running ``+=`` over the keys.
                waits[victim] = reduce(add, positive)
        return waits

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


def _picker(positions: List[int]) \
        -> Callable[[Sequence[float]], Tuple[float, ...]]:
    """``itemgetter(*positions)``, returning a tuple even for one."""
    if len(positions) == 1:
        position = positions[0]
        return lambda values: (values[position],)
    return itemgetter(*positions)


def _cross_tenant_victim(key: InstrumentKey) -> Optional[str]:
    """The victim label of a cross-tenant wait key, else ``None``."""
    name, labels = key
    if name != WAIT_METRIC:
        return None
    if on_pair_schema(labels):
        return None if labels[2][1] == labels[0][1] else labels[2][1]
    victim = culprit = None
    for label, value in labels:
        if label == "tenant":
            victim = value
        elif label == "culprit":
            culprit = value
    return None if victim == culprit else victim


#: Tracked keys' sort columns: their names, culprits, resources and
#: tenants, one list each, aligned with the keys.
Columns = Tuple[List[str], ...]


def _pair_columns(keys: Sequence[InstrumentKey]) -> Optional[Columns]:
    """The names, culprits, resources and tenants of ``keys``, when
    every key is on the interference families' fixed label schema;
    else ``None``."""
    labels = [key[1] for key in keys]
    if not all(map(on_pair_schema, labels)):
        return None
    return ([key[0] for key in keys],
            [key_labels[0][1] for key_labels in labels],
            [key_labels[1][1] for key_labels in labels],
            [key_labels[2][1] for key_labels in labels])


def _coded_order(columns: Columns) -> List[int]:
    """The positions of the keys ``columns`` describe, in key order.

    Each key's code ranks its four column values against the sorted
    distinct values, so comparing the integer codes orders the keys
    exactly as comparing their nested string tuples would.
    """
    rank = {value: i for i, value
            in enumerate(sorted(set().union(*columns)))}
    width = len(rank)
    get = rank.__getitem__
    codes = [((name * width + culprit) * width + resource) * width + tenant
             for name, culprit, resource, tenant
             in zip(*(map(get, column) for column in columns))]
    return sorted(range(len(codes)), key=codes.__getitem__)


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
        self._registry = registry if registry is not None \
            else get_registry()
        self.snapshots: List[WindowSnapshot] = []
        self.windows_dropped = 0
        self._window_start_ns = 0.0
        self._ticks: Optional[PeriodicHandle] = None
        self._closed = False
        #: Tracked counters/gauges as parallel sequences in key order:
        #: the keys (a tuple snapshots share), the instruments, their
        #: values at the last rotation, and each key's cross-tenant
        #: victim (``None`` for every other key).  ``_wait_index``
        #: groups the positions of the last by victim.  ``_columns``
        #: holds each key's sort columns while every tracked key is an
        #: interference pair key, else ``None``.
        self._keys: Tuple[InstrumentKey, ...] = ()
        self._instruments: List[object] = []
        self._bases: List[float] = []
        self._victims: List[Optional[str]] = []
        self._wait_index: WaitIndex = ()
        self._columns: Optional[Columns] = ([], [], [], [])
        #: Tracked histograms as ``[key, instrument, (counts, count,
        #: sum)]`` entries in key order.
        self._histograms: List[list] = []
        #: How many of the registry's instruments the index has
        #: scanned.
        self._index_seen = 0

    def _refresh_index(self) -> None:
        """Bring the tracked sequences up to date with the registry.

        Scans only the instruments minted since the previous call,
        sorts them and merges them into the kept run (see the module
        docstring).
        """
        registry = self._registry
        if len(registry) == self._index_seen:
            return
        new_keys: List[InstrumentKey] = []
        new_instruments: List[object] = []
        new_histograms: List[list] = []
        for key, instrument in islice(registry.items(), self._index_seen,
                                      None):
            if not key[0].startswith(self.prefixes):
                continue
            if isinstance(instrument, Histogram):
                new_histograms.append(
                    [key, instrument, ([0] * len(instrument.counts), 0, 0.0)])
            elif isinstance(instrument, (Counter, Gauge)):
                new_keys.append(key)
                new_instruments.append(instrument)
        self._index_seen = len(registry)
        if new_histograms:
            self._histograms.extend(new_histograms)
            self._histograms.sort(key=itemgetter(0))
        if new_keys:
            self._merge_counters(new_keys, new_instruments)

    def _merge_counters(self, new_keys: List[InstrumentKey],
                        new_instruments: List[object]) -> None:
        """Merge newly minted counters/gauges into the sorted sequences.

        While every tracked key is an interference pair key, the order
        comes from the sort columns (:func:`_coded_order`), read off
        the labels of the new keys only; otherwise from comparing keys.
        """
        keys = [*self._keys, *new_keys]
        instruments = [*self._instruments, *new_instruments]
        bases = [*self._bases, *([0.0] * len(new_keys))]
        victims = [*self._victims, *map(_cross_tenant_victim, new_keys)]
        kept = self._columns
        added = None if kept is None else _pair_columns(new_keys)
        if kept is None or added is None:
            self._columns = None
            order = sorted(range(len(keys)), key=keys.__getitem__)
        else:
            columns = tuple(old + more for old, more in zip(kept, added))
            order = _coded_order(columns)
            self._columns = tuple([column[i] for i in order]
                                  for column in columns)
        self._keys = tuple([keys[i] for i in order])
        self._instruments = [instruments[i] for i in order]
        self._bases = [bases[i] for i in order]
        self._victims = [victims[i] for i in order]
        positions: Dict[str, List[int]] = {}
        for position, victim in enumerate(self._victims):
            if victim is not None:
                positions.setdefault(victim, []).append(position)
        self._wait_index = tuple((victim, _picker(positions[victim]))
                                 for victim in sorted(positions))

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
        self._refresh_index()
        values = [instrument.value for instrument in self._instruments]
        deltas = array("d", map(sub, values, self._bases))
        self._bases = values
        histograms: Dict[InstrumentKey, Histogram] = {}
        for entry in self._histograms:
            key, instrument, base = entry
            if instrument.count != base[1]:
                histograms[key] = _delta_histogram(
                    instrument, base[0], base[1], base[2])
            entry[2] = _histogram_state(instrument)
        snapshot = WindowSnapshot(
            index=len(self.snapshots) + self.windows_dropped,
            start_ns=self._window_start_ns, end_ns=now,
            keys=self._keys, deltas=deltas, histograms=histograms,
            wait_index=self._wait_index)
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
        self._window_start_ns = float(self.sim.now_ns)
        self._prime_bases()
        self._ticks = self.sim.every(self.window_ns, self.rotate)

    def stop(self) -> None:
        if self._ticks is not None:
            self._ticks.cancel()

    @property
    def running(self) -> bool:
        return self._ticks is not None and self._ticks.active

    def _prime_bases(self) -> None:
        """Capture the pre-run state so window 0 holds only new work."""
        self._refresh_index()
        self._bases = [instrument.value for instrument in self._instruments]
        for entry in self._histograms:
            entry[2] = _histogram_state(entry[1])

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

    def total_counter(self, name: str, **labels: object) -> float:
        """Sum of one counter's deltas across every retained window."""
        return sum(snapshot.counter(name, **labels)
                   for snapshot in self.snapshots)
