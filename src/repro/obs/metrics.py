"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Every simulated component used to keep its own ad-hoc statistics
(``hits``/``misses`` attributes, ``bytes_by_client`` dicts).  This
module centralises them: components create labelled instruments in a
:class:`MetricsRegistry` and expose their historical attribute names as
thin read-through properties, so the registry is the single source of
truth while existing call sites keep working.

Design notes
------------

* Instruments are identified by ``(name, labels)``; asking the registry
  for the same pair returns the same instrument (get-or-create), which
  is how sibling components share a metric family while distinct
  instances stay separate.
* Component *instances* must not collide: two :class:`~repro.hw.cache.Cache`
  objects both named ``l2`` are different caches with different
  statistics.  :func:`instance_label` mints a unique per-instance label
  (``l2#7``) that components fold into their label sets.
* The hot-path cost of a counter increment is one bound-method call and
  one float add — deliberately no locks, no timestamps, no allocation.
* Histograms use fixed bucket upper bounds with linear interpolation
  inside the winning bucket for percentile estimation; the default
  bucket ladder is log-spaced and spans 1 ns … ~1 s, suitable for every
  latency the simulators produce.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

LabelKey = Tuple[Tuple[str, str], ...]


def instance_label(prefix: str) -> str:
    """A unique label for one component instance, e.g. ``l2#7``.

    Serial numbers are shared across prefixes within the current
    cell's registry so two caches created by two different NICs can
    never alias each other's counters.  The counter lives on the
    registry (not in a module global), so each cell's fresh registry
    numbers its instances from ``#1``.
    """
    return get_registry().instance_label(prefix)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (resettable for teardown/tests)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def sample(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": "counter",
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A value that goes up and down (queue depth, occupancy, backlog)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0.0

    def sample(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": "gauge",
            "labels": dict(self.labels),
            "value": self.value,
        }


def default_latency_buckets() -> Tuple[float, ...]:
    """Log-spaced nanosecond buckets: 1 ns … ~1 s, four per decade."""
    bounds: List[float] = []
    for decade in range(9):  # 1e0 .. 1e8
        for mantissa in (1.0, 1.8, 3.2, 5.6):
            bounds.append(mantissa * 10**decade)
    bounds.append(1e9)
    return tuple(bounds)


_DEFAULT_BUCKETS = default_latency_buckets()


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    ``bounds`` are inclusive upper edges; observations above the last
    bound land in a +inf overflow bucket whose percentile estimate is
    clamped to the observed maximum.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "count", "sum",
                 "min", "max")

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(bounds) if bounds else _DEFAULT_BUCKETS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bucket bounds must be sorted")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def p50(self) -> float:
        """Median estimate; see :meth:`percentile`."""
        return self.percentile(50)

    @property
    def p95(self) -> float:
        """95th-percentile estimate; see :meth:`percentile`."""
        return self.percentile(95)

    @property
    def p99(self) -> float:
        """Tail-latency estimate; see :meth:`percentile`."""
        return self.percentile(99)

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (0–100), bucket-interpolated."""
        if not self.count:
            return 0.0
        if not 0 <= q <= 100:
            raise ValueError("percentile must be within [0, 100]")
        rank = q / 100.0 * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count and cumulative + bucket_count >= rank:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + fraction * (upper - lower)
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram, in place.

        This is the composition primitive windowed aggregation is
        built on: merging per-window histograms must be
        indistinguishable from having observed every value into one
        histogram, so the bucket ladders have to be *identical* —
        close-but-different bounds would silently skew percentile
        estimates, hence the hard error.
        """
        if not isinstance(other, Histogram):
            raise TypeError(f"cannot merge {type(other).__name__} into a "
                            f"Histogram")
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r}: bucket bounds "
                f"differ ({len(other.bounds)} bounds vs {len(self.bounds)})")
        for i, bucket_count in enumerate(other.counts):
            self.counts[i] += bucket_count
        self.count += other.count
        self.sum += other.sum
        if other.count:
            if other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max
        return self

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def sample(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": "histogram",
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Process-wide store of labelled instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create: the same
    ``(name, labels)`` pair always maps to the same instrument object.
    ``register_collector`` attaches a zero-overhead pull source: a
    callable invoked only when a reader walks the whole registry
    (:meth:`snapshot`, :meth:`series`, the OpenMetrics export), for
    components that keep their own tables -- the interference
    accountant serves its per-pair blame this way.

    Instruments are only ever added, in mint order, and never replaced
    or dropped, so a reader may cache instrument objects (or how far it
    has scanned :meth:`items`) for the registry's lifetime.  A new cell
    gets a new registry (:func:`repro.obs.bench.isolate`).
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], object] = {}
        self._collectors: List[Callable[[], Iterable[Dict[str, object]]]] = []
        self._serial = itertools.count(1)

    def instance_label(self, prefix: str) -> str:
        """A unique per-instance label minted from this registry's
        serial stream, e.g. ``l2#7`` (shared numbering across
        prefixes)."""
        return f"{prefix}#{next(self._serial)}"

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = Histogram(name, key[1], bounds=bounds)
            self._instruments[key] = instrument
        elif not isinstance(instrument, Histogram):
            raise TypeError(f"{name}{dict(key[1])} already registered as "
                            f"{type(instrument).__name__}")
        return instrument

    def _get_or_create(self, cls, name: str, labels: Dict[str, object]):
        """The instrument at ``(name, labels)``, minting a ``cls`` on a
        miss."""
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1])
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(f"{name}{dict(key[1])} already registered as "
                            f"{type(instrument).__name__}")
        return instrument

    def register_collector(
        self, collector: Callable[[], Iterable[Dict[str, object]]]
    ) -> None:
        """Serve ``collector``'s samples (``sample()``-shaped counter or
        gauge dicts) alongside the instruments."""
        self._collectors.append(collector)

    def collected(self) -> Iterator[Dict[str, object]]:
        """Every collector's samples, collector by collector."""
        for collector in self._collectors:
            yield from collector()

    def series(self) -> int:
        """How many series a snapshot holds: the instruments plus the
        collected samples."""
        return len(self._instruments) + sum(1 for _ in self.collected())

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self) -> List[object]:
        return list(self._instruments.values())

    def items(self) -> Iterator[Tuple[Tuple[str, LabelKey], object]]:
        """``(key, instrument)`` pairs in mint order, without copying.

        A live view of the registry: minting while iterating raises.
        """
        return iter(self._instruments.items())

    def snapshot(self) -> List[Dict[str, object]]:
        """Every instrument (and collector output) as plain dicts."""
        samples = [inst.sample() for inst in self._instruments.values()]
        samples.extend(self.collected())
        samples.sort(key=lambda s: (s["name"], sorted(s["labels"].items())))
        return samples


def get_registry() -> MetricsRegistry:
    """The current cell's registry."""
    from repro.obs.cell import CELL

    return CELL.registry


def snapshot() -> List[Dict[str, object]]:
    """Convenience: :meth:`MetricsRegistry.snapshot` of the current
    cell's registry."""
    return get_registry().snapshot()
