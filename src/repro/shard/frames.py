"""What crosses a shard boundary: serialized payload only.

A partition runs in a pool process and hands back plain data: output
dicts, sorted latency lists, plain-dict metric snapshots and
trace-event dicts.  Live simulation objects (an ``SNIC``, a
``Simulator``, a ``MetricsRegistry`` with its collector callables)
never cross — they are process-local by construction, and lint rule
SNIC011 rejects code that passes one to a pool.
"""

from __future__ import annotations

from typing import Dict, List


class ShardError(RuntimeError):
    """A partition failed in its worker, or its worker died."""


def registry_to_frame(registry) -> Dict[str, object]:
    """A metrics registry as plain data (collectors are process-local
    callables and deliberately do not travel)."""
    from repro.obs.metrics import Counter, Gauge, Histogram

    counters = []
    gauges = []
    histograms = []
    for instrument in registry.instruments():
        entry = {
            "name": instrument.name,
            "labels": list(instrument.labels),
        }
        if isinstance(instrument, Histogram):
            entry.update({
                "bounds": list(instrument.bounds),
                "counts": list(instrument.counts),
                "count": instrument.count,
                "sum": instrument.sum,
                "min": instrument.min,
                "max": instrument.max,
            })
            histograms.append(entry)
        elif isinstance(instrument, Counter):
            entry["value"] = instrument.value
            counters.append(entry)
        elif isinstance(instrument, Gauge):
            entry["value"] = instrument.value
            gauges.append(entry)
    return {"counters": counters, "gauges": gauges,
            "histograms": histograms}


def registry_from_frame(data: Dict[str, object]):
    """Rebuild a standalone registry from its frame form.

    The shard merger folds these into one registry via
    ``MetricsRegistry.merge_from`` — the per-instrument identities
    (``(name, labels)``) survive the round-trip, so shared families
    merge and per-instance families stay distinct.
    """
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    # These mints *reconstruct* instruments that were tagged at their
    # original mint sites — any tenant label travels inside
    # entry["labels"], so the literal-kwarg tenant check does not apply.
    for entry in data["counters"]:
        counter = registry.counter(  # snic: ignore[SNIC004]
            entry["name"], **{k: v for k, v in entry["labels"]})
        counter.value = entry["value"]
    for entry in data["gauges"]:
        gauge = registry.gauge(  # snic: ignore[SNIC004]
            entry["name"], **{k: v for k, v in entry["labels"]})
        gauge.value = entry["value"]
    for entry in data["histograms"]:
        histogram = registry.histogram(  # snic: ignore[SNIC004]
            entry["name"], bounds=entry["bounds"],
            **{k: v for k, v in entry["labels"]})
        histogram.counts = list(entry["counts"])
        histogram.count = entry["count"]
        histogram.sum = entry["sum"]
        histogram.min = entry["min"]
        histogram.max = entry["max"]
    return registry


def trace_events_to_frame(events) -> List[Dict[str, object]]:
    """Tracer spans as plain dicts (the tracer's own event shape)."""
    from dataclasses import asdict

    return [asdict(event) for event in events]


__all__ = [
    "ShardError",
    "registry_from_frame",
    "registry_to_frame",
    "trace_events_to_frame",
]
