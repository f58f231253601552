"""Tests for repro.obs.metrics: instruments, registry, and the
read-through migration of the hw-layer statistics."""

import json

import pytest

from repro.obs.export import (
    format_metrics_table,
    metrics_rows,
    metrics_to_csv,
    write_metrics_json,
)
from repro.obs import metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_latency_buckets,
    get_registry,
    instance_label,
)


class TestInstruments:
    def test_counter_inc_and_reset(self):
        counter = Counter("c", ())
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        counter.reset()
        assert counter.value == 0.0

    def test_gauge_set_inc_dec(self):
        gauge = Gauge("g", ())
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0

    def test_instance_label_is_process_unique(self):
        labels = {instance_label("l2") for _ in range(50)}
        assert len(labels) == 50
        assert all(label.startswith("l2#") for label in labels)


class TestHistogram:
    def test_default_buckets_sorted_and_span_ns_to_s(self):
        bounds = default_latency_buckets()
        assert list(bounds) == sorted(bounds)
        assert bounds[0] == 1.0 and bounds[-1] == 1e9

    def test_mean_sum_count_minmax(self):
        hist = Histogram("h", (), bounds=(10.0, 100.0, 1000.0))
        for value in (5.0, 50.0, 500.0, 5000.0):  # last one overflows
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(5555.0)
        assert hist.mean == pytest.approx(1388.75)
        assert hist.min == 5.0 and hist.max == 5000.0

    def test_percentiles_interpolate_within_bucket(self):
        hist = Histogram("h", (), bounds=(0.0, 100.0))
        for _ in range(100):
            hist.observe(50.0)  # all in the (0, 100] bucket
        # rank falls inside one uniform bucket -> linear interpolation,
        # clamped to the observed range [50, 50].
        assert hist.percentile(50) == pytest.approx(50.0)
        assert hist.percentile(99) == pytest.approx(50.0)

    def test_percentiles_order_across_buckets(self):
        hist = Histogram("h", (), bounds=(10.0, 100.0, 1000.0))
        for _ in range(90):
            hist.observe(5.0)
        for _ in range(10):
            hist.observe(500.0)
        p50, p95 = hist.percentile(50), hist.percentile(95)
        assert p50 <= 10.0
        assert 100.0 <= p95 <= 1000.0

    def test_overflow_bucket_clamps_to_observed_range(self):
        hist = Histogram("h", (), bounds=(10.0,))
        hist.observe(70.0)
        hist.observe(90.0)
        # Both land in the +inf overflow bucket; the estimate must stay
        # inside the observed [min, max] rather than running off to inf.
        assert 70.0 <= hist.percentile(99) <= 90.0
        assert hist.percentile(100) == 90.0

    def test_empty_histogram(self):
        hist = Histogram("h", ())
        assert hist.percentile(50) == 0.0
        assert hist.mean == 0.0
        sample = hist.sample()
        assert sample["count"] == 0 and sample["min"] == 0.0

    def test_percentile_validates_range(self):
        hist = Histogram("h", ())
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", (), bounds=(10.0, 5.0))

    def test_exact_boundary_values_land_in_lower_bucket(self):
        hist = Histogram("h", (), bounds=(10.0, 100.0))
        hist.observe(10.0)   # == first bound: bucket (0, 10]
        hist.observe(100.0)  # == second bound: bucket (10, 100]
        assert hist.counts[0] == 1 and hist.counts[1] == 1
        assert hist.counts[2] == 0

    def test_percentile_extremes_q0_and_q100(self):
        hist = Histogram("h", (), bounds=(10.0, 100.0, 1000.0))
        for value in (5.0, 50.0, 500.0):
            hist.observe(value)
        # q=0 clamps to the observed min, q=100 to the observed max.
        assert hist.percentile(0) == 5.0
        assert hist.percentile(100) == 500.0

    def test_single_observation_every_percentile_equal(self):
        hist = Histogram("h", ())
        hist.observe(42.0)
        for q in (0, 1, 50, 99, 100):
            assert hist.percentile(q) == 42.0


class TestHistogramMerge:
    def test_merge_counts_sum_and_extrema(self):
        left = Histogram("h", (), bounds=(10.0, 100.0))
        right = Histogram("h", (), bounds=(10.0, 100.0))
        left.observe(5.0)
        right.observe(50.0)
        right.observe(500.0)
        left.merge(right)
        assert left.count == 3
        assert left.sum == pytest.approx(555.0)
        assert left.min == 5.0 and left.max == 500.0
        assert left.counts == [1, 1, 1]

    def test_merge_empty_other_is_identity(self):
        left = Histogram("h", (), bounds=(10.0,))
        left.observe(3.0)
        before = (list(left.counts), left.count, left.sum,
                  left.min, left.max)
        left.merge(Histogram("h", (), bounds=(10.0,)))
        assert (list(left.counts), left.count, left.sum,
                left.min, left.max) == before

    def test_merge_rejects_bounds_mismatch(self):
        left = Histogram("h", (), bounds=(10.0, 100.0))
        right = Histogram("h", (), bounds=(10.0, 200.0))
        with pytest.raises(ValueError):
            left.merge(right)

    def test_merge_rejects_non_histogram(self):
        with pytest.raises(TypeError):
            Histogram("h", ()).merge(Counter("c", ()))

    def test_merge_then_percentile_equals_direct_observation(self):
        # The windowed-aggregation equivalence: observing a stream into
        # shards and merging must answer percentiles identically to one
        # histogram that saw everything.
        samples = [3.0, 17.0, 42.0, 99.0, 250.0, 800.0, 4_000.0, 42.0]
        direct = Histogram("h", ())
        shards = [Histogram("h", ()) for _ in range(3)]
        for i, value in enumerate(samples):
            direct.observe(value)
            shards[i % 3].observe(value)
        merged = Histogram("h", ())
        for shard in shards:
            merged.merge(shard)
        assert merged.counts == direct.counts
        assert merged.count == direct.count
        assert merged.sum == direct.sum
        assert merged.min == direct.min and merged.max == direct.max
        for q in (0, 25, 50, 75, 90, 99, 100):
            assert merged.percentile(q) == direct.percentile(q)


class TestRegistry:
    def test_get_or_create_same_labels_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", cache="l2", tenant=1)
        b = registry.counter("hits", tenant=1, cache="l2")  # order-free
        assert a is b
        assert len(registry) == 1

    def test_per_tenant_label_separation(self):
        registry = MetricsRegistry()
        registry.counter("hits", tenant=1).inc(5)
        registry.counter("hits", tenant=2).inc(7)
        assert registry.counter("hits", tenant=1).value == 5.0
        assert registry.counter("hits", tenant=2).value == 7.0
        samples = {tuple(sorted(s["labels"].items())): s["value"]
                   for s in registry.snapshot()}
        assert samples[(("tenant", "1"),)] == 5.0
        assert samples[(("tenant", "2"),)] == 7.0

    def test_type_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", a=1)
        with pytest.raises(TypeError):
            registry.gauge("x", a=1)
        with pytest.raises(TypeError):
            registry.histogram("x", a=1)

    def test_reset_keeps_instrument_identity(self):
        """Components cache direct instrument refs; reset() must zero the
        values without invalidating those refs."""
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(9)
        registry.reset()
        assert counter.value == 0.0
        assert registry.counter("c") is counter

    def test_collector_pull_at_snapshot_time(self):
        registry = MetricsRegistry()
        state = {"depth": 0}
        registry.register_collector(lambda: [
            {"name": "queue_depth", "type": "gauge", "labels": {},
             "value": state["depth"]}])
        state["depth"] = 42
        (sample,) = registry.snapshot()
        assert sample["value"] == 42

    def test_global_registry_singleton(self):
        assert get_registry() is get_registry()


class TestExport:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("bus_bytes_total", bus="bus#1", client=1).inc(4096)
        registry.gauge("depth", ring="rx").set(3)
        hist = registry.histogram("bus_latency_ns", bus="bus#1", client=1)
        hist.observe(100.0)
        hist.observe(300.0)
        return registry

    def test_rows_flatten_labels(self):
        rows = metrics_rows(self._populated())
        by_name = {row["name"]: row for row in rows}
        assert by_name["bus_bytes_total"]["labels"] == "bus=bus#1,client=1"
        assert by_name["bus_bytes_total"]["value"] == 4096.0
        assert by_name["bus_latency_ns"]["count"] == 2

    def test_csv_round_trip(self):
        import csv
        import io

        text = metrics_to_csv(self._populated())
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3
        assert {row["type"] for row in rows} == {"counter", "gauge",
                                                 "histogram"}

    def test_json_round_trip(self, tmp_path):
        path = write_metrics_json(self._populated(),
                                  str(tmp_path / "metrics.json"))
        with open(path) as fh:
            samples = json.load(fh)
        assert len(samples) == 3
        assert all("name" in s and "type" in s for s in samples)

    def test_table_filter_and_shape(self):
        table = format_metrics_table(self._populated(), title="t",
                                     name_filter="bus_")
        assert "=== t ===" in table
        assert "bus_bytes_total" in table
        assert "depth" not in table
        empty = format_metrics_table(MetricsRegistry())
        assert "(no metrics recorded)" in empty


class TestCacheMigration:
    """hw.cache statistics live in the registry; the old attribute API
    is a read-through view over the same counters."""

    def _cache(self):
        from repro.hw.cache import Cache, CacheConfig

        return Cache(CacheConfig(size_bytes=4096, ways=4), name="l2m")

    def test_stats_read_through_registry(self):
        cache = self._cache()
        cache.access(0, owner=1)        # miss
        cache.access(0, owner=1)        # hit
        cache.access(64, owner=2)       # miss
        assert cache.stats[1].hits == 1
        assert cache.stats[1].misses == 1
        assert cache.stats[1].accesses == 2
        assert cache.stats[1].miss_rate == pytest.approx(0.5)
        assert cache.stats[2].misses == 1 and cache.stats[2].hits == 0

    def test_registry_holds_the_same_numbers(self):
        cache = self._cache()
        cache.access(0, owner=1)
        cache.access(0, owner=1)
        registry = get_registry()
        hits = registry.counter("cache_hits_total",
                                cache=cache._obs_label, tenant=1)
        misses = registry.counter("cache_misses_total",
                                  cache=cache._obs_label, tenant=1)
        assert hits.value == 1.0 and misses.value == 1.0
        # Same objects the read-through view wraps.
        assert cache.stats[1]._hits is hits

    def test_two_caches_do_not_alias(self):
        first, second = self._cache(), self._cache()
        first.access(0, owner=1)
        assert first.stats[1].misses == 1
        assert 1 not in second.stats

    def test_reset_stats(self):
        cache = self._cache()
        cache.access(0, owner=1)
        cache.reset_stats()
        assert cache.stats == {}
        # Contents survive a stats reset: the refill is a hit, and the
        # counters restart from zero.
        cache.access(0, owner=1)
        assert cache.stats[1].hits == 1
        assert cache.stats[1].misses == 0


class TestBusMigration:
    def test_bytes_by_client_read_through(self):
        from repro.hw.bus import FCFSArbiter, IOBus

        bus = IOBus(FCFSArbiter(bandwidth_bytes_per_ns=1.0))
        bus.transfer(1, 100, now_ns=0.0)
        bus.transfer(1, 100, now_ns=1000.0)
        bus.transfer(2, 50, now_ns=2000.0)
        assert bus.bytes_by_client == {1: 200, 2: 50}

    def test_latency_histograms_per_client(self):
        from repro.hw.bus import FCFSArbiter, IOBus

        bus = IOBus(FCFSArbiter(bandwidth_bytes_per_ns=1.0))
        bus.transfer(1, 100, now_ns=0.0)
        hist = get_registry().histogram("bus_latency_ns",
                                        bus=bus._obs_label, tenant=1)
        assert hist.count == 1
        assert hist.mean == pytest.approx(100.0)


class TestModuleReset:
    """The module-level reset()/snapshot() API used by the bench
    harness and the autouse conftest fixture."""

    def test_reset_clears_global_registry(self):
        get_registry().counter("stale_counter", tenant=1).inc(5)
        assert len(get_registry()) > 0
        metrics.reset()
        assert len(get_registry()) == 0
        assert metrics.snapshot() == []

    def test_reset_restarts_instance_serials(self):
        first = instance_label("l2")
        metrics.reset()
        assert instance_label("l2") == first

    def test_serials_unique_between_resets(self):
        metrics.reset()
        assert instance_label("bus") == "bus#1"
        assert instance_label("bus") == "bus#2"
        assert instance_label("dma") == "dma#3"

    def test_registry_object_survives_reset(self):
        registry = get_registry()
        metrics.reset()
        assert get_registry() is registry

    def test_module_snapshot_sees_global_registry(self):
        get_registry().gauge("fresh_gauge", tenant=2).set(7.0)
        names = {row["name"] for row in metrics.snapshot()}
        assert "fresh_gauge" in names
