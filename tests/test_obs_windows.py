"""Tests for repro.obs.windows: sim-time windowed delta aggregation."""

import gc
import random
from array import array
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.events import Simulator
from repro.obs import metrics
from repro.obs.bench import isolate
from repro.obs.interference import InterferenceAccountant
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.windows import (
    DEFAULT_PREFIXES,
    WindowedAggregator,
    WindowSnapshot,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestRotation:
    def test_counter_deltas_per_window(self, registry):
        sim = Simulator()
        counter = registry.counter("slo_events_total", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        counter.inc(3)
        agg.rotate(now_ns=100)
        counter.inc(5)
        agg.rotate(now_ns=200)
        assert agg.snapshots[0].counter("slo_events_total", tenant=1) == 3
        assert agg.snapshots[1].counter("slo_events_total", tenant=1) == 5

    def test_pre_start_state_excluded_from_window_zero(self, registry):
        sim = Simulator()
        counter = registry.counter("slo_events_total", tenant=1)
        counter.inc(40)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        counter.inc(2)
        snap = agg.rotate(now_ns=100)
        assert snap.counter("slo_events_total", tenant=1) == 2

    def test_untracked_prefixes_ignored(self, registry):
        sim = Simulator()
        registry.counter("cache_hits_total", tenant=1).inc(9)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        registry.counter("cache_hits_total", tenant=1).inc(9)
        snap = agg.rotate(now_ns=100)
        assert snap.counters == {}

    def test_default_prefixes_cover_slo_and_interference(self):
        assert "slo_" in DEFAULT_PREFIXES
        assert "interference_" in DEFAULT_PREFIXES

    def test_window_indices_and_bounds(self, registry):
        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=50, registry=registry)
        agg.start()
        first = agg.rotate(now_ns=50)
        second = agg.rotate(now_ns=120)
        assert (first.index, first.start_ns, first.end_ns) == (0, 0.0, 50.0)
        assert (second.index, second.start_ns, second.end_ns) == \
            (1, 50.0, 120.0)
        assert second.duration_ns == 70.0

    def test_max_windows_prunes_oldest(self, registry):
        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=10, registry=registry,
                                 max_windows=3)
        agg.start()
        for i in range(5):
            agg.rotate(now_ns=(i + 1) * 10)
        assert len(agg.snapshots) == 3
        assert agg.windows_dropped == 2
        assert [s.index for s in agg.snapshots] == [2, 3, 4]

    def test_on_rotate_callback_sees_each_snapshot(self, registry):
        sim = Simulator()
        seen = []
        agg = WindowedAggregator(sim, window_ns=10, registry=registry,
                                 on_rotate=seen.append)
        agg.start()
        agg.rotate(now_ns=10)
        agg.rotate(now_ns=20)
        assert [s.index for s in seen] == [0, 1]
        assert all(isinstance(s, WindowSnapshot) for s in seen)

    def test_validation(self, registry):
        sim = Simulator()
        with pytest.raises(ValueError):
            WindowedAggregator(sim, window_ns=0, registry=registry)
        with pytest.raises(ValueError):
            WindowedAggregator(sim, window_ns=10, registry=registry,
                               max_windows=0)


class TestIncrementalIndex:
    """The aggregator keeps its sorted instrument index between
    rotations; every window must still look like a fresh sorted walk
    of the whole registry."""

    def test_instrument_minted_between_rotations_in_sorted_position(
            self, registry):
        sim = Simulator()
        for tenant in range(0, 80, 2):
            registry.counter("slo_events_total", tenant=tenant)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        agg.rotate(now_ns=100)
        registry.counter("slo_events_total", tenant=41).inc(7)
        registry.counter("slo_events_total", tenant=40).inc(1)
        registry.counter("slo_events_total", tenant=42).inc(1)
        snap = agg.rotate(now_ns=200)
        assert list(snap.counters) == [
            ("slo_events_total", (("tenant", str(t)),))
            for t in (40, 41, 42)]
        assert snap.counter("slo_events_total", tenant=41) == 7

    def test_windows_match_a_full_sorted_walk(self, registry):
        sim = Simulator()
        rng = random.Random(5)
        names = ("slo_events_total", "interference_wait_ns_total",
                 "cache_hits_total", "slo_bad_total")
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        previous = {}
        for window in range(1, 9):
            for _ in range(rng.randrange(1, 60)):
                registry.counter(rng.choice(names),
                                 tenant=rng.randrange(30)).inc(
                    rng.randrange(1, 5))
            snap = agg.rotate(now_ns=100 * window)
            current = {(inst.name, inst.labels): inst.value
                       for inst in registry.instruments()
                       if inst.name.startswith(DEFAULT_PREFIXES)}
            expected = {key: value - previous.get(key, 0.0)
                        for key, value in sorted(current.items())
                        if value - previous.get(key, 0.0)}
            assert list(snap.counters.items()) == list(expected.items())
            previous = current

    def test_explicit_registry_ignores_the_default_registry(self, registry):
        sim = Simulator()
        mine = registry.counter("slo_events_total", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        mine.inc(2)
        metrics.get_registry().counter("slo_events_total", tenant=9).inc(5)
        first = agg.rotate(now_ns=100)
        isolate()
        mine.inc(3)
        metrics.get_registry().counter("slo_events_total", tenant=9).inc(5)
        second = agg.rotate(now_ns=200)
        key = ("slo_events_total", (("tenant", "1"),))
        assert first.counters == {key: 2.0}
        assert second.counters == {key: 3.0}

    def test_default_registry_is_the_cell_at_construction(self):
        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=100)
        agg.start()
        metrics.get_registry().counter("slo_events_total", tenant=1).inc(4)
        isolate()
        metrics.get_registry().counter("slo_events_total", tenant=2).inc(6)
        snap = agg.rotate(now_ns=100)
        assert snap.counters == {("slo_events_total", (("tenant", "1"),)):
                                 4.0}


class EagerWindows:
    """Reference: a rotation that builds each window's counter dict by
    walking every tracked instrument in sorted key order, and reads the
    cross-tenant wait back out of that dict's labels."""

    def __init__(self, registry, prefixes=DEFAULT_PREFIXES):
        self.registry = registry
        self.prefixes = prefixes
        self.entries = []
        self.seen = 0

    def _tracked(self):
        minted = self.registry.instruments()[self.seen:]
        self.seen += len(minted)
        self.entries.extend(
            [(inst.name, inst.labels), inst, 0.0] for inst in minted
            if inst.name.startswith(self.prefixes)
            and isinstance(inst, (Counter, Gauge)))
        self.entries.sort(key=itemgetter(0))
        return self.entries

    def prime(self):
        for entry in self._tracked():
            entry[2] = entry[1].value

    def rotate(self):
        counters = {}
        for entry in self._tracked():
            value = entry[1].value
            delta = value - entry[2]
            if delta:
                counters[entry[0]] = delta
            entry[2] = value
        return counters

    @staticmethod
    def cross_tenant_wait_by_victim(counters):
        waits = {}
        for (name, labels), delta in counters.items():
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


def _bits(mapping):
    """A mapping's items with exact float bits, in order."""
    return [(key, float(value).hex()) for key, value in mapping.items()]


class TestArrayBackedDifferential:
    """Random workloads: every window's counters and cross-tenant wait
    agree exactly with the eager dict-building reference."""

    TENANTS = (None, 1, 2, 9, 10, 11, 100)
    RESOURCES = ("bus", "dma", "dram")

    def _step(self, rng, registry):
        roll = rng.random()
        tenant = rng.choice(self.TENANTS)
        if roll < 0.45:
            culprit = rng.choice(self.TENANTS)
            amount = rng.choice((rng.uniform(0.0, 1e4), 1e-9, 0.1, 3.0))
            if rng.random() < 0.1:
                amount = -amount
            name = rng.choice(("interference_wait_ns_total",
                               "interference_events_total"))
            registry.counter(name, resource=rng.choice(self.RESOURCES),
                             tenant=tenant, culprit=culprit).inc(amount)
        elif roll < 0.6:
            gauge = registry.gauge("slo_backlog", tenant=tenant)
            if rng.random() < 0.5:
                gauge.dec(rng.uniform(0.0, 50.0))
            else:
                gauge.set(rng.uniform(-10.0, 10.0))
        elif roll < 0.75:
            registry.counter("slo_events_total", tenant=tenant).inc(
                rng.randrange(1, 4))
        elif roll < 0.85:
            # Minted, never touched.
            registry.counter("slo_idle_total", tenant=rng.randrange(30))
        elif roll < 0.95:
            registry.counter("cache_hits_total", tenant=tenant).inc()
        else:
            registry.histogram("slo_latency_ns", tenant=tenant).observe(
                rng.uniform(1.0, 1e5))

    @pytest.mark.parametrize("seed", range(8))
    def test_windows_match_eager_reference(self, registry, seed):
        rng = random.Random(seed)
        sim = Simulator()
        for _ in range(rng.randrange(0, 40)):
            self._step(rng, registry)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry,
                                 max_windows=3)
        reference = EagerWindows(registry)
        agg.start()
        reference.prime()
        for window in range(1, 16):
            for _ in range(rng.randrange(0, 80)):
                self._step(rng, registry)
            snap = agg.rotate(now_ns=100 * window)
            expected = reference.rotate()
            assert _bits(snap.counters) == _bits(expected)
            assert _bits(snap.cross_tenant_wait_by_victim()) == _bits(
                EagerWindows.cross_tenant_wait_by_victim(expected))
        assert len(agg.snapshots) == 3
        assert agg.windows_dropped == 12

    def test_tenant_labels_sort_as_strings(self, registry):
        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        for tenant in (10, 9, 2):
            registry.counter("interference_wait_ns_total", resource="bus",
                             tenant=tenant, culprit=1).inc(1.0)
        snap = agg.rotate(now_ns=100)
        assert [dict(labels)["tenant"] for _, labels in snap.counters] == \
            ["10", "2", "9"]
        assert list(snap.cross_tenant_wait_by_victim()) == ["10", "2", "9"]

    def test_counters_drop_zero_deltas(self, registry):
        sim = Simulator()
        first = registry.counter("slo_events_total", tenant=1)
        registry.counter("slo_events_total", tenant=2)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        first.inc()
        one = agg.rotate(now_ns=100)
        two = agg.rotate(now_ns=200)
        assert one.counters == {("slo_events_total", (("tenant", "1"),)): 1.0}
        assert two.counters == {}
        assert one.changed and not two.changed


_TENANT_IDS = st.one_of(st.none(), st.integers(min_value=0, max_value=40))


class TestPairKeyIndex:
    """Interference pair keys, minted by the accountant: the index
    orders them by integer codes, and each window holds its deltas in
    one ``array('d')``; counters and cross-tenant waits stay exactly the
    eager reference's."""

    @settings(max_examples=50, deadline=None)
    @given(rounds=st.lists(st.lists(st.tuples(
               st.sampled_from(("bus", "dma", "dram")), _TENANT_IDS,
               _TENANT_IDS, st.floats(min_value=-10.0, max_value=1e6)),
               max_size=30), min_size=1, max_size=8),
           off_schema_at=st.one_of(st.none(),
                                   st.integers(min_value=0, max_value=7)))
    def test_pair_windows_match_eager_reference(self, rounds, off_schema_at):
        registry = MetricsRegistry()
        accountant = InterferenceAccountant(registry=registry)
        agg = WindowedAggregator(Simulator(), window_ns=100,
                                 registry=registry)
        reference = EagerWindows(registry)
        agg.start()
        reference.prime()
        for window, blames in enumerate(rounds, start=1):
            for resource, victim, culprit, wait in blames:
                accountant.blame(resource, victim=victim, culprit=culprit,
                                 wait_ns=wait)
            if off_schema_at == window - 1:
                # A tracked key off the pair schema: the index falls back
                # to comparing keys from here on.
                registry.gauge("slo_backlog", tenant=window).set(2.5)
            snap = agg.rotate(now_ns=100 * window)
            expected = reference.rotate()
            assert _bits(snap.counters) == _bits(expected)
            assert _bits(snap.cross_tenant_wait_by_victim()) == _bits(
                EagerWindows.cross_tenant_wait_by_victim(expected))
        if off_schema_at is None or off_schema_at >= len(rounds):
            assert agg._columns is not None

    def test_deltas_are_raw_doubles(self, registry):
        accountant = InterferenceAccountant(registry=registry)
        agg = WindowedAggregator(Simulator(), window_ns=100,
                                 registry=registry)
        agg.start()
        for victim in range(12):
            accountant.blame_each("bus", victim,
                                  [(culprit, 1.5) for culprit in range(12)])
        snap = agg.rotate(now_ns=100)
        assert type(snap._deltas) is array and snap._deltas.typecode == "d"
        assert len(snap._deltas) == 2 * 12 * 12
        # The collector walks no delta: an array holds raw doubles and
        # refers to nothing but its type.
        assert gc.get_referents(snap._deltas) == [array]
        assert snap.counter("interference_wait_ns_total", resource="bus",
                            tenant=10, culprit=2) == 1.5


class TestKernelDriven:
    def test_scheduled_rotation_on_sim_time(self, registry):
        sim = Simulator()
        counter = registry.counter("slo_events_total", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        for t in (30, 60, 130, 160):
            sim.schedule_at(t, lambda: counter.inc())
        sim.schedule_at(170, lambda: None)
        sim.run()
        agg.close()
        assert agg.total_counter("slo_events_total", tenant=1) == 4
        assert agg.snapshots[0].end_ns == 100
        assert agg.snapshots[0].counter("slo_events_total", tenant=1) == 2

    def test_cooperative_termination_does_not_spin_kernel(self, registry):
        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        sim.schedule_at(250, lambda: None)
        sim.run()
        # After draining, the aggregator must not have kept rescheduling
        # itself forever — the kernel stopped close to the last event.
        assert sim.now_ns <= 400
        assert not sim.pending

    def test_start_twice_raises(self, registry):
        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        with pytest.raises(RuntimeError):
            agg.start()
        agg.stop()
        assert not agg.running

    def test_close_is_idempotent_and_drops_empty_tail(self, registry):
        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        agg.rotate(now_ns=100)
        agg.close(now_ns=100)
        agg.close(now_ns=100)
        assert len(agg.snapshots) == 1

    def test_close_at_full_ring_keeps_the_real_windows(self, registry):
        sim = Simulator()
        seen = []
        agg = WindowedAggregator(sim, window_ns=100, registry=registry,
                                 max_windows=2, on_rotate=seen.append)
        agg.start()
        for i in range(3):
            agg.rotate(now_ns=(i + 1) * 100)
        agg.close(now_ns=300)
        assert [s.index for s in agg.snapshots] == [1, 2]
        assert agg.windows_dropped == 1
        assert [s.index for s in seen] == [0, 1, 2]

    def test_close_at_full_ring_records_a_changed_tail(self, registry):
        sim = Simulator()
        counter = registry.counter("slo_events_total", tenant=1)
        seen = []
        agg = WindowedAggregator(sim, window_ns=100, registry=registry,
                                 max_windows=2, on_rotate=seen.append)
        agg.start()
        for i in range(3):
            agg.rotate(now_ns=(i + 1) * 100)
        counter.inc(2)
        agg.close(now_ns=300)
        assert [s.index for s in agg.snapshots] == [2, 3]
        assert agg.windows_dropped == 2
        assert [s.index for s in seen] == [0, 1, 2, 3]
        assert agg.snapshots[-1].counter("slo_events_total", tenant=1) == 2


class TestDeltaHistograms:
    def test_histogram_delta_counts_and_sum(self, registry):
        sim = Simulator()
        hist = registry.histogram("slo_latency_ns", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        hist.observe(500.0)
        hist.observe(1500.0)
        snap1 = agg.rotate(now_ns=100)
        hist.observe(2500.0)
        snap2 = agg.rotate(now_ns=200)
        delta1 = snap1.histogram("slo_latency_ns", tenant=1)
        delta2 = snap2.histogram("slo_latency_ns", tenant=1)
        assert delta1.count == 2 and delta1.sum == 2000.0
        assert delta2.count == 1 and delta2.sum == 2500.0

    def test_untouched_histogram_absent_from_window(self, registry):
        sim = Simulator()
        registry.histogram("slo_latency_ns", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        snap = agg.rotate(now_ns=100)
        assert snap.histogram("slo_latency_ns", tenant=1) is None

    def test_merge_windows_reproduces_cumulative(self, registry):
        sim = Simulator()
        hist = registry.histogram("slo_latency_ns", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        samples = [100.0, 900.0, 4000.0, 12_000.0, 55_000.0, 200.0]
        for i, value in enumerate(samples):
            hist.observe(value)
            if i % 2:
                agg.rotate(now_ns=(i + 1) * 100)
        agg.close(now_ns=1000)
        merged = agg.merged_histogram("slo_latency_ns", tenant=1)
        assert merged.counts == hist.counts
        assert merged.count == hist.count
        assert merged.sum == hist.sum

    def test_delta_extrema_bucket_resolved(self, registry):
        sim = Simulator()
        hist = registry.histogram("slo_latency_ns", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        hist.observe(700.0)
        snap = agg.rotate(now_ns=100)
        delta = snap.histogram("slo_latency_ns", tenant=1)
        # 700 falls in some bucket [lo, hi]: the reconstructed extrema
        # must bracket the sample at bucket resolution.
        assert delta.min <= 700.0 <= delta.max


class TestInterferenceReadThrough:
    def test_cross_tenant_wait_by_victim(self, registry):
        sim = Simulator()
        registry.counter("interference_wait_ns_total", resource="bus",
                         tenant=1, culprit=2).inc(300.0)
        registry.counter("interference_wait_ns_total", resource="dma",
                         tenant=1, culprit=3).inc(200.0)
        registry.counter("interference_wait_ns_total", resource="bus",
                         tenant=2, culprit=2).inc(999.0)  # self-wait
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        registry.counter("interference_wait_ns_total", resource="bus",
                         tenant=1, culprit=2).inc(300.0)
        registry.counter("interference_wait_ns_total", resource="dma",
                         tenant=1, culprit=3).inc(200.0)
        registry.counter("interference_wait_ns_total", resource="bus",
                         tenant=2, culprit=2).inc(999.0)
        snap = agg.rotate(now_ns=100)
        assert snap.cross_tenant_wait_by_victim() == {"1": 500.0}

    def test_snapshot_as_dict_is_jsonable(self, registry):
        import json

        sim = Simulator()
        registry.counter("slo_events_total", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        registry.counter("slo_events_total", tenant=1).inc()
        snap = agg.rotate(now_ns=100)
        payload = json.loads(json.dumps(snap.as_dict()))
        assert payload["index"] == 0
        assert payload["n_counters"] == 1
