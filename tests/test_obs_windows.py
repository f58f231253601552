"""Tests for repro.obs.windows: sim-time windowed delta aggregation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.events import Simulator
from repro.obs.bench import isolate
from repro.obs.interference import (
    InterferenceAccountant,
    blame_matrix,
    get_accountant,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.windows import WindowedAggregator, WindowSnapshot


@pytest.fixture()
def accountant():
    return InterferenceAccountant(MetricsRegistry())


def _windows(accountant, window_ns=100, **kwargs):
    agg = WindowedAggregator(Simulator(), window_ns=window_ns,
                             accountant=accountant, **kwargs)
    agg.start()
    return agg


class TestRotation:
    def test_counter_deltas_per_window(self, accountant):
        agg = _windows(accountant)
        accountant.blame("bus", victim=1, culprit=2, wait_ns=3.0)
        agg.rotate(now_ns=100)
        accountant.blame("bus", victim=1, culprit=3, wait_ns=5.0)
        agg.rotate(now_ns=200)
        assert agg.snapshots[0].cross_wait == {("bus", "1"): 3.0}
        assert agg.snapshots[1].cross_wait == {("bus", "1"): 5.0}

    def test_pre_start_state_excluded_from_window_zero(self, accountant):
        accountant.blame("bus", victim=1, culprit=2, wait_ns=40.0)
        agg = _windows(accountant)
        accountant.blame("bus", victim=1, culprit=2, wait_ns=2.0)
        snap = agg.rotate(now_ns=100)
        assert snap.cross_wait == {("bus", "1"): 2.0}

    def test_untracked_prefixes_ignored(self, accountant):
        registry = accountant.registry
        registry.histogram("cache_fill_ns", tenant=1).observe(9.0)
        agg = _windows(accountant)
        registry.histogram("cache_fill_ns", tenant=1).observe(9.0)
        registry.counter("slo_events_total", tenant=1).inc()
        snap = agg.rotate(now_ns=100)
        assert snap.histograms == {} and snap.cross_wait == {}
        assert not snap.changed

    def test_default_prefixes_cover_slo_and_interference(self, accountant):
        agg = _windows(accountant)
        accountant.registry.histogram("slo_latency_ns", tenant=1).observe(
            700.0)
        accountant.blame("dma", victim=1, culprit=2, wait_ns=8.0)
        snap = agg.rotate(now_ns=100)
        assert snap.histogram("slo_latency_ns", tenant=1).count == 1
        assert snap.cross_wait == {("dma", "1"): 8.0}

    def test_window_indices_and_bounds(self, accountant):
        agg = _windows(accountant, window_ns=50)
        first = agg.rotate(now_ns=50)
        second = agg.rotate(now_ns=120)
        assert (first.index, first.start_ns, first.end_ns) == (0, 0.0, 50.0)
        assert (second.index, second.start_ns, second.end_ns) == \
            (1, 50.0, 120.0)
        assert second.duration_ns == 70.0

    def test_max_windows_prunes_oldest(self, accountant):
        agg = _windows(accountant, window_ns=10, max_windows=3)
        for i in range(5):
            agg.rotate(now_ns=(i + 1) * 10)
        assert len(agg.snapshots) == 3
        assert agg.windows_dropped == 2
        assert [s.index for s in agg.snapshots] == [2, 3, 4]

    def test_on_rotate_callback_sees_each_snapshot(self, accountant):
        seen = []
        agg = _windows(accountant, window_ns=10, on_rotate=seen.append)
        agg.rotate(now_ns=10)
        agg.rotate(now_ns=20)
        assert [s.index for s in seen] == [0, 1]
        assert all(isinstance(s, WindowSnapshot) for s in seen)

    def test_validation(self, accountant):
        sim = Simulator()
        with pytest.raises(ValueError):
            WindowedAggregator(sim, window_ns=0, accountant=accountant)
        with pytest.raises(ValueError):
            WindowedAggregator(sim, window_ns=10, accountant=accountant,
                               max_windows=0)


class TestIncrementalIndex:
    """The aggregator tracks the ``slo_`` histograms minted since its
    previous rotation; every window must still look like a fresh sorted
    walk of the whole registry."""

    def test_instrument_minted_between_rotations_in_sorted_position(
            self, accountant):
        registry = accountant.registry
        for tenant in range(0, 80, 2):
            registry.histogram("slo_latency_ns", tenant=tenant)
        agg = _windows(accountant)
        agg.rotate(now_ns=100)
        for tenant in (41, 40, 42):
            registry.histogram("slo_latency_ns", tenant=tenant).observe(7.0)
        snap = agg.rotate(now_ns=200)
        assert list(snap.histograms) == [
            ("slo_latency_ns", (("tenant", str(t)),)) for t in (40, 41, 42)]
        assert snap.histogram("slo_latency_ns", tenant=41).count == 1

    def test_windows_match_a_full_sorted_walk(self, accountant):
        registry = accountant.registry
        rng = random.Random(5)
        names = ("slo_latency_ns", "slo_queue_ns", "cache_fill_ns")
        agg = _windows(accountant)
        previous = {}
        for window in range(1, 9):
            for _ in range(rng.randrange(1, 60)):
                registry.histogram(rng.choice(names),
                                   tenant=rng.randrange(30)).observe(
                    float(rng.randrange(1, 5000)))
            snap = agg.rotate(now_ns=100 * window)
            current = {(inst.name, inst.labels): inst.count
                       for inst in registry.instruments()
                       if inst.name.startswith("slo_")}
            expected = {key: count - previous.get(key, 0)
                        for key, count in sorted(current.items())
                        if count - previous.get(key, 0)}
            assert {key: delta.count for key, delta
                    in snap.histograms.items()} == expected
            assert list(snap.histograms) == list(expected)
            previous = current

    def test_explicit_registry_ignores_the_default_registry(
            self, accountant):
        agg = _windows(accountant)
        accountant.blame("bus", victim=1, culprit=2, wait_ns=2.0)
        get_accountant().blame("bus", victim=9, culprit=2, wait_ns=5.0)
        first = agg.rotate(now_ns=100)
        isolate()
        accountant.blame("bus", victim=1, culprit=2, wait_ns=3.0)
        get_accountant().blame("bus", victim=9, culprit=2, wait_ns=5.0)
        second = agg.rotate(now_ns=200)
        assert first.cross_wait == {("bus", "1"): 2.0}
        assert second.cross_wait == {("bus", "1"): 3.0}

    def test_default_registry_is_the_cell_at_construction(self):
        agg = _windows(None)
        get_accountant().blame("bus", victim=1, culprit=2, wait_ns=4.0)
        isolate()
        get_accountant().blame("bus", victim=2, culprit=1, wait_ns=6.0)
        snap = agg.rotate(now_ns=100)
        assert snap.cross_wait == {("bus", "1"): 4.0}


class EagerWindows:
    """Reference: a rotation that takes a :func:`blame_matrix` snapshot
    and diffs each (resource, victim)'s cross-tenant wait against the
    previous snapshot's."""

    def __init__(self, accountant):
        self.accountant = accountant
        self.previous = {}

    def _totals(self):
        totals = {}
        for resource, cells in blame_matrix(self.accountant).items():
            for (victim, culprit), cell in cells.items():
                if victim != culprit:
                    key = (resource, victim)
                    totals[key] = totals.get(key, 0.0) + cell["wait_ns"]
        return totals

    def prime(self):
        self.previous = self._totals()

    def rotate(self):
        current = self._totals()
        deltas = {key: total - self.previous.get(key, 0.0)
                  for key, total in sorted(current.items())
                  if total != self.previous.get(key, 0.0)}
        self.previous = current
        return deltas

    @staticmethod
    def by_victim(deltas):
        waits = {}
        for (_resource, victim), delta in deltas.items():
            waits[victim] = waits.get(victim, 0.0) + delta
        return dict(sorted(waits.items()))


class TestArrayBackedDifferential:
    """Random blame streams: every window's cross-tenant wait agrees
    exactly with the eager reference, and the windows add up to the
    accountant's end-of-run totals."""

    TENANTS = (None, 1, 2, 9, 10, 11, 100)
    RESOURCES = ("bus", "cache", "dma", "dram")

    def _step(self, rng, accountant):
        resource = rng.choice(self.RESOURCES)
        victim = rng.choice(self.TENANTS)
        if rng.random() < 0.5:
            # Self-blame included: a culprit drawn from every tenant.
            accountant.blame(resource, victim=victim,
                             culprit=rng.choice(self.TENANTS),
                             wait_ns=float(rng.randrange(0, 10_000)))
        else:
            culprits = sorted(rng.sample(range(12), rng.randrange(1, 5)))
            accountant.blame_each(resource, victim, [
                (culprit, float(rng.randrange(1, 10_000)))
                for culprit in culprits])

    @pytest.mark.parametrize("seed", range(8))
    def test_windows_match_eager_reference(self, accountant, seed):
        rng = random.Random(seed)
        for _ in range(rng.randrange(0, 40)):
            self._step(rng, accountant)
        seen = []
        agg = _windows(accountant, max_windows=3, on_rotate=seen.append)
        reference = EagerWindows(accountant)
        reference.prime()
        start = dict(reference.previous)
        for window in range(1, 16):
            # Pairs keep being first blamed mid-run.
            for _ in range(rng.randrange(0, 80)):
                self._step(rng, accountant)
            snap = agg.rotate(now_ns=100 * window)
            expected = reference.rotate()
            assert list(snap.cross_wait.items()) == list(expected.items())
            assert snap.cross_tenant_wait_by_victim() == \
                EagerWindows.by_victim(expected)
        assert len(agg.snapshots) == 3
        assert agg.windows_dropped == 12
        # Pre-start blame plus every window is the end-of-run total.
        summed = dict(start)
        for snap in seen:
            for key, delta in snap.cross_wait.items():
                summed[key] = summed.get(key, 0.0) + delta
        end = accountant.cross_tenant_wait_by_victim()
        assert {victim: wait for victim, wait
                in EagerWindows.by_victim(summed).items() if wait} == \
            {victim: wait for victim, wait in end.items() if wait}

    def test_tenant_labels_sort_as_strings(self, accountant):
        agg = _windows(accountant)
        for tenant in (10, 9, 2):
            accountant.blame("bus", victim=tenant, culprit=1, wait_ns=1.0)
        snap = agg.rotate(now_ns=100)
        assert list(snap.cross_wait) == [("bus", "10"), ("bus", "2"),
                                         ("bus", "9")]
        assert list(snap.cross_tenant_wait_by_victim()) == ["10", "2", "9"]

    def test_counters_drop_zero_deltas(self, accountant):
        agg = _windows(accountant)
        accountant.blame("bus", victim=1, culprit=2, wait_ns=1.0)
        one = agg.rotate(now_ns=100)
        accountant.blame("bus", victim=1, culprit=1, wait_ns=7.0)
        accountant.blame("bus", victim=1, culprit=2, wait_ns=0.0)
        two = agg.rotate(now_ns=200)
        assert one.cross_wait == {("bus", "1"): 1.0}
        assert two.cross_wait == {}
        assert one.changed and not two.changed


_TENANT_IDS = st.one_of(st.none(), st.integers(min_value=0, max_value=40))


class TestPairKeyIndex:
    """Windows keyed by (resource, victim): whatever the blame stream,
    each window holds exactly the eager reference's deltas."""

    @settings(max_examples=50, deadline=None)
    @given(rounds=st.lists(st.lists(st.tuples(
               st.sampled_from(("bus", "dma", "dram")), _TENANT_IDS,
               _TENANT_IDS, st.integers(min_value=-10, max_value=10**6)),
               max_size=30), min_size=1, max_size=8))
    def test_pair_windows_match_eager_reference(self, rounds):
        accountant = InterferenceAccountant(MetricsRegistry())
        agg = _windows(accountant)
        reference = EagerWindows(accountant)
        reference.prime()
        for window, blames in enumerate(rounds, start=1):
            for resource, victim, culprit, wait in blames:
                accountant.blame(resource, victim=victim, culprit=culprit,
                                 wait_ns=float(wait))
            snap = agg.rotate(now_ns=100 * window)
            expected = reference.rotate()
            assert snap.cross_wait == expected
            assert snap.cross_tenant_wait_by_victim() == \
                EagerWindows.by_victim(expected)


class TestKernelDriven:
    def test_scheduled_rotation_on_sim_time(self, accountant):
        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=100, accountant=accountant)
        agg.start()
        for t in (30, 60, 130, 160):
            sim.schedule_at(t, lambda: accountant.blame(
                "bus", victim=1, culprit=2, wait_ns=1.0))
        sim.schedule_at(170, lambda: None)
        sim.run()
        agg.close()
        assert sum(snap.cross_wait.get(("bus", "1"), 0.0)
                   for snap in agg.snapshots) == 4
        assert agg.snapshots[0].end_ns == 100
        assert agg.snapshots[0].cross_wait == {("bus", "1"): 2.0}

    def test_cooperative_termination_does_not_spin_kernel(self, accountant):
        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=100, accountant=accountant)
        agg.start()
        sim.schedule_at(250, lambda: None)
        sim.run()
        # After draining, the aggregator must not have kept rescheduling
        # itself forever — the kernel stopped close to the last event.
        assert sim.now_ns <= 400
        assert not sim.pending

    def test_start_twice_raises(self, accountant):
        agg = _windows(accountant)
        with pytest.raises(RuntimeError):
            agg.start()
        agg.stop()
        assert not agg.running

    def test_close_is_idempotent_and_drops_empty_tail(self, accountant):
        agg = _windows(accountant)
        agg.rotate(now_ns=100)
        agg.close(now_ns=100)
        agg.close(now_ns=100)
        assert len(agg.snapshots) == 1

    def test_close_at_full_ring_keeps_the_real_windows(self, accountant):
        seen = []
        agg = _windows(accountant, max_windows=2, on_rotate=seen.append)
        for i in range(3):
            agg.rotate(now_ns=(i + 1) * 100)
        agg.close(now_ns=300)
        assert [s.index for s in agg.snapshots] == [1, 2]
        assert agg.windows_dropped == 1
        assert [s.index for s in seen] == [0, 1, 2]

    def test_close_at_full_ring_records_a_changed_tail(self, accountant):
        seen = []
        agg = _windows(accountant, max_windows=2, on_rotate=seen.append)
        for i in range(3):
            agg.rotate(now_ns=(i + 1) * 100)
        accountant.blame("bus", victim=1, culprit=2, wait_ns=2.0)
        agg.close(now_ns=300)
        assert [s.index for s in agg.snapshots] == [2, 3]
        assert agg.windows_dropped == 2
        assert [s.index for s in seen] == [0, 1, 2, 3]
        assert agg.snapshots[-1].cross_wait == {("bus", "1"): 2.0}


class TestDeltaHistograms:
    def test_histogram_delta_counts_and_sum(self, accountant):
        hist = accountant.registry.histogram("slo_latency_ns", tenant=1)
        agg = _windows(accountant)
        hist.observe(500.0)
        hist.observe(1500.0)
        snap1 = agg.rotate(now_ns=100)
        hist.observe(2500.0)
        snap2 = agg.rotate(now_ns=200)
        delta1 = snap1.histogram("slo_latency_ns", tenant=1)
        delta2 = snap2.histogram("slo_latency_ns", tenant=1)
        assert delta1.count == 2 and delta1.sum == 2000.0
        assert delta2.count == 1 and delta2.sum == 2500.0

    def test_untouched_histogram_absent_from_window(self, accountant):
        accountant.registry.histogram("slo_latency_ns", tenant=1)
        agg = _windows(accountant)
        snap = agg.rotate(now_ns=100)
        assert snap.histogram("slo_latency_ns", tenant=1) is None

    def test_merge_windows_reproduces_cumulative(self, accountant):
        hist = accountant.registry.histogram("slo_latency_ns", tenant=1)
        agg = _windows(accountant)
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

    def test_delta_extrema_bucket_resolved(self, accountant):
        hist = accountant.registry.histogram("slo_latency_ns", tenant=1)
        agg = _windows(accountant)
        hist.observe(700.0)
        snap = agg.rotate(now_ns=100)
        delta = snap.histogram("slo_latency_ns", tenant=1)
        # 700 falls in some bucket [lo, hi]: the reconstructed extrema
        # must bracket the sample at bucket resolution.
        assert delta.min <= 700.0 <= delta.max


class TestInterferenceReadThrough:
    def test_cross_tenant_wait_by_victim(self, accountant):
        def blame_round():
            accountant.blame("bus", victim=1, culprit=2, wait_ns=300.0)
            accountant.blame("dma", victim=1, culprit=3, wait_ns=200.0)
            accountant.blame("bus", victim=2, culprit=2,
                             wait_ns=999.0)  # self-wait

        blame_round()
        agg = _windows(accountant)
        blame_round()
        snap = agg.rotate(now_ns=100)
        assert snap.cross_wait == {("bus", "1"): 300.0, ("dma", "1"): 200.0}
        assert snap.cross_tenant_wait_by_victim() == {"1": 500.0}
