"""Per-tenant contention attribution: every shared resource blames the
right culprit for hand-computable waits, and the S-NIC configurations
attribute exactly zero cross-tenant nanoseconds."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.bus import FCFSArbiter, TemporalPartitioningArbiter
from repro.hw.cache import HARD, Cache, CacheConfig
from repro.hw.cores import ProgrammableCore
from repro.hw.dma import DMAController, DMAWindow
from repro.hw.dram import DRAMChannel
from repro.hw.memory import HostMemory, PhysicalMemory
from repro.obs import metrics, openmetrics
from repro.obs.bench import isolate
from repro.obs.interference import (
    RESOURCE_BUS,
    RESOURCE_CACHE,
    RESOURCE_CORES,
    EVENTS_METRIC,
    WAIT_METRIC,
    FCFSWaitAttributor,
    InterferenceAccountant,
    blame_matrix,
    cross_tenant_events,
    cross_tenant_wait_ns,
    format_matrix,
    get_accountant,
)
from repro.obs.metrics import MetricsRegistry

VICTIM = 1
AGGRESSOR = 2


def cell(resource: str, victim: int, culprit: int):
    """The (victim, culprit) cell of the current registry's matrix."""
    matrix = blame_matrix(resource=resource)
    return matrix.get(resource, {}).get((str(victim), str(culprit)))


# ----------------------------------------------------------------------
# The accountant and matrix plumbing
# ----------------------------------------------------------------------

class TestAccountant:
    def test_blame_lands_in_both_counter_families(self):
        get_accountant().blame("bus", victim=VICTIM, culprit=AGGRESSOR,
                               wait_ns=42.0)
        entry = cell("bus", VICTIM, AGGRESSOR)
        assert entry == {"wait_ns": 42.0, "events": 1.0}

    def test_blame_accumulates(self):
        acc = get_accountant()
        acc.blame("bus", victim=VICTIM, culprit=AGGRESSOR, wait_ns=10.0)
        acc.blame("bus", victim=VICTIM, culprit=AGGRESSOR, wait_ns=5.0,
                  events=3)
        entry = cell("bus", VICTIM, AGGRESSOR)
        assert entry == {"wait_ns": 15.0, "events": 4.0}

    def test_zero_blame_is_dropped(self):
        get_accountant().blame("bus", victim=VICTIM, culprit=AGGRESSOR,
                               wait_ns=0.0, events=0)
        assert blame_matrix(resource="bus") == {}

    def test_cross_tenant_totals_exclude_self_waits(self):
        acc = get_accountant()
        acc.blame("bus", victim=VICTIM, culprit=VICTIM, wait_ns=100.0)
        acc.blame("bus", victim=VICTIM, culprit=AGGRESSOR, wait_ns=30.0)
        acc.blame("dram", victim=AGGRESSOR, culprit=VICTIM, wait_ns=7.0)
        matrix = blame_matrix()
        assert cross_tenant_wait_ns(matrix) == 37.0
        assert cross_tenant_events(matrix) == 2.0
        assert cross_tenant_wait_ns(matrix, resource="dram") == 7.0

    def test_format_matrix_renders_cells(self):
        get_accountant().blame("bus", victim=VICTIM, culprit=AGGRESSOR,
                               wait_ns=90.0)
        text = format_matrix(blame_matrix())
        assert "[bus]" in text and "90ns/1ev" in text

    def test_format_matrix_empty(self):
        assert "no interference recorded" in format_matrix({})


def snapshot_blame_matrix(registry, resource=None):
    """The blame matrix rebuilt from a full registry snapshot: the
    reference the accountant's table must agree with."""
    matrix = {}
    for sample in registry.snapshot():
        name = sample["name"]
        if name not in (WAIT_METRIC, EVENTS_METRIC):
            continue
        labels = sample["labels"]
        res = str(labels.get("resource", "?"))
        if resource is not None and res != resource:
            continue
        key = (str(labels.get("tenant")), str(labels.get("culprit")))
        cell = matrix.setdefault(res, {}).setdefault(
            key, {"wait_ns": 0.0, "events": 0.0})
        field = "wait_ns" if name == WAIT_METRIC else "events"
        cell[field] += float(sample["value"])
    return {res: dict(sorted(cells.items()))
            for res, cells in sorted(matrix.items())}


class TestMemoisedBlame:
    """Each cell's accountant keeps its own table; a new cell must not
    inherit the previous cell's blame."""

    def test_blame_after_reset_lands_in_the_new_registry_only(self):
        stale = get_accountant()
        stale_registry = metrics.get_registry()
        stale.blame("bus", victim=VICTIM, culprit=AGGRESSOR, wait_ns=10.0)
        isolate()
        get_accountant().blame("bus", victim=VICTIM, culprit=AGGRESSOR,
                               wait_ns=5.0)
        assert cell("bus", VICTIM, AGGRESSOR) == {"wait_ns": 5.0,
                                                  "events": 1.0}
        assert blame_matrix(stale)["bus"][(str(VICTIM), str(AGGRESSOR))] \
            == {"wait_ns": 10.0, "events": 1.0}
        assert [s["value"] for s in stale_registry.snapshot()] == [1.0,
                                                                   10.0]

    def test_mint_order_matches_uncached_blame(self):
        registry = MetricsRegistry()
        acc = InterferenceAccountant(registry=registry)
        for victim, culprit in ((2, 1), (1, 2), (2, 1), (1, 1)):
            acc.blame("bus", victim=victim, culprit=culprit, wait_ns=1.0)
        served = [(sample["name"], sample["labels"]["tenant"],
                   sample["labels"]["culprit"])
                  for sample in registry.collected()]
        assert served == [
            (WAIT_METRIC, "2", "1"), (EVENTS_METRIC, "2", "1"),
            (WAIT_METRIC, "1", "2"), (EVENTS_METRIC, "1", "2"),
            (WAIT_METRIC, "1", "1"), (EVENTS_METRIC, "1", "1"),
        ]
        assert len(registry) == 0

    def test_blame_matrix_equals_snapshot_reference(self):
        registry = MetricsRegistry()
        acc = InterferenceAccountant(registry=registry)
        registry.histogram("slo_latency_ns", tenant=1).observe(120.0)
        registry.gauge("bus_backlog", tenant=None).set(4)
        registry.counter("cache_hits_total", tenant=2).inc(9)
        for i, (res, victim, culprit) in enumerate((
                ("bus", 1, 2), ("dram", 2, 1), ("bus", 1, 1),
                ("cache", 3, 1), ("bus", None, 2), ("dma", 10, 2))):
            acc.blame(res, victim=victim, culprit=culprit,
                      wait_ns=0.1 * (i + 1), events=i + 1)
        registry.histogram("interference_probe_ns", tenant=1).observe(5.0)
        for resource in (None, "bus", "cores"):
            assert blame_matrix(acc, resource=resource) == \
                snapshot_blame_matrix(registry, resource=resource)
        assert list(blame_matrix(acc)) == ["bus", "cache", "dma", "dram"]


def _counter_registry(blames):
    """Reference: the same blames as ``registry.counter(...)``
    instruments, one wait and one events counter per pair, minted in
    blame order with the accountant's zero-blame rule."""
    registry = MetricsRegistry()
    for res, victim, culprit, wait, events in blames:
        if wait <= 0.0 and events <= 0:
            continue
        for name, amount in ((WAIT_METRIC, wait), (EVENTS_METRIC, events)):
            registry.counter(name, resource=res, tenant=victim,
                             culprit=culprit).inc(amount)
    return registry


def scanning_blame_matrix(registry, resource=None):
    """Reference: scan every registry key and parse its labels by name,
    then sort the cells."""
    matrix = {}
    for (name, labels), instrument in registry.items():
        if name not in (WAIT_METRIC, EVENTS_METRIC):
            continue
        parsed = dict(labels)
        res = parsed["resource"]
        if resource is not None and res != resource:
            continue
        key = (parsed["tenant"], parsed["culprit"])
        cell = matrix.setdefault(res, {}).setdefault(
            key, {"wait_ns": 0.0, "events": 0.0})
        field = "wait_ns" if name == WAIT_METRIC else "events"
        cell[field] += float(instrument.value)
    return {res: dict(sorted(cells.items()))
            for res, cells in sorted(matrix.items())}


def _matrix_bits(matrix):
    """A blame matrix with its order and exact float bits."""
    return [(res, [(pair, cell["wait_ns"].hex(), cell["events"].hex())
                   for pair, cell in cells.items()])
            for res, cells in matrix.items()]


_TENANT_IDS = st.one_of(st.none(), st.integers(min_value=0, max_value=120))
_BLAMES = st.lists(st.tuples(
    st.sampled_from(("bus", "cache", "dram", "dma", "cores")),
    _TENANT_IDS, _TENANT_IDS,
    st.one_of(st.floats(min_value=0.0, max_value=1e6), st.just(1e-12)),
    st.integers(min_value=0, max_value=3)), max_size=60)


class TestPairLabels:
    """The table serves each pair as the two counters
    ``registry.counter(...)`` would have minted for the same blames,
    and ``blame_matrix`` reads the table in label order."""

    @settings(max_examples=60, deadline=None)
    @given(blames=_BLAMES)
    def test_blame_matrix_equals_a_parsing_scan(self, blames):
        acc = InterferenceAccountant(MetricsRegistry())
        for res, victim, culprit, wait, events in blames:
            acc.blame(res, victim=victim, culprit=culprit, wait_ns=wait,
                      events=events)
        reference = _counter_registry(blames)
        for resource in (None, "bus", "dma", "cores", "?"):
            matrix = blame_matrix(acc, resource=resource)
            assert _matrix_bits(matrix) == _matrix_bits(
                scanning_blame_matrix(reference, resource=resource))
        assert acc.cross_tenant_wait().hex() == \
            cross_tenant_wait_ns(blame_matrix(acc)).hex()

    @settings(max_examples=40, deadline=None)
    @given(blames=_BLAMES)
    def test_view_samples_equal_registry_counters(self, blames):
        registry = MetricsRegistry()
        acc = InterferenceAccountant(registry)
        registry.counter("cache_hits_total", tenant=1).inc(2)
        registry.histogram("slo_latency_ns", tenant=1).observe(7.0)
        for res, victim, culprit, wait, events in blames:
            acc.blame(res, victim=victim, culprit=culprit, wait_ns=wait,
                      events=events)
        reference = _counter_registry(blames)
        reference.counter("cache_hits_total", tenant=1).inc(2)
        reference.histogram("slo_latency_ns", tenant=1).observe(7.0)
        # ``repr`` tells every float apart and keeps the label order.
        assert repr(registry.snapshot()) == repr(reference.snapshot())
        extra = {"arbiter": "fcfs"}
        assert openmetrics.render_families(openmetrics.registry_families(
            registry, extra_labels=extra)) == \
            openmetrics.render_families(openmetrics.registry_families(
                reference, extra_labels=extra))
        assert registry.series() == len(reference)
        assert len(registry) == 2

    def test_a_new_pair_mints_no_instrument(self, monkeypatch):
        registry = MetricsRegistry()
        acc = InterferenceAccountant(registry=registry)
        lookups = []
        get_or_create = MetricsRegistry._get_or_create

        def counted_lookup(self, cls, name, labels):
            lookups.append(name)
            return get_or_create(self, cls, name, labels)

        monkeypatch.setattr(MetricsRegistry, "_get_or_create",
                            counted_lookup)
        acc.blame("bus", victim=1, culprit=2, wait_ns=5.0)
        acc.blame("bus", victim=1, culprit=2, wait_ns=1.0, events=2)
        acc.blame_each("bus", 1, [(2, 1.0), (3, 1.0), (3, 1.0)])
        assert (lookups, len(registry)) == ([], 0)
        assert acc.rows == {("bus", 1): {2: [7.0, 4.0], 3: [2.0, 2.0]}}
        assert registry.series() == 4


class TestFCFSWaitAttributor:
    def test_wait_is_split_across_occupying_clients(self):
        att = FCFSWaitAttributor("bus")
        att.occupy(AGGRESSOR, 0.0, 100.0)
        # Victim issues at t=10 and cannot start before t=100: the
        # remaining 90 ns of the aggressor's segment are its fault.
        att.attribute(VICTIM, 10.0, 100.0)
        assert cell("bus", VICTIM, AGGRESSOR) == {"wait_ns": 90.0,
                                                  "events": 1.0}

    def test_expired_segments_are_not_blamed(self):
        att = FCFSWaitAttributor("bus")
        att.occupy(AGGRESSOR, 0.0, 100.0)
        att.occupy(VICTIM, 100.0, 150.0)
        # At t=120 the aggressor's segment has fully drained; only the
        # victim's own in-flight transfer still covers the wait.
        att.attribute(VICTIM, 120.0, 150.0)
        assert cell("bus", VICTIM, AGGRESSOR) is None
        assert cell("bus", VICTIM, VICTIM) == {"wait_ns": 30.0,
                                               "events": 1.0}

    def test_no_wait_no_blame(self):
        att = FCFSWaitAttributor("bus")
        att.occupy(AGGRESSOR, 0.0, 100.0)
        att.attribute(VICTIM, 200.0, 200.0)
        assert blame_matrix(resource="bus") == {}


class PerCulpritAttributor(FCFSWaitAttributor):
    """Reference: one keyword ``blame()`` call per culprit share, the
    loop ``FCFSWaitAttributor.attribute`` batches."""

    __slots__ = ()

    def attribute(self, victim, now_ns, start_ns):
        if start_ns <= now_ns:
            self._prune(now_ns)
            return
        self._prune(now_ns)
        if not self._segments:
            return
        shares = dict(self._totals)
        head_start, _head_end, head_client = self._segments[0]
        if head_start < now_ns:
            shares[head_client] = shares.get(head_client, 0.0) \
                - (now_ns - head_start)
        for culprit in sorted(shares):
            wait = min(shares[culprit], start_ns - now_ns)
            if wait > 1e-12:
                self._accountant.blame(self.resource, victim=victim,
                                       culprit=culprit, wait_ns=wait)


def _table_bits(accountant):
    """Every row and pair in insertion order, with exact value bits."""
    return [(key, culprit, wait.hex(), events.hex())
            for key, row in accountant.rows.items()
            for culprit, (wait, events) in row.items()]


class TestBatchedBlame:
    """``blame_each`` must be indistinguishable from a ``blame()`` per
    share: the same sums to the bit, in the same table order."""

    @staticmethod
    def _pair(cls):
        accountant = InterferenceAccountant(MetricsRegistry())
        return accountant, cls("bus", accountant)

    def _drive(self, attributor, script):
        for op, *args in script:
            getattr(attributor, op)(*args)

    def test_edge_shares_match_per_culprit_blame(self):
        script = [
            ("occupy", 3, 0.0, 1e-12),          # a 1e-12 share
            ("occupy", 1, 1e-12, 100.0),        # head, partly consumed
            ("occupy", 2, 100.0, 100.0),        # zero length: ignored
            ("occupy", 4, 100.0, 100.0 + 1e-12),
            ("occupy", 2, 100.0 + 1e-12, 250.5),
            ("attribute", 5, 0.0, 300.0),
            ("attribute", 5, 30.25, 300.0),     # inside the head segment
            ("attribute", 6, 100.0, 100.0),     # no wait
            ("occupy", 5, 250.5, 251.0),
            ("attribute", 1, 250.5, 260.0),
            ("attribute", 7, 400.0, 500.0),     # everything drained
        ]
        batched_acc, batched = self._pair(FCFSWaitAttributor)
        looped_acc, looped = self._pair(PerCulpritAttributor)
        self._drive(batched, script)
        self._drive(looped, script)
        assert _table_bits(batched_acc) == _table_bits(looped_acc)
        matrix = blame_matrix(batched_acc)["bus"]
        assert ("5", "3") not in matrix          # 1e-12 never blamed
        assert ("5", "4") not in matrix
        assert matrix[("5", "1")]["events"] == 2.0

    @pytest.mark.parametrize("seed", range(6))
    def test_random_queues_match_per_culprit_blame(self, seed):
        import random

        rng = random.Random(seed)
        script = []
        now = 0.0
        tail = 0.0
        for _ in range(400):
            now += rng.choice((0.0, 1e-12, rng.uniform(0.0, 40.0)))
            client = rng.randrange(12)
            start = max(now, tail)
            end = start + rng.choice((0.0, 1e-12, rng.uniform(1.0, 90.0)))
            script.append(("attribute", client, now, start))
            script.append(("occupy", client, start, end))
            tail = max(tail, end)
        batched_acc, batched = self._pair(FCFSWaitAttributor)
        looped_acc, looped = self._pair(PerCulpritAttributor)
        self._drive(batched, script)
        self._drive(looped, script)
        assert _table_bits(batched_acc) == _table_bits(looped_acc)
        assert batched_acc.rows

    def test_blame_each_equals_blame_per_entry(self):
        waits = [(2, 0.0), (None, 1e-12), (1, 7.5), (2, 3.25), (10, 0.5),
                 (9, 0.5)]
        batched = InterferenceAccountant(MetricsRegistry())
        batched.blame_each("dram", 4, waits)
        looped = InterferenceAccountant(MetricsRegistry())
        for culprit, wait in waits:
            looped.blame("dram", victim=4, culprit=culprit, wait_ns=wait)
        assert _table_bits(batched) == _table_bits(looped)
        assert batched.cross_wait == looped.cross_wait


# ----------------------------------------------------------------------
# The bus: FCFS blames the queue owners; temporal partitioning never
# blames across domains.
# ----------------------------------------------------------------------

class TestBusAttribution:
    def test_fcfs_queueing_is_blamed_on_the_aggressor(self):
        arbiter = FCFSArbiter(bandwidth_bytes_per_ns=1.0)
        arbiter.request(AGGRESSOR, 100, 0.0)   # occupies [0, 100)
        done = arbiter.request(VICTIM, 50, 10.0)
        assert done == 150.0  # waited until 100, then 50 ns of wire time
        assert cell(RESOURCE_BUS, VICTIM, AGGRESSOR) == {"wait_ns": 90.0,
                                                         "events": 1.0}

    def test_fcfs_self_queueing_is_blamed_on_self(self):
        arbiter = FCFSArbiter(bandwidth_bytes_per_ns=1.0)
        arbiter.request(VICTIM, 100, 0.0)
        arbiter.request(VICTIM, 10, 40.0)  # waits 60 ns behind itself
        entry = cell(RESOURCE_BUS, VICTIM, VICTIM)
        assert entry == {"wait_ns": 60.0, "events": 1.0}
        assert cross_tenant_wait_ns(blame_matrix()) == 0.0

    def test_temporal_partitioning_attributes_zero_cross_tenant(self):
        arbiter = TemporalPartitioningArbiter(
            domains=[VICTIM, AGGRESSOR], bandwidth_bytes_per_ns=1.0,
            epoch_ns=1000.0, dead_time_ns=100.0)
        # The aggressor saturates its own epochs...
        for i in range(8):
            arbiter.request(AGGRESSOR, 2000, i * 500.0)
        # ...and the victim's completions never blame it.
        arbiter.request(VICTIM, 100, 0.0)
        arbiter.request(VICTIM, 100, 2500.0)
        matrix = blame_matrix(resource=RESOURCE_BUS)
        assert cross_tenant_wait_ns(matrix) == 0.0
        assert cross_tenant_events(matrix) == 0.0

    def test_temporal_partitioning_epoch_gap_is_self_blame(self):
        arbiter = TemporalPartitioningArbiter(
            domains=[VICTIM, AGGRESSOR], bandwidth_bytes_per_ns=1.0,
            epoch_ns=1000.0, dead_time_ns=100.0)
        # Issued during the OTHER domain's epoch [1000, 2000): the victim
        # waits until its next epoch at t=2000 — purely structural.
        done = arbiter.request(VICTIM, 100, 1000.0)
        assert done == 2100.0
        entry = cell(RESOURCE_BUS, VICTIM, VICTIM)
        assert entry is not None
        assert entry["wait_ns"] == pytest.approx(1000.0)


# ----------------------------------------------------------------------
# The cache: shared-mode conflict misses blame the evictor; hard
# partitioning makes cross-tenant eviction impossible.
# ----------------------------------------------------------------------

def one_set_cache() -> Cache:
    """ways=2, one set: the smallest geometry where eviction is forced."""
    return Cache(CacheConfig(size_bytes=128, line_bytes=64, ways=2),
                 name="tiny")


class TestCacheAttribution:
    def test_conflict_miss_blames_the_evictor(self):
        cache = one_set_cache()
        cache.access(0, owner=VICTIM)      # tag 0 resident
        cache.access(64, owner=VICTIM)     # tag 1 resident, set full
        cache.access(128, owner=AGGRESSOR)  # evicts the LRU line (tag 0)
        assert cell(RESOURCE_CACHE, VICTIM, AGGRESSOR) is None  # not yet
        hit = cache.access(0, owner=VICTIM)  # the conflict miss
        assert not hit
        entry = cell(RESOURCE_CACHE, VICTIM, AGGRESSOR)
        assert entry == {"wait_ns": 60.0, "events": 1.0}

    def test_cold_misses_are_not_interference(self):
        cache = one_set_cache()
        cache.access(0, owner=VICTIM)
        cache.access(64, owner=AGGRESSOR)
        assert blame_matrix(resource=RESOURCE_CACHE) == {}

    def test_self_eviction_is_not_blamed(self):
        cache = one_set_cache()
        for tag in range(3):               # victim thrashes its own set
            cache.access(tag * 64, owner=VICTIM)
        cache.access(0, owner=VICTIM)      # misses on its own eviction
        assert blame_matrix(resource=RESOURCE_CACHE) == {}

    def test_hard_partitioning_attributes_zero_cross_tenant(self):
        cache = Cache(CacheConfig(size_bytes=4096, line_bytes=64, ways=4),
                      name="part")
        cache.set_partitions({VICTIM: 2, AGGRESSOR: 2}, mode=HARD)
        stride = cache.config.n_sets * 64
        victim_ws = [k * stride for k in range(2)]
        for addr in victim_ws:
            cache.access(addr, owner=VICTIM)
        for round_index in range(4):       # aggressor thrashes every set
            for k in range(6):
                cache.access((8 + k) * stride, owner=AGGRESSOR)
            for addr in victim_ws:
                assert cache.access(addr, owner=VICTIM)  # still resident
        assert cross_tenant_wait_ns(blame_matrix()) == 0.0

    def test_scrub_voids_pending_blame(self):
        cache = one_set_cache()
        cache.access(0, owner=VICTIM)
        cache.access(64, owner=VICTIM)
        cache.access(128, owner=AGGRESSOR)  # eviction remembered
        cache.flush_owner(VICTIM)           # teardown scrub
        cache.access(0, owner=VICTIM)       # cold again, not a conflict
        assert blame_matrix(resource=RESOURCE_CACHE) == {}


# ----------------------------------------------------------------------
# DRAM: one shared channel vs per-tenant bandwidth reservations.
# ----------------------------------------------------------------------

class TestDRAMAttribution:
    def test_shared_channel_blames_the_occupant(self):
        channel = DRAMChannel()
        # 1280 B at 12.8 B/ns + 50 ns access = occupies [0, 150).
        channel.access(AGGRESSOR, 1280, 0.0)
        done = channel.access(VICTIM, 0, 0.0)
        assert done == 200.0  # 150 queue + 50 access latency
        entry = cell("dram", VICTIM, AGGRESSOR)
        assert entry == {"wait_ns": 150.0, "events": 1.0}

    def test_partitioned_channel_attributes_zero_cross_tenant(self):
        channel = DRAMChannel()
        channel.partition([VICTIM, AGGRESSOR])
        channel.access(AGGRESSOR, 64_000, 0.0)
        done = channel.access(VICTIM, 0, 0.0)
        assert done == 50.0  # pure access latency: aggressor invisible
        assert cross_tenant_wait_ns(blame_matrix()) == 0.0

    def test_unreserved_tenant_is_rejected_when_partitioned(self):
        channel = DRAMChannel()
        channel.partition([VICTIM])
        with pytest.raises(KeyError):
            channel.access(AGGRESSOR, 64, 0.0)


# ----------------------------------------------------------------------
# DMA: a shared commodity engine serializes banks; per-bank engines
# (S-NIC) are independent by construction.
# ----------------------------------------------------------------------

def configured_controller(shared_engine: bool) -> DMAController:
    controller = DMAController(2, shared_engine=shared_engine)
    window = 16 * 1024
    for bank_id, owner in ((0, VICTIM), (1, AGGRESSOR)):
        controller.bank_for_core(bank_id).configure(
            owner,
            nic_window=DMAWindow(base=bank_id * window, size=window),
            host_window=DMAWindow(base=(2 + bank_id) * window, size=window),
        )
    return controller


class TestDMAAttribution:
    def test_shared_engine_blames_the_other_bank(self):
        controller = configured_controller(shared_engine=True)
        host, nic = HostMemory(1 << 16), PhysicalMemory(1 << 16)
        window = 16 * 1024
        # Aggressor: 8000 B at 8 B/ns occupies the engine for [0, 1000).
        controller.bank_for_core(1).to_nic(
            host, nic, host_addr=3 * window, nic_addr=window,
            n_bytes=8000, now_ns=0.0)
        done = controller.bank_for_core(0).to_nic(
            host, nic, host_addr=2 * window, nic_addr=0,
            n_bytes=800, now_ns=0.0)
        assert done == 1100.0  # 1000 queue + 100 wire
        entry = cell("dma", VICTIM, AGGRESSOR)
        assert entry == {"wait_ns": 1000.0, "events": 1.0}

    def test_per_bank_engines_attribute_zero_cross_tenant(self):
        controller = configured_controller(shared_engine=False)
        host, nic = HostMemory(1 << 16), PhysicalMemory(1 << 16)
        window = 16 * 1024
        controller.bank_for_core(1).to_nic(
            host, nic, host_addr=3 * window, nic_addr=window,
            n_bytes=8000, now_ns=0.0)
        done = controller.bank_for_core(0).to_nic(
            host, nic, host_addr=2 * window, nic_addr=0,
            n_bytes=800, now_ns=0.0)
        assert done == 100.0  # pure wire time, aggressor invisible
        assert cross_tenant_wait_ns(blame_matrix()) == 0.0

    def test_untimed_transfers_skip_the_queueing_model(self):
        controller = configured_controller(shared_engine=True)
        host, nic = HostMemory(1 << 16), PhysicalMemory(1 << 16)
        window = 16 * 1024
        done = controller.bank_for_core(0).to_nic(
            host, nic, host_addr=2 * window, nic_addr=0, n_bytes=64)
        assert done is None
        assert blame_matrix(resource="dma") == {}


# ----------------------------------------------------------------------
# Cores: explicitly attributed stall cycles.
# ----------------------------------------------------------------------

class TestCoreAttribution:
    def test_attributed_stalls_convert_cycles_to_ns(self):
        core = ProgrammableCore(0, PhysicalMemory(4096))
        core.bind(VICTIM)
        core.record_stalls(120.0, culprit=AGGRESSOR)
        entry = cell(RESOURCE_CORES, VICTIM, AGGRESSOR)
        assert entry is not None
        # 120 cycles at 1.2 GHz is exactly 100 ns.
        assert entry["wait_ns"] == pytest.approx(100.0)
        assert entry["events"] == 1.0
        assert core.stall_cycles == 120

    def test_unattributed_stalls_do_not_blame(self):
        core = ProgrammableCore(0, PhysicalMemory(4096))
        core.bind(VICTIM)
        core.record_stalls(500.0)
        assert blame_matrix(resource=RESOURCE_CORES) == {}
        assert core.stall_cycles == 500

    def test_unbound_core_does_not_blame(self):
        core = ProgrammableCore(0, PhysicalMemory(4096))
        core.record_stalls(500.0, culprit=AGGRESSOR)
        assert blame_matrix(resource=RESOURCE_CORES) == {}
