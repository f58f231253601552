"""Tests for the set-associative cache model and its partition modes."""

import pytest

from repro.hw.cache import Cache, CacheConfig, CacheHierarchy, HARD, SHARED, SOFT
from repro.hw.memory import AccessFault
from repro.obs.metrics import MetricsRegistry


def small_cache(size=8 * 1024, line=64, ways=4):
    return Cache(CacheConfig(size_bytes=size, line_bytes=line, ways=ways))


class TestGeometry:
    def test_n_sets(self):
        config = CacheConfig(size_bytes=8 * 1024, line_bytes=64, ways=4)
        assert config.n_sets == 32

    def test_rejects_uneven_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=64, ways=4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0, line_bytes=64, ways=4)


class TestSharedMode:
    def test_first_access_misses_second_hits(self):
        cache = small_cache()
        assert cache.access(0x1000, owner=1) is False
        assert cache.access(0x1000, owner=1) is True

    def test_same_line_different_offsets_hit(self):
        cache = small_cache()
        cache.access(0x1000, owner=1)
        assert cache.access(0x1020, owner=1) is True  # same 64 B line

    def test_lru_eviction(self):
        cache = small_cache(ways=2)
        n_sets = cache.config.n_sets
        stride = n_sets * 64  # same set, different tags
        cache.access(0, owner=1)
        cache.access(stride, owner=1)
        cache.access(2 * stride, owner=1)  # evicts line 0
        assert cache.access(0, owner=1) is False

    def test_lru_refresh_on_hit(self):
        cache = small_cache(ways=2)
        stride = cache.config.n_sets * 64
        cache.access(0, owner=1)
        cache.access(stride, owner=1)
        cache.access(0, owner=1)  # refresh line 0
        cache.access(2 * stride, owner=1)  # should evict stride, not 0
        assert cache.access(0, owner=1) is True

    def test_cross_owner_hit_in_shared_mode(self):
        cache = small_cache()
        cache.access(0x2000, owner=1)
        # Shared mode: another tenant hits the same resident line — the
        # classic probe side channel.
        assert cache.access(0x2000, owner=2) is True

    def test_stats_per_owner(self):
        cache = small_cache()
        cache.access(0, owner=1)
        cache.access(0, owner=1)
        cache.access(64 * 1024, owner=2)
        assert cache.stats[1].hits == 1 and cache.stats[1].misses == 1
        assert cache.stats[2].misses == 1
        assert cache.stats[1].miss_rate == 0.5


class TestHardPartition:
    def test_no_cross_owner_hits(self):
        cache = small_cache(ways=4)
        cache.set_partitions({1: 2, 2: 2}, mode=HARD)
        cache.access(0x2000, owner=1)
        # Hard partitioning: tenant 2 cannot observe tenant 1's line.
        assert cache.access(0x2000, owner=2) is False

    def test_victimizes_only_own_ways(self):
        cache = small_cache(ways=4)
        cache.set_partitions({1: 2, 2: 2}, mode=HARD)
        stride = cache.config.n_sets * 64
        # Fill tenant 1's two ways in set 0.
        cache.access(0, owner=1)
        cache.access(stride, owner=1)
        # Tenant 2 filling the same set must not evict tenant 1.
        cache.access(2 * stride, owner=2)
        cache.access(3 * stride, owner=2)
        cache.access(4 * stride, owner=2)
        assert cache.access(0, owner=1) is True or cache.access(stride, owner=1)

    def test_occupancy_bounded_by_partition(self):
        cache = small_cache(ways=4)
        cache.set_partitions({1: 1, 2: 3}, mode=HARD)
        for i in range(1000):
            cache.access(i * 64, owner=1)
        n_sets = cache.config.n_sets
        assert cache.occupancy(1) <= n_sets * 1

    def test_unpartitioned_owner_rejected(self):
        cache = small_cache()
        cache.set_partitions({1: 2}, mode=HARD)
        with pytest.raises(AccessFault):
            cache.access(0, owner=99)

    def test_an_empty_registry_passed_in_is_used(self):
        from repro.obs.metrics import get_registry

        registry, cell = MetricsRegistry(), len(get_registry())
        cache = Cache(CacheConfig(size_bytes=8 * 1024, line_bytes=64, ways=4),
                      registry=registry)
        cache.access(64, owner=1)
        assert len(registry) > 0
        assert len(get_registry()) == cell

    @pytest.mark.parametrize("mode", [HARD, SOFT])
    def test_faulted_access_leaves_no_trace(self, mode):
        """An unpartitioned owner's miss faults before it counts a miss,
        mints its counters, ticks the LRU clock or consumes blame."""
        registry = MetricsRegistry()
        cache = Cache(CacheConfig(size_bytes=8 * 1024, line_bytes=64, ways=4),
                      registry=registry)
        cache.set_partitions({1: 2, 2: 2}, mode=mode)
        cache.access(64, owner=1)
        pending = {(0, 0, 3): 1}
        cache._evicted_by.update(pending)
        instruments, clock = len(registry), cache._clock
        with pytest.raises(AccessFault):
            cache.access(0, owner=3)
        assert 3 not in cache.stats
        assert len(registry) == instruments
        assert cache._clock == clock
        assert cache._evicted_by == pending
        assert cache.occupancy(3) == 0

    def test_soft_unpartitioned_owner_still_hits(self):
        """Soft mode serves hits from any way, partition or not; only
        the fill needs one."""
        cache = small_cache(ways=4)
        cache.set_partitions({1: 2}, mode=SOFT)
        cache.access(0x3000, owner=1)
        assert cache.access(0x3000, owner=3) is True
        assert cache.stats[3].hits == 1 and cache.stats[3].misses == 0

    def test_over_allocation_rejected(self):
        cache = small_cache(ways=4)
        with pytest.raises(AccessFault):
            cache.set_partitions({1: 3, 2: 2})

    def test_zero_ways_rejected(self):
        cache = small_cache()
        with pytest.raises(ValueError):
            cache.set_partitions({1: 0})

    def test_partitioning_flushes(self):
        cache = small_cache()
        cache.access(0, owner=1)
        cache.set_partitions({1: 2}, mode=HARD)
        assert cache.access(0, owner=1) is False

    def test_share_returns_to_shared(self):
        cache = small_cache()
        cache.set_partitions({1: 2}, mode=HARD)
        cache.share()
        assert cache.mode == SHARED
        cache.access(0, owner=42)  # any owner allowed again


class TestSoftPartition:
    def test_soft_leaks_cross_owner_hits(self):
        """The §4.2 criticism of CAT: fills are partitioned but hits are
        not, so a probing tenant still observes co-tenant lines."""
        cache = small_cache(ways=4)
        cache.set_partitions({1: 2, 2: 2}, mode=SOFT)
        cache.access(0x3000, owner=1)
        assert cache.access(0x3000, owner=2) is True  # the leak

    def test_hard_blocks_what_soft_leaks(self):
        for mode, expected in ((SOFT, True), (HARD, False)):
            cache = small_cache(ways=4)
            cache.set_partitions({1: 2, 2: 2}, mode=mode)
            cache.access(0x3000, owner=1)
            assert cache.access(0x3000, owner=2) is expected

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            small_cache().set_partitions({1: 2}, mode="shared")


class TestScrubbing:
    def test_flush_owner_evicts_only_owner(self):
        cache = small_cache()
        cache.access(0, owner=1)
        cache.access(64 * 100, owner=2)
        evicted = cache.flush_owner(1)
        assert evicted == 1
        assert cache.occupancy(1) == 0
        assert cache.occupancy(2) == 1

    def test_resident_probe(self):
        cache = small_cache()
        cache.access(0x4000, owner=1)
        assert cache.resident(0x4000)
        assert cache.resident(0x4000, owner=1)
        assert not cache.resident(0x4000, owner=2)
        assert not cache.resident(0x8000)


class TestHierarchy:
    def test_level_attribution(self):
        hierarchy = CacheHierarchy(
            CacheConfig(size_bytes=1024, line_bytes=64, ways=2),
            CacheConfig(size_bytes=8 * 1024, line_bytes=64, ways=4),
            owners=[1, 2],
        )
        assert hierarchy.access(0, owner=1) == 3  # cold: DRAM
        assert hierarchy.access(0, owner=1) == 1  # L1 hit

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = CacheHierarchy(
            CacheConfig(size_bytes=128, line_bytes=64, ways=1),  # 2-set L1
            CacheConfig(size_bytes=8 * 1024, line_bytes=64, ways=4),
            owners=[1],
        )
        hierarchy.access(0, owner=1)        # DRAM; fills L1 + L2
        hierarchy.access(128, owner=1)      # same L1 set, evicts line 0
        assert hierarchy.access(0, owner=1) == 2  # L2 hit

    def test_partition_l2(self):
        hierarchy = CacheHierarchy(
            CacheConfig(size_bytes=1024, line_bytes=64, ways=2),
            CacheConfig(size_bytes=8 * 1024, line_bytes=64, ways=4),
            owners=[1, 2],
        )
        hierarchy.partition_l2()
        assert hierarchy.l2.mode == HARD
        assert hierarchy.l2.ways_for(1) == 2

    def test_unknown_owner_rejected(self):
        hierarchy = CacheHierarchy(
            CacheConfig(size_bytes=1024, line_bytes=64, ways=2),
            CacheConfig(size_bytes=8 * 1024, line_bytes=64, ways=4),
            owners=[1],
        )
        with pytest.raises(AccessFault):
            hierarchy.access(0, owner=9)
