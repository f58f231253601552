"""Model-checking the cache simulator against a reference LRU.

The cache model underpins both the side-channel results and Figure 5,
so we verify it against an independent, obviously-correct reference
implementation (an OrderedDict per set) under randomized access
sequences — shared mode exactly, and partitioned mode against a
per-owner reference.  Scrubs are checked the same way: ``flush_owner``
and ``flush_all`` against a reference that walks every set.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.cache import Cache, CacheConfig, HARD, SHARED


class ReferenceLRU:
    """Trivially-correct set-associative LRU cache."""

    def __init__(self, n_sets: int, ways: int, line: int) -> None:
        self.n_sets = n_sets
        self.ways = ways
        self.line = line
        self.sets = [OrderedDict() for _ in range(n_sets)]

    def access(self, addr: int) -> bool:
        line_addr = addr // self.line
        index = line_addr % self.n_sets
        tag = line_addr // self.n_sets
        lru = self.sets[index]
        if tag in lru:
            lru.move_to_end(tag)
            return True
        if len(lru) >= self.ways:
            lru.popitem(last=False)
        lru[tag] = None
        return False


ADDRESSES = st.lists(
    st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=400
)


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(ADDRESSES)
    def test_shared_mode_matches_reference(self, addresses):
        config = CacheConfig(size_bytes=4096, line_bytes=64, ways=4)
        cache = Cache(config)
        reference = ReferenceLRU(config.n_sets, config.ways, config.line_bytes)
        for addr in addresses:
            assert cache.access(addr, owner=1) == reference.access(addr)

    @settings(max_examples=40, deadline=None)
    @given(ADDRESSES, ADDRESSES)
    def test_hard_partition_matches_per_owner_references(self, a_addrs, b_addrs):
        """With hard partitioning, each owner must behave exactly like a
        private cache of its partition size — total isolation."""
        config = CacheConfig(size_bytes=4096, line_bytes=64, ways=4)
        cache = Cache(config)
        cache.set_partitions({1: 2, 2: 2}, mode=HARD)
        ref_a = ReferenceLRU(config.n_sets, 2, config.line_bytes)
        ref_b = ReferenceLRU(config.n_sets, 2, config.line_bytes)
        # Interleave the two owners' accesses.
        for i in range(max(len(a_addrs), len(b_addrs))):
            if i < len(a_addrs):
                assert cache.access(a_addrs[i], owner=1) == ref_a.access(a_addrs[i])
            if i < len(b_addrs):
                assert cache.access(b_addrs[i], owner=2) == ref_b.access(b_addrs[i])

    @settings(max_examples=30, deadline=None)
    @given(ADDRESSES)
    def test_occupancy_never_exceeds_capacity(self, addresses):
        config = CacheConfig(size_bytes=4096, line_bytes=64, ways=4)
        cache = Cache(config)
        for addr in addresses:
            cache.access(addr, owner=1)
        assert cache.occupancy(1) <= config.n_sets * config.ways

    @settings(max_examples=30, deadline=None)
    @given(ADDRESSES, ADDRESSES)
    def test_partition_victim_occupancy_invariant(self, a_addrs, b_addrs):
        """Neither owner can ever hold more lines than its partition."""
        config = CacheConfig(size_bytes=4096, line_bytes=64, ways=4)
        cache = Cache(config)
        cache.set_partitions({1: 1, 2: 3}, mode=HARD)
        for addr in a_addrs:
            cache.access(addr, owner=1)
        for addr in b_addrs:
            cache.access(addr, owner=2)
        assert cache.occupancy(1) <= config.n_sets * 1
        assert cache.occupancy(2) <= config.n_sets * 3


class OwnerAwareReference:
    """Owner-tagged LRU that scrubs by walking every set.

    Shared mode keeps one ``tag -> owner`` LRU per set (a hit from any
    owner refreshes the line; the filler keeps the tag).  Hard mode
    keeps a private LRU per (set, owner) sized to the owner's ways.
    """

    def __init__(self, n_sets: int, line: int, ways: dict) -> None:
        self.n_sets = n_sets
        self.line = line
        self.ways = ways  # owner -> capacity; None key = shared
        self.sets = [dict() for _ in range(n_sets)]

    def _lru(self, index: int, owner: int) -> OrderedDict:
        key = owner if None not in self.ways else None
        return self.sets[index].setdefault(key, OrderedDict())

    def _locate(self, addr: int):
        line_addr = addr // self.line
        return line_addr % self.n_sets, line_addr // self.n_sets

    def access(self, addr: int, owner: int) -> bool:
        index, tag = self._locate(addr)
        lru = self._lru(index, owner)
        if tag in lru:
            lru.move_to_end(tag)
            return True
        capacity = self.ways.get(None, self.ways.get(owner))
        if len(lru) >= capacity:
            lru.popitem(last=False)
        lru[tag] = owner
        return False

    def flush_owner(self, owner: int) -> int:
        evicted = 0
        for index in range(self.n_sets):
            for lru in self.sets[index].values():
                for tag in [t for t, o in lru.items() if o == owner]:
                    del lru[tag]
                    evicted += 1
        return evicted

    def flush_all(self) -> None:
        self.sets = [dict() for _ in range(self.n_sets)]

    def occupancy(self, owner: int) -> int:
        return sum(1 for per_set in self.sets for lru in per_set.values()
                   for o in lru.values() if o == owner)

    def resident(self, addr: int, owner=None) -> bool:
        index, tag = self._locate(addr)
        return any(tag in lru and (owner is None or lru[tag] == owner)
                   for lru in self.sets[index].values())


OWNED_ACCESSES = st.lists(
    st.tuples(st.sampled_from((1, 2, 3)),
              st.integers(min_value=0, max_value=1 << 14)),
    min_size=1, max_size=300)


def _cache_and_reference(mode: str):
    config = CacheConfig(size_bytes=4096, line_bytes=64, ways=4)
    cache = Cache(config)
    if mode == SHARED:
        ways = {None: config.ways}
    else:
        ways = {1: 2, 2: 1, 3: 1}
        cache.set_partitions(ways, mode=HARD)
    return cache, OwnerAwareReference(config.n_sets, config.line_bytes, ways)


def _assert_same_answers(cache, reference, probes) -> None:
    for owner in (1, 2, 3):
        assert cache.occupancy(owner) == reference.occupancy(owner)
    for _, addr in probes:
        assert cache.resident(addr) == reference.resident(addr)
        for owner in (1, 2, 3):
            assert cache.resident(addr, owner) == reference.resident(addr, owner)


class TestScrubAgainstFullWalk:
    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("mode", [SHARED, HARD])
    @given(before=OWNED_ACCESSES, after=OWNED_ACCESSES,
           departing=st.sampled_from((1, 2, 3)))
    def test_flush_owner_matches_full_walk(self, mode, before, after,
                                           departing):
        cache, reference = _cache_and_reference(mode)
        for owner, addr in before:
            assert cache.access(addr, owner) == reference.access(addr, owner)
        assert cache.flush_owner(departing) == reference.flush_owner(departing)
        _assert_same_answers(cache, reference, before)
        # The scrubbed cache keeps behaving like the reference.
        for owner, addr in after:
            assert cache.access(addr, owner) == reference.access(addr, owner)
        assert cache.flush_owner(departing) == reference.flush_owner(departing)
        _assert_same_answers(cache, reference, before + after)

    @settings(max_examples=30, deadline=None)
    @pytest.mark.parametrize("mode", [SHARED, HARD])
    @given(accesses=OWNED_ACCESSES)
    def test_flush_all_leaves_nothing_resident(self, mode, accesses):
        cache, reference = _cache_and_reference(mode)
        for owner, addr in accesses:
            cache.access(addr, owner)
        cache.flush_all()
        reference.flush_all()
        for owner in (1, 2, 3):
            assert cache.occupancy(owner) == 0
        for _, addr in accesses:
            assert not cache.resident(addr)
        for owner, addr in accesses:
            assert cache.access(addr, owner) == reference.access(addr, owner)
