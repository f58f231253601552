"""Set-associative cache simulator with way partitioning.

Figure 5 of the paper measures the IPC cost of S-NIC's cache isolation:
"static partitioning allocated 1/N of the cache to each of the N
functions".  This module provides the underlying cache model:

* ``shared`` mode — ordinary LRU across all ways; co-tenants evict each
  other's lines (the commodity baseline, and the source of cache side
  channels).
* ``hard`` mode — each owner gets a disjoint set of ways per set; hits
  and fills are confined to the owner's ways, eliminating both eviction
  interference and occupancy side channels (§4.2).
* ``soft`` mode — Intel-CAT-style: fills are confined to the owner's
  ways, but hits may be satisfied from *any* way.  The paper rejects this
  ("soft partitioning schemes like Intel CAT provide insufficient
  isolation") because hit/miss timing still leaks other tenants'
  contents; the ablation benchmark demonstrates exactly that.

Lines carry an owner tag so teardown can scrub a departing function's
lines (§4.6) and tests can assert occupancy invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hw.memory import AccessFault
from repro.obs.interference import RESOURCE_CACHE, get_accountant
from repro.obs.metrics import Counter, MetricsRegistry, get_registry, instance_label
from repro.obs.tracer import get_tracer

SHARED = "shared"
HARD = "hard"
SOFT = "soft"
_MODES = (SHARED, HARD, SOFT)

_TRACER = get_tracer()

#: Nominal fill latency used to give traced misses a visible duration.
#: Doubles as the per-conflict-miss cost blamed on a cross-tenant
#: evictor by the interference accountant.
_MISS_FILL_NS = 60.0

#: Upper bound on remembered cross-tenant evictions per cache (FIFO
#: forgetting beyond this); keeps a streaming aggressor from growing
#: the attribution map without bound.
_EVICTION_MEMORY_CAP = 65536


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    line_bytes: int = 64
    ways: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ValueError("cache size must divide into sets evenly")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass
class _Line:
    tag: int
    owner: int
    stamp: int


class CacheStats:
    """Per-owner hit/miss statistics, backed by the metrics registry.

    The counters in :mod:`repro.obs.metrics` are the source of truth;
    ``hits``/``misses`` are thin read-through properties so historical
    call sites (``cache.stats[owner].hits``) keep working unchanged.
    """

    __slots__ = ("_hits", "_misses")

    def __init__(self, hits: Optional[Counter] = None,
                 misses: Optional[Counter] = None) -> None:
        # Unregistered standalone counters when constructed bare (kept
        # for back-compat with direct CacheStats() use).
        self._hits = hits if hits is not None else Counter("cache_hits_total", ())
        self._misses = misses if misses is not None else Counter(
            "cache_misses_total", ())

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self._hits.reset()
        self._misses.reset()

    def __repr__(self) -> str:  # keeps the old dataclass-ish repr
        return f"CacheStats(hits={self.hits}, misses={self.misses})"


class Cache:
    """One level of set-associative, LRU, write-allocate cache."""

    def __init__(self, config: CacheConfig, name: str = "cache",
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.config = config
        self.name = name
        self.mode = SHARED
        self._partitions: Dict[int, int] = {}  # owner -> way count
        self._way_ranges: Dict[int, Tuple[int, int]] = {}  # owner -> [lo, hi)
        # Sparse sets, like PhysicalMemory._pages: a set's line list
        # (<= ways) materialises on its first fill, and a flush drops
        # the sets it empties, so scrubs cost what is resident.
        self._sets: Dict[int, List[_Line]] = {}
        self._clock = 0
        self._registry = registry or get_registry()
        self._obs_label = instance_label(name)
        self.stats: Dict[int, CacheStats] = {}
        self._evictions: Dict[int, Counter] = {}
        self._accountant = get_accountant()
        #: Cross-tenant eviction memory: (set, tag, victim) -> culprit.
        #: A later miss by the victim on that line is a *conflict miss*
        #: the culprit caused; its refill latency is blamed on them.
        self._evicted_by: Dict[Tuple[int, int, int], int] = {}

    def _stats_for(self, owner: int) -> CacheStats:
        stats = CacheStats(
            self._registry.counter("cache_hits_total",
                                   cache=self._obs_label, tenant=owner),
            self._registry.counter("cache_misses_total",
                                   cache=self._obs_label, tenant=owner),
        )
        self.stats[owner] = stats
        return stats

    def _evictions_for(self, owner: int) -> Counter:
        counter = self._registry.counter(
            "cache_evictions_total", cache=self._obs_label, tenant=owner)
        self._evictions[owner] = counter
        return counter

    # ------------------------------------------------------------------
    # Partition management (configured by nf_launch)
    # ------------------------------------------------------------------

    def set_partitions(self, allocation: Dict[int, int], mode: str = HARD) -> None:
        """Assign ``ways`` per owner and switch to a partitioned mode.

        Way ranges are disjoint and contiguous; the sum must not exceed
        associativity.  Existing contents are flushed (repartitioning a
        live cache would itself be a side channel).
        """
        if mode not in (HARD, SOFT):
            raise ValueError(f"partition mode must be hard or soft, not {mode!r}")
        total = sum(allocation.values())
        if total > self.config.ways:
            raise AccessFault(
                f"{self.name}: partition wants {total} ways, "
                f"cache has {self.config.ways}"
            )
        if any(w <= 0 for w in allocation.values()):
            raise ValueError("every partition needs at least one way")
        self.mode = mode
        self._partitions = dict(allocation)
        self._way_ranges = {}
        cursor = 0
        for owner, ways in allocation.items():
            self._way_ranges[owner] = (cursor, cursor + ways)
            cursor += ways
        self.flush_all()

    def share(self) -> None:
        """Return to fully shared LRU mode (the commodity baseline)."""
        self.mode = SHARED
        self._partitions = {}
        self._way_ranges = {}
        self.flush_all()

    def ways_for(self, owner: int) -> int:
        if self.mode == SHARED:
            return self.config.ways
        if owner not in self._partitions:
            raise AccessFault(f"{self.name}: owner {owner} has no cache partition")
        return self._partitions[owner]

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------

    def access(self, addr: int, owner: int, write: bool = False) -> bool:
        """Simulate one access; returns True on hit.

        ``write`` currently only influences allocation policy bookkeeping
        (the model is write-allocate, so hits/misses are symmetric).
        """
        line_addr = addr // self.config.line_bytes
        set_index = line_addr % self.config.n_sets
        tag = line_addr // self.config.n_sets
        lines = self._sets.get(set_index)
        hit_line = None if lines is None else self._find_hit(lines, tag, owner)
        if hit_line is None and self.mode != SHARED:
            # A miss needs the owner's partition; resolve it before the
            # miss leaves any trace (clock, counters, blame).
            self.ways_for(owner)
        self._clock += 1
        stats = self.stats.get(owner)
        if stats is None:
            stats = self._stats_for(owner)
        if hit_line is not None:
            hit_line.stamp = self._clock
            stats._hits.value += 1.0
            return True

        stats._misses.value += 1.0
        if lines is None:
            lines = self._sets[set_index] = []
        culprit = self._evicted_by.pop((set_index, tag, owner), None)
        if culprit is not None:
            # Conflict miss: this exact line was resident until another
            # tenant's fill displaced it — the refill is their fault.
            self._accountant.blame(RESOURCE_CACHE, victim=owner,
                                   culprit=culprit, wait_ns=_MISS_FILL_NS)
        evicted = self._fill(lines, tag, owner)
        if evicted is not None:
            victim_tag, victim_owner = evicted
            if victim_owner != owner:
                if len(self._evicted_by) >= _EVICTION_MEMORY_CAP:
                    self._evicted_by.pop(next(iter(self._evicted_by)))
                self._evicted_by[(set_index, victim_tag, victim_owner)] = owner
        tracer = _TRACER
        if tracer.enabled:
            tracer.complete(
                "cache.miss", tracer.now(), _MISS_FILL_NS,
                tenant=owner, track=self.name, cat="cache", set=set_index)
        return False

    def _find_hit(self, lines: List[_Line], tag: int, owner: int) -> Optional[_Line]:
        for line in lines:
            if line.tag != tag:
                continue
            if self.mode == HARD and line.owner != owner:
                # Hard partitioning: a tenant can never observe another
                # tenant's line, even for the same physical address.
                continue
            # SHARED and SOFT modes satisfy hits from any way — the
            # precise leak the paper calls out for CAT-style schemes.
            return line
        return None

    def _fill(self, lines: List[_Line], tag: int,
              owner: int) -> Optional[Tuple[int, int]]:
        """Install the line, evicting if needed.

        Returns the evicted ``(tag, owner)`` pair (or ``None``) so the
        access path can attribute cross-tenant conflict misses.
        """
        capacity = self.ways_for(owner) if self.mode != SHARED else self.config.ways
        evicted: Optional[Tuple[int, int]] = None
        if self.mode == SHARED:
            if len(lines) >= capacity:
                victim = min(lines, key=lambda line: line.stamp)
                lines.remove(victim)
                self._count_eviction(victim.owner)
                evicted = (victim.tag, victim.owner)
            lines.append(_Line(tag=tag, owner=owner, stamp=self._clock))
            return evicted
        # Partitioned fill: victimize only within the owner's ways.
        own = [line for line in lines if line.owner == owner]
        if len(own) >= capacity:
            victim = min(own, key=lambda line: line.stamp)
            lines.remove(victim)
            self._count_eviction(victim.owner)
            evicted = (victim.tag, victim.owner)
        lines.append(_Line(tag=tag, owner=owner, stamp=self._clock))
        return evicted

    def _count_eviction(self, victim_owner: int) -> None:
        counter = self._evictions.get(victim_owner)
        if counter is None:
            counter = self._evictions_for(victim_owner)
        counter.value += 1.0

    # ------------------------------------------------------------------
    # Introspection & scrubbing
    # ------------------------------------------------------------------

    def occupancy(self, owner: int) -> int:
        """Number of resident lines owned by ``owner``."""
        return sum(1 for lines in self._sets.values() for line in lines
                   if line.owner == owner)

    def resident(self, addr: int, owner: Optional[int] = None) -> bool:
        """True when the line holding ``addr`` is resident (for any owner
        unless one is given).  This is the attacker's probe primitive."""
        line_addr = addr // self.config.line_bytes
        set_index = line_addr % self.config.n_sets
        tag = line_addr // self.config.n_sets
        for line in self._sets.get(set_index, ()):
            if line.tag == tag and (owner is None or line.owner == owner):
                return True
        return False

    def flush_owner(self, owner: int) -> int:
        """Evict (scrub) every line belonging to ``owner`` (teardown)."""
        evicted = 0
        emptied: List[int] = []
        for set_index, lines in self._sets.items():
            keep = [line for line in lines if line.owner != owner]
            if len(keep) == len(lines):
                continue
            evicted += len(lines) - len(keep)
            if keep:
                lines[:] = keep
            else:
                emptied.append(set_index)
        for set_index in emptied:
            del self._sets[set_index]
        # A scrub is a legitimate (infrastructure) eviction: pending
        # cross-tenant blame for the departing owner's lines is void.
        self._evicted_by = {key: culprit
                            for key, culprit in self._evicted_by.items()
                            if key[2] != owner}
        if _TRACER.enabled:
            _TRACER.instant("cache.scrub", tenant=owner, track=self.name,
                            cat="cache", lines=evicted)
        return evicted

    def flush_all(self) -> None:
        self._sets.clear()
        self._evicted_by.clear()

    def reset_stats(self) -> None:
        """Zero this cache's registry counters and forget owner views."""
        for stats in self.stats.values():
            stats.reset()
        for counter in self._evictions.values():
            counter.reset()
        self.stats = {}
        self._evictions = {}


class CacheHierarchy:
    """Private L1s in front of a shared L2, as in the gem5 setup (§5.3).

    Each owner (network function) has its own L1 — matching "each core has
    a private L1" on every NIC in §3.2 — and all owners share the L2,
    which is the level that S-NIC partitions.
    """

    def __init__(
        self,
        l1_config: CacheConfig,
        l2_config: CacheConfig,
        owners: List[int],
    ) -> None:
        self.l1: Dict[int, Cache] = {
            owner: Cache(l1_config, name=f"l1[{owner}]") for owner in owners
        }
        self.l2 = Cache(l2_config, name="l2")
        self.owners = list(owners)

    def partition_l2(self, mode: str = HARD) -> None:
        """Give each owner an equal share of L2 ways (the §5.3 policy)."""
        ways = self.l2.config.ways
        share = max(1, ways // len(self.owners))
        allocation = {owner: share for owner in self.owners}
        # Trim if equal shares overflow associativity (e.g. 16 NFs, 8 ways
        # is rejected by set_partitions; callers pick geometry to fit).
        self.l2.set_partitions(allocation, mode=mode)

    def share_l2(self) -> None:
        self.l2.share()

    def access(self, addr: int, owner: int, write: bool = False) -> int:
        """Access through the hierarchy; returns the satisfying level.

        1 = L1 hit, 2 = L2 hit, 3 = DRAM.
        """
        if owner not in self.l1:
            raise AccessFault(f"no L1 for owner {owner}")
        if self.l1[owner].access(addr, owner, write=write):
            return 1
        if self.l2.access(addr, owner, write=write):
            return 2
        return 3
