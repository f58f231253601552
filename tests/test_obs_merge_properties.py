"""Property-style tests for the histogram merge algebra.

Windowed aggregation rests on ``Histogram.merge`` forming a commutative
monoid: merging randomly partitioned observation streams must equal the
whole stream observed into one histogram, regardless of partition
boundaries, merge order, or association
(``WindowedAggregator.merged_histogram`` folds per-window deltas this
way).  Seeded ``random.Random`` throughout — every "random" partition
is replayable.
"""

from __future__ import annotations

import random

import pytest

from repro.obs.metrics import Histogram


def random_values(rng: random.Random, n: int) -> list:
    return [rng.expovariate(1.0 / 5_000.0) for _ in range(n)]


def random_partition(rng: random.Random, values: list, k: int) -> list:
    """Deal ``values`` into ``k`` shards by seeded coin flips (shards
    may be empty — the merge must not care)."""
    shards = [[] for _ in range(k)]
    for value in values:
        shards[rng.randrange(k)].append(value)
    return shards


def histogram_of(values: list) -> Histogram:
    hist = Histogram("lat_ns", (("tenant", "t1"),))
    for value in values:
        hist.observe(value)
    return hist


def state_of(hist: Histogram) -> tuple:
    """The exactly-mergeable state: counting/lattice fields and the
    percentile estimates derived from them.  ``sum`` is excluded — float
    addition is not associative, so differently-ordered merges agree on
    it only to the last ulp (asserted separately with ``approx``)."""
    return (hist.count, hist.min, hist.max, tuple(hist.counts),
            hist.percentile(50.0), hist.percentile(99.0))


@pytest.mark.parametrize("seed,k", [(1, 2), (2, 3), (3, 5), (4, 8)])
class TestHistogramMergeProperties:
    def test_partition_then_merge_equals_monolithic(self, seed, k):
        rng = random.Random(seed)
        values = random_values(rng, 500)
        shards = random_partition(rng, values, k)
        merged = histogram_of([])
        for shard in shards:
            merged.merge(histogram_of(shard))
        mono = histogram_of(values)
        assert state_of(merged) == state_of(mono)
        assert merged.sum == pytest.approx(mono.sum, rel=1e-12)

    def test_merge_is_order_insensitive(self, seed, k):
        rng = random.Random(seed)
        shards = random_partition(rng, random_values(rng, 300), k)
        forward = histogram_of([])
        for shard in shards:
            forward.merge(histogram_of(shard))
        shuffled = list(shards)
        rng.shuffle(shuffled)
        backward = histogram_of([])
        for shard in shuffled:
            backward.merge(histogram_of(shard))
        assert state_of(forward) == state_of(backward)
        assert forward.sum == pytest.approx(backward.sum, rel=1e-12)

    def test_merge_is_associative(self, seed, k):
        rng = random.Random(seed)
        a, b, c = (histogram_of(random_values(rng, n))
                   for n in (50, 80, 110))

        def clone(hist):
            out = histogram_of([])
            out.merge(hist)
            return out

        left = clone(a)
        left.merge(clone(b))
        left.merge(clone(c))
        right_tail = clone(b)
        right_tail.merge(clone(c))
        right = clone(a)
        right.merge(right_tail)
        assert state_of(left) == state_of(right)
        assert left.sum == pytest.approx(right.sum, rel=1e-12)


class TestHistogramMergeGuards:
    def test_mismatched_bounds_refuse_to_merge(self):
        a = Histogram("h", (), bounds=(1.0, 2.0))
        b = Histogram("h", (), bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_non_histogram_refuses_to_merge(self):
        with pytest.raises(TypeError):
            histogram_of([]).merge(object())
