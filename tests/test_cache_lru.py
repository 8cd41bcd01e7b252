"""LRU simulator: hand-checked traces and accounting identities."""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache import classify_misses, compulsory_misses, simulate


def tiny_cache(ways=2, sets=2):
    return CacheConfig(capacity_bytes=ways * sets * 32, line_bytes=32, ways=ways)


class TestHandTraces:
    def test_all_hits_after_first(self):
        stats = simulate(np.asarray([0, 0, 0, 0]), tiny_cache())
        assert stats.misses == 1
        assert stats.hits == 3

    def test_distinct_lines_all_miss(self):
        # 4 distinct lines in a 2-way, 2-set cache: exactly fills it.
        stats = simulate(np.asarray([0, 1, 2, 3]), tiny_cache())
        assert stats.misses == 4
        assert stats.evictions == 0

    def test_lru_eviction_order(self):
        # Set 0 (even lines), 2 ways: access 0, 2, 4 evicts 0.
        trace = np.asarray([0, 2, 4, 0])
        stats = simulate(trace, tiny_cache())
        assert stats.misses == 4  # the re-access of 0 misses again

    def test_mru_protects_recent(self):
        # 0, 2, 0, 4 -> evicts 2 (LRU), so 0 still hits afterwards.
        trace = np.asarray([0, 2, 0, 4, 0])
        stats = simulate(trace, tiny_cache())
        assert stats.misses == 3
        assert stats.hits == 2

    def test_sets_are_independent(self):
        # Lines 0, 2, 4 map to set 0; line 1 maps to set 1.
        trace = np.asarray([0, 2, 4, 1, 0])
        stats = simulate(trace, tiny_cache())
        assert stats.misses == 5  # line 0 was evicted from set 0

    def test_empty_trace(self):
        stats = simulate(np.asarray([], dtype=np.int64), tiny_cache())
        assert stats.accesses == 0
        assert stats.misses == 0
        assert stats.hit_rate == 0.0


class TestDeadLines:
    def test_never_reused_lines_are_dead(self):
        # Stream of distinct lines: every evicted line is dead, and the
        # resident leftovers are dead too.
        trace = np.arange(0, 64, 2)  # 32 lines through set 0 and 1? even lines -> set 0
        stats = simulate(trace, tiny_cache())
        assert stats.dead_lines == stats.misses

    def test_reused_lines_not_dead(self):
        trace = np.asarray([0, 0, 1, 1])
        stats = simulate(trace, tiny_cache())
        assert stats.dead_lines == 0

    def test_dead_fraction(self):
        trace = np.asarray([0, 0, 2])  # 0 reused, 2 dead at end
        stats = simulate(trace, tiny_cache())
        assert stats.dead_line_fraction == pytest.approx(0.5)


class TestAccounting:
    def test_consistency_identities(self):
        rng = np.random.default_rng(0)
        trace = rng.integers(0, 50, 2000)
        stats = simulate(trace, tiny_cache())
        stats.check_consistency()  # raises on violation
        assert stats.hits + stats.misses == stats.accesses
        assert stats.traffic_bytes == stats.misses * 32

    def test_misses_at_least_compulsory(self):
        rng = np.random.default_rng(1)
        trace = rng.integers(0, 100, 3000)
        stats = simulate(trace, tiny_cache())
        assert stats.misses >= compulsory_misses(trace)

    def test_larger_cache_never_more_misses(self):
        """LRU inclusion property at fixed associativity layout."""
        rng = np.random.default_rng(2)
        trace = rng.integers(0, 64, 4000)
        small = simulate(trace, CacheConfig(capacity_bytes=512, line_bytes=32, ways=16))
        large = simulate(trace, CacheConfig(capacity_bytes=1024, line_bytes=32, ways=32))
        assert large.misses <= small.misses

    def test_infinite_cache_only_compulsory(self):
        rng = np.random.default_rng(3)
        trace = rng.integers(0, 40, 1000)
        huge = simulate(
            trace, CacheConfig(capacity_bytes=64 * 1024, line_bytes=32, ways=2048)
        )
        assert huge.misses == compulsory_misses(trace)


class TestCompulsoryMisses:
    def test_empty_trace(self):
        assert compulsory_misses(np.asarray([], dtype=np.int64)) == 0
        assert compulsory_misses([]) == 0

    def test_dense_ids(self):
        rng = np.random.default_rng(4)
        for lo in (0, 7, 1 << 40):
            trace = lo + rng.integers(0, 300, 2000)
            assert compulsory_misses(trace) == np.unique(trace).size

    def test_sparse_ids_take_the_sort_branch(self):
        # The id span is far beyond max(1 << 20, 8 * len(trace)).
        rng = np.random.default_rng(5)
        trace = rng.integers(0, 50, 3000) * (1 << 30) + rng.integers(0, 3, 3000)
        assert int(trace.max() - trace.min()) > max(1 << 20, 8 * trace.size)
        assert compulsory_misses(trace) == np.unique(trace).size


class TestRegionClassification:
    def test_split_sums_to_misses(self):
        trace = np.asarray([0, 10, 20, 0, 10, 20])
        regions = [("a", 0, 5), ("b", 5, 15)]
        stats = simulate(trace, tiny_cache(), regions=regions)
        assert sum(stats.region_misses.values()) == stats.misses
        assert "other" in stats.region_misses  # line 20 unclaimed

    def test_classify_empty_regions(self):
        assert classify_misses(np.asarray([1, 2]), [0, 1], None) == {}

    def test_classify_counts(self):
        trace = np.asarray([0, 6, 12])
        result = classify_misses(trace, [0, 1, 2], [("lo", 0, 8), ("hi", 8, 16)])
        assert result == {"lo": 2, "hi": 1}
