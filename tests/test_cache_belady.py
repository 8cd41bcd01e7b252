"""Belady (OPT) simulator: optimality and next-use bookkeeping."""

import numpy as np
import pytest

from repro.cache import compulsory_misses, simulate
from repro.cache.config import CacheConfig
from tests.oracles.cache import next_use_index


def tiny_cache(ways=2, sets=1):
    return CacheConfig(capacity_bytes=ways * sets * 32, line_bytes=32, ways=ways)


class TestNextUse:
    def test_simple(self):
        trace = np.asarray([5, 7, 5, 5, 7])
        expected = np.asarray([2, 4, 3, 5, 5])
        assert np.array_equal(next_use_index(trace), expected)

    def test_no_repeats(self):
        trace = np.asarray([1, 2, 3])
        assert np.array_equal(next_use_index(trace), [3, 3, 3])

    def test_empty(self):
        assert next_use_index(np.asarray([], dtype=np.int64)).size == 0


class TestOptimality:
    def test_classic_belady_example(self):
        # Fully-associative, 2 ways (set 0 only: use even line IDs).
        # Trace: a b c a b; OPT evicts c's victim wisely.
        a, b, c = 0, 2, 4
        trace = np.asarray([a, b, c, a, b])
        opt = simulate(trace, tiny_cache(ways=2), policy="belady")
        lru = simulate(trace, tiny_cache(ways=2))
        # OPT with bypass: c has no future use, so it is inserted and
        # immediately evicted (bypass), leaving a and b resident — both
        # re-accesses hit: 3 misses.  LRU thrashes: 5 misses.
        assert opt.misses == 3
        assert opt.hits == 2
        assert lru.misses == 5

    def test_never_worse_than_lru(self):
        rng = np.random.default_rng(0)
        config = CacheConfig(capacity_bytes=1024, line_bytes=32, ways=4)
        for seed in range(5):
            trace = np.random.default_rng(seed).integers(0, 60, 3000)
            opt = simulate(trace, config, policy="belady")
            lru = simulate(trace, config)
            assert opt.misses <= lru.misses

    def test_at_least_compulsory(self):
        trace = np.random.default_rng(1).integers(0, 64, 2000)
        config = CacheConfig(capacity_bytes=512, line_bytes=32, ways=4)
        opt = simulate(trace, config, policy="belady")
        assert opt.misses >= compulsory_misses(trace)

    def test_infinite_cache_equals_compulsory(self):
        trace = np.random.default_rng(2).integers(0, 40, 1000)
        config = CacheConfig(capacity_bytes=64 * 1024, line_bytes=32, ways=2048)
        assert simulate(trace, config, policy="belady").misses == compulsory_misses(trace)

    def test_consistency(self):
        trace = np.random.default_rng(3).integers(0, 50, 2000)
        stats = simulate(trace, tiny_cache(ways=4), policy="belady")
        stats.check_consistency()

    def test_empty_trace(self):
        stats = simulate(np.asarray([], dtype=np.int64), tiny_cache(), policy="belady")
        assert stats.accesses == 0


class TestBypass:
    def test_streaming_line_bypassed(self):
        """A line with no future use must not displace reused lines."""
        a, b = 0, 2
        stream = [4, 6, 8, 10]  # single-use lines
        trace = np.asarray([a, b] + stream + [a, b])
        stats = simulate(trace, tiny_cache(ways=2), policy="belady")
        # a and b stay resident; every stream line misses once.
        assert stats.misses == 2 + len(stream)
        assert stats.hits == 2
