"""Two-level hierarchy simulator."""

import dataclasses

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import simulate_hierarchy
from repro.cache import simulate
from repro.errors import ValidationError
from repro.gpu.specs import scaled_platform
from repro.graphs.corpus import hash_name, load_graph
from repro.trace.kernelspec import KernelSpec
from tests.oracles.cache import simulate_hierarchy as oracle_hierarchy


def configs(l1_bytes=64, l2_bytes=256):
    return (
        CacheConfig(capacity_bytes=l1_bytes, line_bytes=32, ways=2),
        CacheConfig(capacity_bytes=l2_bytes, line_bytes=32, ways=4),
    )


class TestValidation:
    def test_line_size_mismatch(self):
        l1 = CacheConfig(capacity_bytes=64, line_bytes=32, ways=2)
        l2 = CacheConfig(capacity_bytes=512, line_bytes=64, ways=4)
        with pytest.raises(ValidationError):
            simulate_hierarchy(np.asarray([0]), l1, l2)

    def test_l1_larger_than_l2_rejected(self):
        l1 = CacheConfig(capacity_bytes=512, line_bytes=32, ways=4)
        l2 = CacheConfig(capacity_bytes=64, line_bytes=32, ways=2)
        with pytest.raises(ValidationError):
            simulate_hierarchy(np.asarray([0]), l1, l2)


class TestBehaviour:
    def test_l2_sees_only_l1_misses(self):
        rng = np.random.default_rng(0)
        trace = rng.integers(0, 40, 2000)
        l1, l2 = configs()
        stats = simulate_hierarchy(trace, l1, l2)
        stats.check_consistency()
        assert stats.l2.accesses == stats.l1.misses
        assert stats.l2.accesses <= stats.l1.accesses

    def test_l2_alone_equals_hierarchy_dram_traffic_upper_bound(self):
        """Filtering through an LRU L1 can change L2 contents, but DRAM
        traffic stays within sane bounds of the single-level L2 run."""
        rng = np.random.default_rng(1)
        trace = rng.integers(0, 30, 3000)
        l1, l2 = configs()
        hierarchy = simulate_hierarchy(trace, l1, l2)
        flat = simulate(trace, l2)
        assert hierarchy.l2.misses >= flat.misses  # L1 filtering removes recency info
        assert hierarchy.l2.misses <= flat.misses * 3

    def test_tiny_working_set_all_l1_hits(self):
        trace = np.asarray([0, 1, 0, 1, 0, 1])
        l1, l2 = configs()
        stats = simulate_hierarchy(trace, l1, l2)
        assert stats.l1.hits == 4
        assert stats.l2.misses == 2  # compulsory only

    def test_hit_rates(self):
        trace = np.asarray([0, 0, 0, 0])
        l1, l2 = configs()
        stats = simulate_hierarchy(trace, l1, l2)
        assert stats.l1_hit_rate == pytest.approx(0.75)
        assert stats.dram_traffic_bytes == 32

    def test_empty_trace(self):
        l1, l2 = configs()
        stats = simulate_hierarchy(np.asarray([], dtype=np.int64), l1, l2)
        assert stats.l1.accesses == 0
        assert stats.l2.accesses == 0


#: (L1, L2) geometries as ((n_sets, ways), (n_sets, ways)), 32 B lines:
#: fully associative and direct-mapped levels, 1 to 512 sets.  When L1
#: has more sets than L2, one L2 set draws on several L1 sets, so L2
#: must replay L1's misses in trace order, not grouped by L1 set.
GEOMETRY_PAIRS = [
    ((1, 1), (1, 4)),
    ((4, 1), (16, 1)),
    ((16, 1), (4, 8)),
    ((16, 4), (512, 4)),
    ((64, 2), (512, 16)),
    ((512, 1), (64, 16)),
]


def geometry_config(n_sets, ways):
    return CacheConfig(capacity_bytes=n_sets * ways * 32, line_bytes=32, ways=ways)


def hierarchy_trace(rng, style, n):
    if style == "uniform":
        return rng.integers(0, n // 4 + 3, size=n)
    if style == "hot":
        hot = rng.integers(0, 8, size=n)
        return np.where(rng.random(n) < 0.6, hot, rng.integers(0, 10 * n + 1, size=n))
    # "sparse": reuse over line ids spread across 2^40
    pool = rng.integers(0, 2**40, size=n // 4 + 3)
    return pool[rng.integers(0, pool.size, size=n)]


class TestOracleDifferential:
    """simulate_hierarchy == the per-access two-level loop, bit for bit."""

    @pytest.mark.parametrize("style", ["uniform", "hot", "sparse"])
    @pytest.mark.parametrize(
        "pair", GEOMETRY_PAIRS, ids=lambda p: "{}x{}-{}x{}".format(*p[0], *p[1])
    )
    def test_random_traces(self, pair, style):
        (l1_sets, l1_ways), (l2_sets, l2_ways) = pair
        l1 = geometry_config(l1_sets, l1_ways)
        l2 = geometry_config(l2_sets, l2_ways)
        rng = np.random.default_rng(hash_name(f"{pair}-{style}"))
        for n in (0, 1, 7, 5000, 40000):
            trace = hierarchy_trace(rng, style, n)
            assert simulate_hierarchy(trace, l1, l2) == oracle_hierarchy(trace, l1, l2), (
                f"{pair} {style} n={n}"
            )

    @pytest.mark.parametrize("matrix, profile", [("test-comm", "test"), ("bench-social", "bench")])
    def test_spmv_traces(self, matrix, profile):
        """The L1/L2 pair hierarchy_ablation derives from the platform L2."""
        platform = scaled_platform(profile)
        l2 = platform.cache_config()
        l1 = dataclasses.replace(
            l2,
            capacity_bytes=max(l2.line_bytes * l2.ways, l2.capacity_bytes // 8),
            ways=min(l2.ways, 8),
        )
        trace = KernelSpec.parse("spmv-csr").build_trace(load_graph(matrix).adjacency, platform)
        assert simulate_hierarchy(trace.lines, l1, l2) == oracle_hierarchy(trace.lines, l1, l2)
