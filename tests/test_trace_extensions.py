"""Traces for the tiled SpMV extension kernel."""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache import compulsory_misses, simulate
from repro.errors import ValidationError
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.kernels import spmv_csr, spmv_csr_tiled
from repro.trace.kernel_traces import spmv_csr_trace
from repro.trace.tiled import spmv_csr_tiled_trace


def random_coo(n, nnz, seed=0):
    rng = np.random.default_rng(seed)
    return COOMatrix(n, n, rng.integers(0, n, nnz), rng.integers(0, n, nnz))


class TestTiledKernel:
    def test_matches_untiled(self):
        coo = random_coo(50, 300, seed=5)
        csr = coo_to_csr(coo)
        x = np.random.default_rng(6).standard_normal(50)
        base = spmv_csr(csr, x)
        for n_tiles in (1, 3, 7, 50):
            assert np.allclose(spmv_csr_tiled(csr, x, n_tiles), base)

    def test_bad_tile_count(self):
        csr = coo_to_csr(random_coo(8, 16, seed=7))
        with pytest.raises(ValueError):
            spmv_csr_tiled(csr, np.ones(8), 0)


class TestTiledTrace:
    def test_compulsory_grows_with_tiles(self):
        """Tiled storage replicates the row offsets per tile."""
        csr = coo_to_csr(random_coo(128, 512, seed=8))
        few = spmv_csr_tiled_trace(csr, 2)
        many = spmv_csr_tiled_trace(csr, 16)
        assert compulsory_misses(many.lines) > compulsory_misses(few.lines)

    def test_x_misses_bounded_by_tiling(self):
        """With per-tile column ranges, a cache that holds one tile's
        slice of x sees near-compulsory x misses even on a random
        matrix — the whole point of tiling."""
        csr = coo_to_csr(random_coo(1024, 8192, seed=9))
        config = CacheConfig(capacity_bytes=2048, line_bytes=32, ways=8)
        untiled = spmv_csr_trace(csr)
        tiled = spmv_csr_tiled_trace(csr, 16)  # tile x-slice = 256 B
        untiled_stats = simulate(untiled.lines, config, regions=untiled.regions)
        tiled_stats = simulate(tiled.lines, config, regions=tiled.regions)
        assert tiled_stats.region_misses["x"] < 0.5 * untiled_stats.region_misses["x"]

    def test_one_tile_close_to_plain_trace(self):
        csr = coo_to_csr(random_coo(64, 256, seed=10))
        plain = spmv_csr_trace(csr)
        tiled = spmv_csr_tiled_trace(csr, 1)
        # Same irregular count; compulsory within one extra ro region.
        assert tiled.n_irregular == plain.n_irregular

    def test_bad_tile_count(self):
        csr = coo_to_csr(random_coo(8, 16, seed=11))
        with pytest.raises(ValidationError):
            spmv_csr_tiled_trace(csr, 0)

    def test_empty_matrix(self):
        csr = coo_to_csr(COOMatrix(4, 4, [], []))
        trace = spmv_csr_tiled_trace(csr, 4)
        assert trace.n_accesses == 0
