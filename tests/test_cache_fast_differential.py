"""Differential suite: vectorized simulators vs the reference oracle.

Seeded random traces and real kernel traces are replayed through both
the per-access simulators (the LRU oracle in ``tests/oracles/cache.py``
and Belady's loop in ``repro.cache.belady``) and the numpy engines in
``repro.cache.fast``; the resulting ``CacheStats`` must be equal
field-by-field (dataclass equality covers accesses, hits, misses,
evictions, dead-line counters and the per-region miss split).  The
geometry grid includes the direct-mapped (``ways=1``) and
fully-associative (``n_sets=1``) edge cases.  The fast LRU engine has
two schedules (serial per-set replay for narrow plans, lockstep rounds
for wide ones); the small grid geometries take the serial one, the
512-set geometry keeps the rounds loop covered, and
``test_lru_schedule_crossover`` pins which side each takes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cache import CacheConfig, simulate
from repro.cache.belady import _simulate_belady
from repro.cache.fast import lru as fast_lru
from repro.cache.fast import simulate_belady_fast, simulate_lru_fast
from repro.cache.fast.bucket import bucket_trace
from repro.gpu.specs import scaled_platform
from repro.graphs.corpus import hash_name, load_graph
from repro.graphs.generators.powerlaw import rmat
from repro.sparse.convert import coo_to_csr
from repro.trace.kernelspec import KernelSpec
from tests.oracles.cache import simulate_lru

#: (n_sets, ways) grid: direct-mapped, fully-associative, square, wide.
GEOMETRIES = [
    (1, 1),
    (1, 4),
    (1, 16),
    (4, 1),
    (16, 1),
    (4, 4),
    (16, 4),
    (8, 2),
    (64, 16),
    (512, 4),
]

REFERENCE = {"lru": simulate_lru, "belady": _simulate_belady}
FAST = {"lru": simulate_lru_fast, "belady": simulate_belady_fast}


def config_for(n_sets: int, ways: int, line_bytes: int = 32) -> CacheConfig:
    return CacheConfig(
        capacity_bytes=n_sets * ways * line_bytes,
        line_bytes=line_bytes,
        ways=ways,
    )


def assert_identical_stats(reference, fast, context=""):
    for field in dataclasses.fields(reference):
        assert getattr(reference, field.name) == getattr(fast, field.name), (
            f"{context}: field {field.name!r} diverges: "
            f"reference={getattr(reference, field.name)!r} "
            f"fast={getattr(fast, field.name)!r}"
        )
    assert reference == fast


def random_trace(rng, style: str, n: int) -> np.ndarray:
    if style == "uniform":
        return rng.integers(0, max(1, n // 4 + 3), size=n)
    if style == "hot":
        hot = rng.integers(0, 8, size=n)
        cold = rng.integers(0, 10 * n + 1, size=n)
        pick = rng.random(n) < 0.6
        return np.where(pick, hot, cold)
    # "stream": sequential sweeps with an irregular gather interleaved
    sweep = np.arange(n) // 3
    gather = rng.integers(0, max(1, n // 2), size=n) + 10 * n
    out = np.empty(n, dtype=np.int64)
    out[0::2] = sweep[0::2]
    out[1::2] = gather[1::2]
    return out


@pytest.mark.parametrize("policy", ["lru", "belady"])
@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("style", ["uniform", "hot", "stream"])
def test_random_traces(policy, geometry, style):
    n_sets, ways = geometry
    config = config_for(n_sets, ways)
    rng = np.random.default_rng(hash_name(f"{policy}-{n_sets}-{ways}-{style}"))
    for n in (0, 1, 2, ways, 4 * n_sets * ways, 5000):
        trace = random_trace(rng, style, n)
        regions = [("low", 0, max(1, n // 8)), ("mid", max(1, n // 8), n + 1)]
        reference = REFERENCE[policy](trace, config, regions)
        fast = FAST[policy](trace, config, regions)
        assert_identical_stats(
            reference, fast, f"{policy} {n_sets}x{ways} {style} n={n}"
        )


@pytest.mark.parametrize("policy", ["lru", "belady"])
def test_sparse_line_ids(policy):
    """Huge, sparse line-id ranges exercise the id-compaction path."""
    config = config_for(16, 4)
    rng = np.random.default_rng(99)
    trace = rng.integers(0, 2**60, size=400) * 3 + rng.integers(0, 7, size=400)
    reference = REFERENCE[policy](trace, config)
    fast = FAST[policy](trace, config)
    assert_identical_stats(reference, fast, f"{policy} sparse ids")


@pytest.mark.parametrize("policy", ["lru", "belady"])
@pytest.mark.parametrize(
    "kernel", ["spmv-csr", "spmv-coo", "spmm-csr-4", "spgemm-csr"]
)
@pytest.mark.parametrize("matrix", ["test-comm", "test-rmat"])
def test_real_kernel_traces(policy, kernel, matrix):
    """Real kernel traces with region splits, on two cache geometries."""
    graph = load_graph(matrix)
    platform = scaled_platform("test")
    trace = KernelSpec.parse(kernel).build_trace(graph.adjacency, platform)
    for n_sets, ways in [(4, 16), (64, 16)]:
        config = config_for(n_sets, ways, line_bytes=platform.line_bytes)
        reference = REFERENCE[policy](trace.lines, config, trace.regions)
        fast = FAST[policy](trace.lines, config, trace.regions)
        assert_identical_stats(
            reference, fast, f"{policy} {kernel} {matrix} {n_sets}x{ways}"
        )
        assert reference.region_misses  # the split actually exercised


@pytest.mark.parametrize(
    "geometry, schedule", [((4, 4), "serial"), ((512, 4), "rounds")]
)
def test_lru_schedule_crossover(geometry, schedule, monkeypatch):
    """A narrow plan replays serially, a wide one in rounds; both agree.

    Each geometry is also replayed with the width rule forced to the
    other schedule, so both schedules are checked on both sides.
    """
    n_sets, ways = geometry
    config = config_for(n_sets, ways)
    rng = np.random.default_rng(7)
    trace = rng.integers(0, 4096, size=20000)
    regions = [("low", 0, 1024), ("mid", 1024, 3000)]
    assert fast_lru.lru_schedule(bucket_trace(trace, n_sets)) == schedule
    reference = simulate_lru(trace, config, regions)
    assert_identical_stats(
        reference, simulate_lru_fast(trace, config, regions), schedule
    )
    forced = {"serial": 0, "rounds": 2**62}[schedule]
    monkeypatch.setattr(fast_lru, "SERIAL_WIDTH", forced)
    assert fast_lru.lru_schedule(bucket_trace(trace, n_sets)) != schedule
    assert_identical_stats(
        reference, simulate_lru_fast(trace, config, regions), f"not {schedule}"
    )


@pytest.mark.parametrize("policy", ["lru", "belady"])
def test_dispatch_impls_agree(policy):
    """simulate() matches the oracle on two inputs that take the
    vectorized engine for both policies: test-comm's 13K-access trace on
    64 x 4, and a 168K-access R-MAT scale-12 trace on 512 x 16."""
    platform = scaled_platform("test")
    test_comm = KernelSpec.parse("spmv-csr").build_trace(
        load_graph("test-comm").adjacency, platform
    )
    rmat12 = KernelSpec.parse("spmv-csr").build_trace(
        coo_to_csr(rmat(12, 8, seed=7, directed=False)), line_bytes=32
    )
    for trace, config in [(test_comm, config_for(64, 4)), (rmat12, config_for(512, 16))]:
        assert_identical_stats(
            REFERENCE[policy](trace.lines, config, trace.regions),
            simulate(trace, config, policy=policy),
            f"{policy} {trace.lines.size} accesses on {config.n_sets}x{config.ways}",
        )
