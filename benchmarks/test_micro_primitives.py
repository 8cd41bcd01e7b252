"""Microbenchmarks of the library's computational primitives.

These time the individual pipeline stages (trace generation, LRU and
Belady simulation, community detection, reordering, SpMV) so
performance regressions in the substrate are visible independently of
the artifact-level experiments.
"""

import numpy as np
import pytest

from repro.cache.belady import _simulate_belady
from repro.cache.fast import simulate_belady_fast, simulate_lru_fast
from repro.community.rabbit import rabbit_communities
from repro.gpu.specs import scaled_platform
from repro.graphs.corpus import load_graph
from repro.reorder.registry import make_technique
from repro.sparse.kernels import spmv_csr
from repro.sparse.permute import permute_symmetric
from repro.trace.kernel_traces import spmv_csr_trace

MATRIX = "bench-comm"


@pytest.fixture(scope="module")
def graph():
    return load_graph(MATRIX)


@pytest.fixture(scope="module")
def trace(graph):
    return spmv_csr_trace(graph.adjacency, line_bytes=32)


def test_trace_generation(benchmark, graph):
    trace = benchmark(lambda: spmv_csr_trace(graph.adjacency, line_bytes=32))
    assert trace.n_accesses > 0


def test_lru_simulation_fast(benchmark, trace):
    config = scaled_platform("bench").cache_config()
    stats = benchmark(lambda: simulate_lru_fast(trace.lines, config))
    assert stats.accesses == trace.n_accesses


def test_belady_simulation(benchmark, trace):
    config = scaled_platform("bench").cache_config()
    stats = benchmark(lambda: _simulate_belady(trace.lines, config))
    assert stats.accesses == trace.n_accesses


def test_belady_simulation_fast(benchmark, trace):
    config = scaled_platform("bench").cache_config()
    stats = benchmark(lambda: simulate_belady_fast(trace.lines, config))
    assert stats.accesses == trace.n_accesses


def test_rabbit_detection(benchmark, graph):
    result = benchmark(lambda: rabbit_communities(graph))
    assert result.assignment.n_communities >= 1


def test_rabbitpp_reordering(benchmark, graph):
    technique = make_technique("rabbit++")
    perm = benchmark(lambda: make_technique("rabbit++").compute(graph))
    assert perm.size == graph.n_nodes


def test_symmetric_permutation(benchmark, graph):
    perm = make_technique("random").compute(graph)
    out = benchmark(lambda: permute_symmetric(graph.adjacency, perm))
    assert out.nnz == graph.adjacency.nnz


def test_spmv_kernel(benchmark, graph):
    x = np.ones(graph.n_nodes)
    y = benchmark(lambda: spmv_csr(graph.adjacency, x))
    assert y.size == graph.n_nodes
