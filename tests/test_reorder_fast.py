"""Differential suite: vectorized reordering engines vs their oracles.

Every technique with a vectorized engine must produce **bit-identical**
permutations to its per-node loop oracle
(:data:`tests.oracles.reorder.ORACLES`) on every graph, the tiny
and degenerate ones included: the engines are the only product path, so
nothing else keeps a technique's output from drifting.  The suite
crosses those techniques with seeded corpus generators and structural
edge cases, checks the RABBIT detector under rabbit and rabbit++
against its oracle, and pins the cached transpose GOrder reads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.community.rabbit import rabbit_communities
from repro.graphs.generators.community import dcsbm, star_burst
from repro.graphs.generators.powerlaw import rmat
from repro.graphs.generators.random_graphs import erdos_renyi
from repro.graphs.graph import Graph
from repro.reorder.registry import make_technique
from repro.sparse.convert import coo_to_csr, csr_to_coo
from repro.sparse.coo import COOMatrix
from repro.sparse.ops import transpose
from tests.oracles.reorder import ORACLES, oracle_detection


def _graph_from_coo(coo: COOMatrix, directed: bool = True) -> Graph:
    return Graph.from_coo(coo, directed=directed)


def _empty_graph() -> Graph:
    return _graph_from_coo(COOMatrix(0, 0, [], [], []))


def _single_node() -> Graph:
    return _graph_from_coo(COOMatrix(1, 1, [], [], []))


def _disconnected() -> Graph:
    """Three components: a triangle, an edge, and isolated nodes."""
    edges = [(0, 1), (1, 2), (0, 2), (4, 5)]
    rows = [u for u, v in edges] + [v for u, v in edges]
    cols = [v for u, v in edges] + [u for u, v in edges]
    return _graph_from_coo(COOMatrix(8, 8, rows, cols), directed=False)


GRAPHS = {
    "rmat10": lambda: _graph_from_coo(rmat(10, 8, seed=7)),
    "rmat9-dense": lambda: _graph_from_coo(rmat(9, 24, seed=11)),
    "dcsbm": lambda: _graph_from_coo(dcsbm(512, 8, 12.0, 0.15, seed=3)),
    "dcsbm-hubs": lambda: _graph_from_coo(
        dcsbm(384, 6, 10.0, 0.3, theta_exponent=0.9, seed=5)
    ),
    "erdos": lambda: _graph_from_coo(erdos_renyi(400, 9.0, seed=2)),
    "star-burst": lambda: _graph_from_coo(star_burst(300, 6, seed=4)),
    "empty": _empty_graph,
    "single": _single_node,
    "disconnected": _disconnected,
}


@pytest.fixture(scope="module")
def graphs():
    return {name: build() for name, build in GRAPHS.items()}


class TestTechniqueDifferential:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("technique", sorted(ORACLES))
    def test_identical_permutations(self, graphs, technique, graph_name):
        graph = graphs[graph_name]
        oracle = ORACLES[technique](graph)
        fast = make_technique(technique).compute(graph)
        assert fast.dtype == oracle.dtype
        assert np.array_equal(fast, oracle)

    def test_identical_cache_stats_downstream(self, graphs):
        """Same permutation => byte-identical simulated cache stats."""
        from repro.cache import CacheConfig, simulate
        from repro.sparse.permute import permute_symmetric
        from repro.trace.kernel_traces import spmv_csr_trace

        graph = graphs["dcsbm"].to_undirected()
        config = CacheConfig(capacity_bytes=16 * 1024, line_bytes=64, ways=8)
        perms = {
            "oracle": ORACLES["rabbit"](graph),
            "fast": make_technique("rabbit").compute(graph),
        }
        stats = {
            name: simulate(spmv_csr_trace(permute_symmetric(graph.adjacency, perm)), config)
            for name, perm in perms.items()
        }
        assert stats["oracle"] == stats["fast"]


class TestDetectorDifferential:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_rabbit_detection(self, graphs, graph_name):
        graph = graphs[graph_name]
        ref = oracle_detection(graph)
        fast = rabbit_communities(graph)
        assert np.array_equal(ref.assignment.labels, fast.assignment.labels)
        assert ref.n_merges == fast.n_merges
        assert np.array_equal(ref.dendrogram.ordering(), fast.dendrogram.ordering())


class TestInAdjacencyCache:
    def test_matches_explicit_transpose(self, graphs):
        graph = graphs["rmat10"]
        expected = coo_to_csr(transpose(csr_to_coo(graph.adjacency)))
        got = graph.in_adjacency
        assert np.array_equal(got.row_offsets, expected.row_offsets)
        assert np.array_equal(got.col_indices, expected.col_indices)
        assert np.array_equal(got.values, expected.values)

    def test_cached_object_identity(self, graphs):
        graph = graphs["erdos"]
        assert graph.in_adjacency is graph.in_adjacency
