"""Differential suite: vectorized reordering engines vs their oracles.

Every technique with a vectorized engine must produce **bit-identical**
permutations to its per-node loop oracle
(:data:`tests.oracles.reorder.ORACLES`) on every graph, the tiny
and degenerate ones included: the engines are the only product path, so
nothing else keeps a technique's output from drifting.  The suite
crosses those techniques with seeded corpus generators, weighted
graphs and structural edge cases, checks the RABBIT detector against
its oracle with its rows split by length and with every row forced down
each of its two paths, and pins the cached transpose GOrder reads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.community.fast import rabbit as fast_rabbit
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


def _weighted(coo: COOMatrix) -> Graph:
    """``coo`` under symmetric non-integer weights: every entry of the
    pair ``{i, j}`` weighs ``1 + ((min·7919 + max·104729) mod 97) / 10``,
    so detection's float sums are no longer exact."""
    low, high = np.minimum(coo.rows, coo.cols), np.maximum(coo.rows, coo.cols)
    weights = 1 + ((low * 7919 + high * 104729) % 97) / 10
    return _graph_from_coo(COOMatrix(coo.n_rows, coo.n_cols, coo.rows, coo.cols, weights))


def _fold_order_k4() -> Graph:
    """K4 whose detection turns on one float association.

    Visits run 1, 0, 3, 2.  Node 1 merges into 2, then node 0 into 3,
    which appends ``{2: 0.1 + 0.2}`` to node 3's row ``{0: 0.3, 1: 0.1,
    2: 0.2}``.  Folding that row by exact key first (the reference's
    merge-time accumulation) gives root 2 the weight ``0.1 + (0.2 +
    (0.1 + 0.2)) = 0.6``, whose gain is not positive, so node 3 stays a
    root and node 2 later merges into it.  Resolving the unfolded row
    sums ``(0.1 + 0.2) + (0.1 + 0.2) = 0.6000000000000001`` instead, and
    node 3 merges into 2: same labels, different dendrogram.
    """
    edges = {(0, 1): 0.1, (0, 2): 0.2, (0, 3): 0.3, (1, 2): 0.3, (1, 3): 0.1, (2, 3): 0.2}
    rows = [u for u, v in edges]
    cols = [v for u, v in edges]
    return _graph_from_coo(COOMatrix(4, 4, rows, cols, list(edges.values())), directed=False)


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
    "rmat10-weighted": lambda: _weighted(rmat(10, 8, seed=7)),
    "dcsbm-hubs-weighted": lambda: _weighted(
        dcsbm(384, 6, 10.0, 0.3, theta_exponent=0.9, seed=5)
    ),
    "fold-order-k4": _fold_order_k4,
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


def assert_same_detection(graph):
    ref = oracle_detection(graph)
    fast = rabbit_communities(graph)
    assert np.array_equal(ref.assignment.labels, fast.assignment.labels)
    assert ref.n_merges == fast.n_merges
    assert np.array_equal(ref.dendrogram.ordering(), fast.dendrogram.ordering())


class TestDetectorDifferential:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_rabbit_detection(self, graphs, graph_name):
        assert_same_detection(graphs[graph_name])

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize(
        "dict_max", [pytest.param(0, id="numpy"), pytest.param(2**62, id="dict")]
    )
    def test_rabbit_detection_on_one_path(self, graphs, graph_name, dict_max, monkeypatch):
        """Every row takes the vectorized fold, then every row the dict
        passes: each path alone must reproduce the oracle."""
        monkeypatch.setattr(fast_rabbit, "DICT_MAX", dict_max)
        assert_same_detection(graphs[graph_name])


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
