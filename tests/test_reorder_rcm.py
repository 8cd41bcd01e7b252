"""Reverse Cuthill-McKee ordering."""

import numpy as np
import pytest

from repro.graphs.corpus import load_graph
from repro.graphs.graph import Graph
from repro.metrics.locality import matrix_bandwidth
from repro.reorder.rcm import ReverseCuthillMcKee
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.permute import check_permutation, permute_symmetric

scipy_sparse = pytest.importorskip("scipy.sparse")
scipy_csgraph = pytest.importorskip("scipy.sparse.csgraph")


class TestRCM:
    def test_path_graph_bandwidth_one(self, path_graph):
        perm = ReverseCuthillMcKee().compute(path_graph)
        reordered = permute_symmetric(path_graph.adjacency, perm)
        assert matrix_bandwidth(reordered) == 1

    def test_reduces_bandwidth_of_scrambled_mesh(self):
        graph = load_graph("test-mesh")  # scrambled 24x24 grid
        perm = ReverseCuthillMcKee().compute(graph)
        before = matrix_bandwidth(graph.adjacency)
        after = matrix_bandwidth(permute_symmetric(graph.adjacency, perm))
        assert after < before / 2

    def test_comparable_to_scipy_rcm(self):
        graph = load_graph("test-mesh")
        ours = ReverseCuthillMcKee().compute(graph)
        our_bw = matrix_bandwidth(permute_symmetric(graph.adjacency, ours))

        adjacency = graph.adjacency
        scipy_matrix = scipy_sparse.csr_matrix(
            (
                np.ones(adjacency.nnz),
                adjacency.col_indices,
                adjacency.row_offsets,
            ),
            shape=adjacency.shape,
        )
        scipy_visit = scipy_csgraph.reverse_cuthill_mckee(scipy_matrix, symmetric_mode=True)
        scipy_perm = np.empty(graph.n_nodes, dtype=np.int64)
        scipy_perm[scipy_visit] = np.arange(graph.n_nodes)
        scipy_bw = matrix_bandwidth(permute_symmetric(graph.adjacency, scipy_perm))
        assert our_bw <= 1.5 * scipy_bw

    def test_disconnected_components_handled(self):
        coo = COOMatrix(6, 6, [0, 1, 3, 4], [1, 0, 4, 3])
        graph = Graph(coo_to_csr(coo))
        check_permutation(ReverseCuthillMcKee().compute(graph), 6)

    def test_empty_graph(self):
        graph = Graph(coo_to_csr(COOMatrix(0, 0, [], [])))
        assert ReverseCuthillMcKee().compute(graph).size == 0
