"""Graph view semantics."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.graphs.generators.community import dcsbm
from repro.graphs.graph import Graph
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix


def directed_graph():
    # 0->1, 0->2, 1->2, 2->2 (self loop)
    coo = COOMatrix(3, 3, [0, 0, 1, 2], [1, 2, 2, 2])
    return Graph(coo_to_csr(coo), directed=True)


class TestBasics:
    def test_counts(self, two_triangles):
        assert two_triangles.n_nodes == 6
        assert two_triangles.n_edges == 14  # 7 undirected edges stored twice

    def test_average_degree(self, two_triangles):
        assert two_triangles.average_degree() == pytest.approx(14 / 6)

    def test_neighbors(self, two_triangles):
        assert set(two_triangles.neighbors(2).tolist()) == {0, 1, 3}

    def test_rejects_rectangular(self):
        rect = coo_to_csr(COOMatrix(2, 3, [0], [2]))
        with pytest.raises(ShapeError):
            Graph(rect)

    def test_degrees_directed(self):
        graph = directed_graph()
        assert np.array_equal(graph.out_degrees(), [2, 1, 1])
        assert np.array_equal(graph.in_degrees(), [0, 1, 3])
        assert np.array_equal(graph.degrees(), [2, 2, 4])

    def test_degrees_undirected_equal_out(self, path_graph):
        assert np.array_equal(path_graph.degrees(), path_graph.out_degrees())


class TestUndirectedView:
    def test_undirected_graph_validates(self, two_triangles):
        assert two_triangles.validate_undirected()

    def test_directed_graph_does_not_validate(self):
        assert not directed_graph().validate_undirected()

    def test_to_undirected_symmetrizes(self):
        undirected = directed_graph().to_undirected()
        assert undirected.validate_undirected()
        assert not undirected.directed

    def test_to_undirected_drops_self_loops(self):
        undirected = directed_graph().to_undirected()
        for node in range(undirected.n_nodes):
            assert node not in undirected.neighbors(node)

    def test_to_undirected_is_cached(self, two_triangles):
        assert two_triangles.to_undirected() is two_triangles.to_undirected()

    def test_symmetric_graph_views_add_only_new_values(self):
        """A symmetric graph's views share its CSR: ``to_undirected()``
        costs the equality check's sort and the doubled values, where
        symmetrizing peaks at 178 B per stored entry, and
        ``in_adjacency`` costs nothing, where transposing peaks at 50."""
        graph = Graph(coo_to_csr(dcsbm(4096, 16, 16.0, mu=0.3, theta_exponent=0.9, seed=1)))
        nnz = graph.n_edges
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            graph.to_undirected()
            undirected_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            graph.in_adjacency
            transpose_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert nnz == 65_484
        assert undirected_peak <= 32 * nnz, undirected_peak / nnz
        # Under a byte per entry: interpreter objects, no array.
        assert transpose_peak < nnz, transpose_peak

    def test_repr(self, two_triangles):
        assert "undirected" in repr(two_triangles)
        assert "directed" in repr(directed_graph())
