"""RABBIT ordering tests."""

import numpy as np
import pytest

from repro.graphs.corpus import load_graph
from repro.graphs.generators.community import dcsbm
from repro.graphs.graph import Graph
from repro.metrics.locality import average_neighbor_span
from repro.reorder.rabbit import RabbitOrder
from repro.sparse.permute import check_permutation, permute_symmetric


class TestRabbitOrder:
    def test_valid_permutation(self, two_triangles):
        check_permutation(RabbitOrder().compute(two_triangles), 6)

    def test_communities_contiguous(self):
        graph = load_graph("test-comm")
        technique = RabbitOrder()
        perm = technique.compute(graph)
        labels = technique.last_result.assignment.labels
        by_new_id = np.argsort(perm)
        sequence = labels[by_new_id]
        changes = int(np.sum(sequence[1:] != sequence[:-1]))
        assert changes == technique.last_result.assignment.n_communities - 1

    def test_improves_locality_on_scrambled_community_graph(self):
        graph = load_graph("test-comm")
        perm = RabbitOrder().compute(graph)
        before = average_neighbor_span(graph.adjacency)
        after = average_neighbor_span(permute_symmetric(graph.adjacency, perm))
        assert after < 0.5 * before

    def test_detect_reuses_result(self):
        graph = load_graph("test-comm")
        technique = RabbitOrder()
        technique.compute(graph)
        first = technique.last_result
        assert technique.detect(graph) is first

    def test_detect_reruns_for_another_graph_of_the_same_size(self):
        first = Graph.from_coo(dcsbm(512, 8, 12.0, 0.15, seed=3), directed=True)
        second = Graph.from_coo(dcsbm(512, 8, 12.0, 0.15, seed=4), directed=True)
        technique = RabbitOrder()
        technique.compute(first)
        result = technique.detect(second)
        expected = RabbitOrder().detect(second)
        assert np.array_equal(result.assignment.labels, expected.assignment.labels)
        assert technique.detect(second) is result

    def test_detect_without_compute(self):
        graph = load_graph("test-comm")
        result = RabbitOrder().detect(graph)
        assert result.assignment.n_nodes == graph.n_nodes

    def test_deterministic(self, two_triangles):
        a = RabbitOrder().compute(two_triangles)
        b = RabbitOrder().compute(two_triangles)
        assert np.array_equal(a, b)
