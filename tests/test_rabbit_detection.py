"""Rabbit incremental-aggregation detector tests."""

import numpy as np
import pytest

from repro.community.louvain import louvain
from repro.community.modularity import modularity
from repro.community.rabbit import rabbit_communities
from repro.graphs.corpus import load_graph
from repro.graphs.generators import planted_partition, star_burst
from repro.graphs.graph import Graph
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix


class TestDetectionQuality:
    def test_two_triangles(self, two_triangles):
        result = rabbit_communities(two_triangles)
        assert result.assignment.n_communities == 2
        assert result.n_merges == 4

    def test_figure1_communities(self, figure1_graph, figure1_assignment):
        """Rabbit must never split a true community (it may merge the
        tiny 2-node community into a neighbor, as single-pass greedy
        aggregation legitimately does)."""
        result = rabbit_communities(figure1_graph)
        detected = result.assignment.labels
        truth = figure1_assignment.labels
        for community in np.unique(truth):
            members = np.flatnonzero(truth == community)
            assert np.unique(detected[members]).size == 1
        assert 2 <= result.assignment.n_communities <= 3

    def test_modularity_close_to_louvain(self):
        graph = load_graph("test-comm")
        q_rabbit = modularity(graph, rabbit_communities(graph).assignment)
        q_louvain = louvain(graph).modularity
        assert q_rabbit > 0.6 * q_louvain

    def test_planted_partition_purity(self):
        coo = planted_partition(256, 8, 12.0, mu=0.05, seed=2)
        graph = Graph(coo_to_csr(coo))
        labels = rabbit_communities(graph).assignment.labels
        truth = np.arange(256) % 8
        for community in np.unique(labels):
            members = np.flatnonzero(labels == community)
            dominant = np.bincount(truth[members]).max()
            assert dominant / members.size > 0.85

    def test_star_burst_gives_giant_communities(self):
        """The mawi corner case: detection terminates with communities
        covering most of the matrix (paper Section V-B)."""
        coo = star_burst(512, 4, leaf_links=1, seed=3)
        graph = Graph(coo_to_csr(coo))
        result = rabbit_communities(graph)
        sizes = result.assignment.sizes()
        assert sizes.max() > 0.25 * 512


class TestMechanics:
    def test_merge_count_consistency(self, two_triangles):
        result = rabbit_communities(two_triangles)
        assert (
            result.assignment.n_nodes - result.assignment.n_communities
            == result.n_merges
        )

    def test_dendrogram_matches_assignment(self):
        """Every dendrogram tree's leaves must be exactly one community."""
        graph = load_graph("test-social")
        result = rabbit_communities(graph)
        labels = result.assignment.labels
        order = result.dendrogram.dfs_leaf_order()
        # Walking the DFS order, the community label may only change
        # when crossing a tree boundary: k - 1 changes for k trees.
        changes = int(np.sum(labels[order][1:] != labels[order][:-1]))
        assert changes == result.assignment.n_communities - 1

    def test_deterministic(self):
        graph = load_graph("test-social")
        a = rabbit_communities(graph)
        b = rabbit_communities(graph)
        assert a.assignment == b.assignment
        assert np.array_equal(a.dendrogram.ordering(), b.dendrogram.ordering())


class TestEdgeCases:
    def test_empty_graph(self):
        graph = Graph(coo_to_csr(COOMatrix(0, 0, [], [])))
        result = rabbit_communities(graph)
        assert result.assignment.n_nodes == 0
        assert result.n_merges == 0

    def test_edgeless_graph_all_singletons(self):
        graph = Graph(coo_to_csr(COOMatrix(5, 5, [], [])))
        result = rabbit_communities(graph)
        assert result.assignment.n_communities == 5
        assert result.n_merges == 0

    def test_single_edge(self):
        graph = Graph(coo_to_csr(COOMatrix(2, 2, [0, 1], [1, 0])))
        result = rabbit_communities(graph)
        assert result.assignment.n_communities == 1

    def test_directed_input_is_symmetrized(self):
        directed = Graph(coo_to_csr(COOMatrix(3, 3, [0, 1], [1, 2])), directed=True)
        result = rabbit_communities(directed)
        assert result.assignment.n_communities >= 1
