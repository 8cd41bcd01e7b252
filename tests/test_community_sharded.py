"""Sharded community detection: merge semantics and invariances."""

import numpy as np
import pytest

from repro.community.modularity import modularity
from repro.community.rabbit import rabbit_communities
from repro.community.sharded import (
    ShardedRabbitResult,
    shard_bounds,
    sharded_rabbit_communities,
)
from repro.errors import ValidationError
from repro.graphs.generators.powerlaw import rmat
from repro.graphs.graph import Graph


def rmat_graph(scale=9, edge_factor=8, seed=11):
    return Graph.from_coo(rmat(scale, edge_factor, seed=seed), directed=True)


class TestShardBounds:
    def test_partitions_the_range(self):
        bounds = shard_bounds(10, 3)
        assert bounds == ((0, 4), (4, 7), (7, 10))
        assert bounds[0][0] == 0 and bounds[-1][1] == 10

    def test_clamps_to_node_count(self):
        assert shard_bounds(2, 8) == ((0, 1), (1, 2))

    def test_single_shard(self):
        assert shard_bounds(5, 1) == ((0, 5),)

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            shard_bounds(5, 0)


class TestShardedDetection:
    def test_single_shard_matches_plain_rabbit(self, figure1_graph):
        plain = rabbit_communities(figure1_graph)
        sharded = sharded_rabbit_communities(figure1_graph, n_shards=1)
        assert isinstance(sharded, ShardedRabbitResult)
        assert np.array_equal(sharded.assignment.labels, plain.assignment.labels)
        assert np.array_equal(
            sharded.dendrogram.ordering(), plain.dendrogram.ordering()
        )

    @pytest.mark.parametrize("n_shards", [2, 3, 7])
    def test_deterministic_across_repeats(self, n_shards):
        graph = rmat_graph()
        first = sharded_rabbit_communities(graph, n_shards=n_shards)
        second = sharded_rabbit_communities(graph, n_shards=n_shards)
        assert np.array_equal(first.assignment.labels, second.assignment.labels)
        assert np.array_equal(
            first.dendrogram.ordering(), second.dendrogram.ordering()
        )

    def test_jobs_count_invariant(self):
        graph = rmat_graph()
        serial = sharded_rabbit_communities(graph, n_shards=4, jobs=1)
        pooled = sharded_rabbit_communities(graph, n_shards=4, jobs=2)
        assert np.array_equal(serial.assignment.labels, pooled.assignment.labels)
        assert np.array_equal(
            serial.dendrogram.ordering(), pooled.dendrogram.ordering()
        )
        assert serial.n_merges == pooled.n_merges

    def test_ordering_is_a_valid_visit_order(self):
        graph = rmat_graph()
        result = sharded_rabbit_communities(graph, n_shards=4)
        ordering = result.dendrogram.ordering()
        assert sorted(ordering.tolist()) == list(range(graph.n_nodes))

    def test_labels_are_compact(self):
        result = sharded_rabbit_communities(rmat_graph(), n_shards=3)
        labels = result.assignment.labels
        assert labels.min() == 0
        assert set(np.unique(labels)) == set(range(int(labels.max()) + 1))

    def test_modularity_close_to_single_shard(self):
        graph = rmat_graph(scale=10)
        single = rabbit_communities(graph)
        sharded = sharded_rabbit_communities(graph, n_shards=4)
        q_single = modularity(graph, single.assignment)
        q_sharded = modularity(graph, sharded.assignment)
        # The merge loses some quality (boundary edges are only seen by
        # the coarse pass) but must stay in the same regime.
        assert q_sharded > 0
        assert q_sharded >= q_single - 0.1

    def test_records_shard_metadata(self):
        graph = rmat_graph()
        result = sharded_rabbit_communities(graph, n_shards=3)
        assert result.n_shards == 3
        assert len(result.bounds) == 3
        assert result.n_local_communities > 0

    def test_rejects_bad_arguments(self, figure1_graph):
        with pytest.raises(ValidationError):
            sharded_rabbit_communities(figure1_graph, n_shards=0)
        with pytest.raises(ValidationError):
            sharded_rabbit_communities(figure1_graph, n_shards=2, jobs=0)
