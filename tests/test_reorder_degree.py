"""Degree-based techniques: DEGSORT, DBG, HUBSORT."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.reorder.degree import DBG, DegSort, HubSort, hub_mask
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix


def skewed_graph() -> Graph:
    """Node 0 has in-degree 5, node 1 has 3, others low (directed)."""
    edges = [
        (2, 0), (3, 0), (4, 0), (5, 0), (6, 0),
        (2, 1), (3, 1), (4, 1),
        (5, 6), (6, 7),
    ]
    rows = [u for u, _ in edges]
    cols = [v for _, v in edges]
    return Graph(coo_to_csr(COOMatrix(8, 8, rows, cols)), directed=True)


class TestDegSort:
    def test_descending_in_degree(self):
        graph = skewed_graph()
        perm = DegSort().compute(graph)
        in_degrees = graph.in_degrees()
        # New order: node IDs sorted by perm; degrees must be descending.
        by_new_id = np.argsort(perm)
        reordered_degrees = in_degrees[by_new_id]
        assert np.all(np.diff(reordered_degrees) <= 0)

    def test_ties_keep_original_order(self):
        graph = skewed_graph()
        perm = DegSort().compute(graph)
        # Nodes 2, 3, 4 all have in-degree 0 -> keep relative order.
        assert perm[2] < perm[3] < perm[4]


class TestDBG:
    def test_grouped_by_power_of_two_buckets(self):
        graph = skewed_graph()
        perm = DBG().compute(graph)
        in_degrees = graph.in_degrees()
        by_new_id = np.argsort(perm)
        buckets = np.where(
            in_degrees[by_new_id] > 0,
            np.floor(np.log2(np.maximum(in_degrees[by_new_id], 1))),
            0,
        )
        assert np.all(np.diff(buckets) <= 0)

    def test_relative_order_within_bucket(self):
        graph = skewed_graph()
        perm = DBG().compute(graph)
        # 0 (deg 5, bucket 2) first; 1 (deg 3, bucket 1) next;
        # 6 and 7 (deg 1, bucket 0) before... the zero-degree nodes share
        # bucket 0 with them, keeping original relative order.
        assert perm[0] == 0
        assert perm[1] == 1
        assert perm[6] < perm[7]

    def test_bucket_cap(self):
        graph = skewed_graph()
        perm = DBG(n_buckets=1).compute(graph)
        # One bucket: stable sort degenerates to the identity.
        assert np.array_equal(perm, np.arange(8))

    def test_negative_bucket_count_rejected(self):
        with pytest.raises(ValidationError):
            DBG(n_buckets=-1)


class TestHubMask:
    def test_above_average_definition(self):
        graph = skewed_graph()
        mask = hub_mask(graph)
        # 10 entries / 8 nodes = 1.25 average; hubs: in-degree > 1.25.
        assert mask[0] and mask[1]
        assert not mask[2] and not mask[7]


class TestHubSort:
    def test_hubs_first_sorted(self):
        graph = skewed_graph()
        perm = HubSort().compute(graph)
        assert perm[0] == 0  # degree 5
        assert perm[1] == 1  # degree 3
        # Non-hubs keep relative order after the hubs.
        non_hubs = [2, 3, 4, 5, 6, 7]
        positions = [perm[v] for v in non_hubs]
        assert positions == sorted(positions)

    def test_hubs_sorted_when_hub_order_reversed(self):
        # Hub 0 has a smaller in-degree than hub 1.
        edges = [(2, 1), (3, 1), (4, 1), (5, 1), (2, 0), (3, 0), (4, 0)]
        graph = Graph(
            coo_to_csr(COOMatrix(6, 6, [u for u, _ in edges], [v for _, v in edges])),
            directed=True,
        )
        perm = HubSort().compute(graph)
        assert perm[1] == 0  # highest degree first
