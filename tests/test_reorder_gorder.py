"""GOrder greedy window ordering."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.graphs.corpus import load_graph
from repro.graphs.generators import planted_partition
from repro.graphs.graph import Graph
from repro.metrics.locality import average_neighbor_span
from repro.reorder.gorder import GOrder
from repro.sparse.convert import coo_to_csr
from repro.sparse.permute import check_permutation, permute_symmetric


class TestValidation:
    def test_window_positive(self):
        with pytest.raises(ValidationError):
            GOrder(window=0)

    def test_max_expand_positive_or_none(self):
        with pytest.raises(ValidationError):
            GOrder(max_expand=0)
        GOrder(max_expand=None)  # allowed

    @pytest.mark.parametrize("window", [2.5, 5.0, True, "5", None])
    def test_window_must_be_an_integer(self, window):
        with pytest.raises(ValidationError, match="window"):
            GOrder(window=window)

    @pytest.mark.parametrize("max_expand", [2.5, 64.0, False, "64"])
    def test_max_expand_must_be_an_integer(self, max_expand):
        with pytest.raises(ValidationError, match="max_expand"):
            GOrder(max_expand=max_expand)

    def test_numpy_integers_accepted(self):
        technique = GOrder(window=np.int64(3), max_expand=np.int32(8))
        assert (technique.window, technique.max_expand) == (3, 8)
        assert type(technique.window) is int and type(technique.max_expand) is int


class TestBehaviour:
    def test_valid_permutation(self, two_triangles):
        check_permutation(GOrder().compute(two_triangles), 6)

    def test_starts_from_max_in_degree(self, star_graph):
        perm = GOrder().compute(star_graph)
        assert perm[0] == 0  # the hub has maximum in-degree

    def test_keeps_triangle_members_adjacent(self, two_triangles):
        perm = GOrder(window=3).compute(two_triangles)
        # Each triangle's new IDs must span at most 3 consecutive slots.
        for triangle in ([0, 1, 2], [3, 4, 5]):
            ids = sorted(perm[v] for v in triangle)
            assert ids[-1] - ids[0] <= 3

    def test_improves_locality_over_scrambled(self):
        graph = load_graph("test-comm")  # scrambled publisher order
        perm = GOrder().compute(graph)
        before = average_neighbor_span(graph.adjacency)
        after = average_neighbor_span(permute_symmetric(graph.adjacency, perm))
        assert after < before

    def test_deterministic(self, two_triangles):
        a = GOrder().compute(two_triangles)
        b = GOrder().compute(two_triangles)
        assert np.array_equal(a, b)

    def test_max_expand_changes_little_on_small_graphs(self):
        coo = planted_partition(128, 8, 6.0, mu=0.1, seed=1)
        graph = Graph(coo_to_csr(coo))
        capped = GOrder(max_expand=4).compute(graph)
        uncapped = GOrder(max_expand=None).compute(graph)
        span_capped = average_neighbor_span(permute_symmetric(graph.adjacency, capped))
        span_uncapped = average_neighbor_span(
            permute_symmetric(graph.adjacency, uncapped)
        )
        assert span_capped <= 2.0 * span_uncapped

    def test_empty_graph(self):
        from repro.sparse.coo import COOMatrix

        graph = Graph(coo_to_csr(COOMatrix(0, 0, [], [])))
        assert GOrder().compute(graph).size == 0

    def test_disconnected_nodes_all_placed(self):
        from repro.sparse.coo import COOMatrix

        graph = Graph(coo_to_csr(COOMatrix(5, 5, [0, 1], [1, 0])))
        check_permutation(GOrder().compute(graph), 5)


class TestAffectedSets:
    def test_each_affected_set_is_built_once(self, monkeypatch):
        """A window member's affected set is built when it is placed and
        reused when it leaves, so each node's set is gathered once."""
        from repro.reorder.fast import gorder as fast_gorder

        real_gather = fast_gorder._capped_gather
        builds = []

        def counting_gather(*args):
            builds.append(1)
            return real_gather(*args)

        monkeypatch.setattr(fast_gorder, "_capped_gather", counting_gather)
        graph = load_graph("test-comm")
        GOrder().compute(graph)
        assert len(builds) == graph.n_nodes == 512
