"""BOBA-style parallel bucket placement."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.graphs.generators.powerlaw import rmat
from repro.graphs.graph import Graph
from repro.reorder.base import check_permutation
from repro.reorder.boba import BobaOrder, _boba_fast
from repro.reorder.registry import available_techniques, make_technique
from tests.oracles.reorder import boba_reference


def rmat_graph(scale=8, edge_factor=8, seed=3):
    return Graph.from_coo(rmat(scale, edge_factor, seed=seed), directed=True)


class TestBobaOrder:
    def test_registered(self):
        assert "boba" in available_techniques()
        assert isinstance(make_technique("boba"), BobaOrder)

    def test_valid_permutation(self, figure1_graph):
        perm = BobaOrder().compute(figure1_graph)
        check_permutation(perm, figure1_graph.n_nodes)

    def test_empty_graph(self):
        from repro.sparse.convert import coo_to_csr
        from repro.sparse.coo import COOMatrix

        graph = Graph(coo_to_csr(COOMatrix(0, 0, [], [])), directed=True)
        assert BobaOrder().compute(graph).size == 0

    def test_hubs_placed_first_by_bucket(self, star_graph):
        # Node 0 is the only hub; it must land at position 0.
        perm = BobaOrder().compute(star_graph)
        assert perm[0] == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            BobaOrder(n_shards=0)
        with pytest.raises(ValidationError):
            BobaOrder(jobs=0)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_reference_equals_fast(self, seed):
        graph = rmat_graph(seed=seed)
        reference = boba_reference(graph)
        fast = _boba_fast(graph, n_shards=1, jobs=1)
        assert np.array_equal(reference, fast)

    @pytest.mark.parametrize("n_shards", [2, 3, 7])
    def test_shard_count_never_changes_result(self, n_shards):
        graph = rmat_graph()
        baseline = _boba_fast(graph, n_shards=1, jobs=1)
        sharded = _boba_fast(graph, n_shards=n_shards, jobs=1)
        assert np.array_equal(baseline, sharded)

    def test_jobs_count_never_changes_result(self):
        graph = rmat_graph()
        serial = _boba_fast(graph, n_shards=4, jobs=1)
        pooled = _boba_fast(graph, n_shards=4, jobs=2)
        assert np.array_equal(serial, pooled)

    def test_impl_dispatch_reference(self, figure1_graph):
        """Tiny graphs run the vectorized engine too; it matches the oracle."""
        assert np.array_equal(
            make_technique("boba").compute(figure1_graph), boba_reference(figure1_graph)
        )

    def test_anchor_groups_nonhubs_with_their_hub(self):
        # 0 and 1 are hubs (high in-degree); 4..7 all point at hub 0
        # only, 8..11 at hub 1 only.  Each group must be contiguous and
        # ordered by its anchor's placement.
        from repro.sparse.convert import coo_to_csr
        from repro.sparse.coo import COOMatrix

        edges = []
        for leaf in range(4, 8):
            edges += [(leaf, 0), (2, leaf)]
        for leaf in range(8, 12):
            edges += [(leaf, 1), (3, leaf)]
        edges += [(2, 0), (3, 0), (2, 1)]  # make 0 the hottest hub
        rows = np.asarray([u for u, _ in edges])
        cols = np.asarray([v for _, v in edges])
        graph = Graph(coo_to_csr(COOMatrix(12, 12, rows, cols)), directed=True)
        perm = BobaOrder().compute(graph)
        pos = {node: int(perm[node]) for node in range(12)}
        group0 = sorted(pos[leaf] for leaf in range(4, 8))
        group1 = sorted(pos[leaf] for leaf in range(8, 12))
        assert group0 == list(range(group0[0], group0[0] + 4))
        assert group1 == list(range(group1[0], group1[0] + 4))
        assert pos[0] < pos[1]  # hub 0 is hotter
        assert group0[0] < group1[0]  # groups follow anchor order


class TestBobaMemmap:
    def test_streams_from_memmap_matrix(self, tmp_path):
        from repro.sparse.memmap import load_csr_memmap, save_csr_memmap

        graph = rmat_graph()
        save_csr_memmap(graph.adjacency, str(tmp_path / "adj"))
        memmap_graph = Graph(load_csr_memmap(str(tmp_path / "adj")), directed=True)
        assert np.array_equal(
            BobaOrder().compute(graph), BobaOrder().compute(memmap_graph)
        )
