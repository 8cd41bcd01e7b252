"""Property-based tests: every technique emits valid permutations and
reordering never changes kernel semantics."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.reorder.registry import available_techniques, make_technique
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.kernels import spmv_csr
from repro.sparse.permute import check_permutation, permute_symmetric
from repro.graphs.graph import Graph


@st.composite
def graphs(draw, max_n=16, max_edges=40):
    n = draw(st.integers(1, max_n))
    n_edges = draw(st.integers(0, max_edges))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, n_edges)
    v = rng.integers(0, n, n_edges)
    coo = COOMatrix(n, n, np.concatenate([u, v]), np.concatenate([v, u]))
    from repro.sparse.ops import drop_self_loops, merge_duplicates

    return Graph(coo_to_csr(merge_duplicates(drop_self_loops(coo))))


# The cheap techniques are exercised under hypothesis; the expensive
# one (gorder) has dedicated deterministic tests.
FAST_TECHNIQUES = [name for name in available_techniques() if name != "gorder"]


class TestTechniqueContracts:
    @given(graphs(), st.sampled_from(FAST_TECHNIQUES))
    @settings(max_examples=80, deadline=None)
    def test_valid_permutation_on_arbitrary_graphs(self, graph, name):
        perm = make_technique(name).compute(graph)
        check_permutation(perm, graph.n_nodes)

    @given(graphs(), st.sampled_from(["rabbit", "rabbit++", "degsort", "dbg"]))
    @settings(max_examples=40, deadline=None)
    def test_reordering_preserves_spmv_result(self, graph, name):
        csr = graph.adjacency
        perm = make_technique(name).compute(graph)
        permuted = permute_symmetric(csr, perm)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(csr.n_cols)
        y = spmv_csr(csr, x)
        x_new = np.empty_like(x)
        x_new[perm] = x
        assert np.allclose(spmv_csr(permuted, x_new)[perm], y)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_rabbitpp_segments_partition_nodes(self, graph):
        """RABBIT++ places the insular nodes first, then the
        non-insular hubs, then the rest."""
        from repro.community.rabbit import detect
        from repro.metrics.insularity import insular_mask
        from repro.reorder.rabbitpp import RabbitPlusPlus

        perm = RabbitPlusPlus().compute(graph)
        insular = insular_mask(graph, detect(graph).assignment)
        hubs = np.asarray(graph.in_degrees()) > graph.average_degree()
        segment = np.where(insular, 0, np.where(hubs, 1, 2))
        assert np.all(np.diff(segment[np.argsort(perm)]) >= 0)
