"""Property-based tests for the sparse substrate (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.graphs.graph import Graph
from repro.sparse.convert import coo_to_csr, csr_to_coo
from repro.sparse.coo import COOMatrix, sorted_unique
from repro.sparse.csr import CSRMatrix
from repro.sparse.kernels import spmv_coo, spmv_csr
from repro.sparse.ops import (
    drop_self_loops,
    equals_transpose,
    is_symmetric,
    merge_duplicates,
    symmetrize,
    transpose,
)
from repro.sparse.permute import invert_permutation, permute_symmetric


@st.composite
def coo_matrices(draw, max_n=12, max_nnz=40, square=True):
    n_rows = draw(st.integers(1, max_n))
    n_cols = n_rows if square else draw(st.integers(1, max_n))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(
        st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz)
    )
    values = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return COOMatrix(n_rows, n_cols, rows, cols, values)


@st.composite
def crowded_coo_matrices(draw):
    """Rectangular COO matrices where most coordinates repeat, each entry
    carrying a distinct value, so any change in tie order shows."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    nnz = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, n_rows, nnz)
    cols = rng.integers(0, n_cols, nnz)
    values = rng.permutation(nnz) + rng.random(nnz)
    return COOMatrix(n_rows, n_cols, rows, cols, values)


#: Both zeros are in, so a comparison that misses a sign bit shows.
WEIGHTS = st.sampled_from([1.0, 2.5, -3.0, 0.0, -0.0])


@st.composite
def square_csrs(draw):
    """Square CSRs of every kind the self-transpose views tell apart.

    ``simple``: symmetric pattern and weights, no diagonal entry, one
    entry per coordinate.  ``looped``: the same plus diagonal entries.
    ``mirrored``: every pair stored both ways, with equal or independent
    weights, so diagonal entries and repeated coordinates can occur.
    ``any``: unconstrained.  Rows are shuffled half the time, and the
    empty matrix (no rows, or no entries) is in range.  Returns the CSR
    and whether it is ``simple`` with sorted rows.
    """
    n = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["simple", "looped", "mirrored", "any"]))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=24)) if n else []
    if kind in ("simple", "looped"):
        pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    entries = [(u, v, draw(WEIGHTS)) for u, v in pairs]
    if kind != "any":
        same = kind != "mirrored" or draw(st.booleans())
        entries += [(v, u, w if same else draw(WEIGHTS)) for u, v, w in entries]
    if kind == "looped" and n:
        entries += [(u, u, draw(WEIGHTS)) for u in draw(st.sets(node, min_size=1, max_size=3))]
    rows, cols, values = (list(column) for column in zip(*entries)) if entries else ([], [], [])
    csr = coo_to_csr(COOMatrix(n, n, rows, cols, values))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        row_of = np.repeat(np.arange(n), csr.row_degrees())
        order = np.lexsort((rng.random(csr.nnz), row_of))
        csr = CSRMatrix(n, n, csr.row_offsets, csr.col_indices[order], csr.values[order])
    return csr, kind == "simple" and csr.has_sorted_rows()


def same_arrays(a, b):
    """All three CSR arrays equal, the values as bits (0.0 != -0.0)."""
    return (
        np.array_equal(a.row_offsets, b.row_offsets)
        and np.array_equal(a.col_indices, b.col_indices)
        and np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))
    )


@st.composite
def permutations(draw, n):
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).permutation(n)


class TestConversionProperties:
    @given(coo_matrices(square=False))
    @settings(max_examples=60, deadline=None)
    def test_coo_csr_preserves_dense(self, coo):
        assert np.allclose(coo_to_csr(coo).to_dense(), coo.to_dense())

    @given(coo_matrices(square=False))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_equality(self, coo):
        assert csr_to_coo(coo_to_csr(coo)) == coo


class TestCanonicalOrder:
    """Every canonical ordering equals the stable lexsort it replaced."""

    @given(crowded_coo_matrices())
    @settings(max_examples=60, deadline=None)
    def test_coo_to_csr_is_row_major_lexsort(self, coo):
        order = np.lexsort((coo.cols, coo.rows))
        csr = coo_to_csr(coo)
        assert np.array_equal(csr.col_indices, coo.cols[order])
        assert np.array_equal(csr.values, coo.values[order])

    @given(crowded_coo_matrices())
    @settings(max_examples=60, deadline=None)
    def test_sort_rows_is_row_major_lexsort(self, coo):
        by_row = np.argsort(coo.rows, kind="stable")  # rows grouped, columns not
        offsets = np.zeros(coo.n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(coo.rows, minlength=coo.n_rows), out=offsets[1:])
        unsorted = CSRMatrix(
            coo.n_rows, coo.n_cols, offsets, coo.cols[by_row], coo.values[by_row]
        )
        rows = coo.rows[by_row]
        order = np.lexsort((unsorted.col_indices, rows))
        sorted_csr = unsorted.sort_rows()
        assert np.array_equal(sorted_csr.col_indices, unsorted.col_indices[order])
        assert np.array_equal(sorted_csr.values, unsorted.values[order])

    @given(crowded_coo_matrices())
    @settings(max_examples=60, deadline=None)
    def test_merge_duplicates_is_lexsort_and_sum(self, coo):
        order = np.lexsort((coo.cols, coo.rows))
        sums = {}
        for r, c, v in zip(
            coo.rows[order].tolist(), coo.cols[order].tolist(), coo.values[order].tolist()
        ):
            sums[(r, c)] = sums.get((r, c), 0.0) + v
        merged = merge_duplicates(coo)
        assert merged.rows.tolist() == [r for r, _ in sums]
        assert merged.cols.tolist() == [c for _, c in sums]
        assert merged.values.tolist() == list(sums.values())


class TestOpsProperties:
    @given(coo_matrices())
    @settings(max_examples=60, deadline=None)
    def test_symmetrize_is_symmetric(self, coo):
        assert is_symmetric(symmetrize(coo))

    @given(coo_matrices())
    @settings(max_examples=60, deadline=None)
    def test_symmetrize_idempotent_structure(self, coo):
        once = symmetrize(coo)
        twice = symmetrize(once)
        # A + A^T applied twice doubles values but keeps the pattern.
        assert once.nnz == twice.nnz
        assert np.allclose(twice.to_dense(), 2 * once.to_dense())

    @given(coo_matrices(square=False))
    @settings(max_examples=60, deadline=None)
    def test_merge_duplicates_preserves_sum(self, coo):
        assert merge_duplicates(coo).values.sum() == np.float64(
            coo.values.sum()
        ).item() or np.isclose(merge_duplicates(coo).values.sum(), coo.values.sum())

    @given(coo_matrices())
    @settings(max_examples=60, deadline=None)
    def test_drop_self_loops_leaves_off_diagonal(self, coo):
        cleaned = drop_self_loops(coo)
        off_diagonal = coo.rows != coo.cols
        assert cleaned.nnz == int(off_diagonal.sum())

    @given(coo_matrices(square=False))
    @settings(max_examples=60, deadline=None)
    def test_transpose_involution(self, coo):
        assert transpose(transpose(coo)) == coo


class TestSortedUnique:
    @given(st.data(), st.sampled_from([np.int32, np.int64]))
    @settings(max_examples=100, deadline=None)
    def test_equals_np_unique(self, data, dtype):
        info = np.iinfo(dtype)
        element = st.integers(-8, 8) | st.integers(int(info.min), int(info.max))
        values = data.draw(arrays(dtype, st.integers(0, 40), elements=element))
        before = values.copy()
        got = sorted_unique(values)
        expected = np.unique(values)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert np.array_equal(values, before)


class TestSelfTransposeViews:
    """A graph whose CSR is its own transpose shares it with its views;
    every input gets the arrays the symmetrize and transpose path builds."""

    @given(square_csrs())
    @settings(max_examples=150, deadline=None)
    def test_equals_transpose_is_the_transpose_path(self, case):
        csr, _ = case
        assert equals_transpose(csr) == same_arrays(coo_to_csr(transpose(csr_to_coo(csr))), csr)

    @given(square_csrs(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_views_equal_the_symmetrize_and_transpose_path(self, case, directed):
        csr, shares = case
        undirected = coo_to_csr(symmetrize(drop_self_loops(csr_to_coo(csr))))
        transposed = coo_to_csr(transpose(csr_to_coo(csr)))
        graph = Graph(csr, directed=directed)
        assert same_arrays(graph.to_undirected().adjacency, undirected)
        assert same_arrays(graph.in_adjacency, transposed)
        if shares:
            view = graph.to_undirected().adjacency
            assert view.row_offsets is csr.row_offsets
            assert view.col_indices is csr.col_indices
            assert graph.in_adjacency is csr
            for array in (csr.row_offsets, csr.col_indices, csr.values):
                with pytest.raises(ValueError):
                    array[:1] = 0


class TestPermutationProperties:
    @given(st.data(), coo_matrices())
    @settings(max_examples=60, deadline=None)
    def test_permute_preserves_spectrum_of_dense(self, data, coo):
        """Symmetric permutation is a similarity transform: the dense
        matrices must be equal up to simultaneous row/col reordering."""
        csr = coo_to_csr(coo)
        perm = data.draw(permutations(coo.n_rows))
        permuted = permute_symmetric(csr, perm)
        dense = csr.to_dense()
        expected = np.empty_like(dense)
        expected[np.ix_(perm, perm)] = dense
        assert np.allclose(permuted.to_dense(), expected)

    @given(st.data(), coo_matrices())
    @settings(max_examples=60, deadline=None)
    def test_permute_then_inverse_is_identity(self, data, coo):
        csr = coo_to_csr(coo)
        perm = data.draw(permutations(coo.n_rows))
        back = permute_symmetric(permute_symmetric(csr, perm), invert_permutation(perm))
        assert back == csr.sort_rows()

    @given(st.data(), coo_matrices())
    @settings(max_examples=40, deadline=None)
    def test_spmv_equivariance(self, data, coo):
        csr = coo_to_csr(coo)
        perm = data.draw(permutations(coo.n_rows))
        rng = np.random.default_rng(0)
        x = rng.standard_normal(coo.n_cols)
        y = spmv_csr(csr, x)
        x_new = np.empty_like(x)
        x_new[perm] = x
        y_new = spmv_csr(permute_symmetric(csr, perm), x_new)
        assert np.allclose(y_new[perm], y)


class TestKernelAgreement:
    @given(coo_matrices(square=False))
    @settings(max_examples=60, deadline=None)
    def test_coo_and_csr_spmv_agree(self, coo):
        x = np.arange(coo.n_cols, dtype=np.float64)
        assert np.allclose(spmv_coo(coo, x), spmv_csr(coo_to_csr(coo), x))
