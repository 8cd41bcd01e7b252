"""Structural operations: transpose, dedup, symmetrize."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse.coo import COOMatrix
from repro.sparse.ops import (
    drop_self_loops,
    is_symmetric,
    merge_duplicates,
    symmetrize,
    transpose,
)


class TestTranspose:
    def test_transpose_dense(self, small_coo):
        assert np.array_equal(transpose(small_coo).to_dense(), small_coo.to_dense().T)

    def test_transpose_swaps_shape(self):
        coo = COOMatrix(2, 5, [0], [4])
        assert transpose(coo).shape == (5, 2)

    def test_double_transpose_identity(self, small_coo):
        assert transpose(transpose(small_coo)) == small_coo


class TestDropSelfLoops:
    def test_removes_diagonal(self, small_coo):
        cleaned = drop_self_loops(small_coo)
        assert cleaned.nnz == 4
        assert not np.any(cleaned.rows == cleaned.cols)

    def test_no_loops_is_noop(self):
        coo = COOMatrix(3, 3, [0, 1], [1, 2])
        assert drop_self_loops(coo) == coo


class TestMergeDuplicates:
    def test_sums_values(self):
        coo = COOMatrix(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0])
        merged = merge_duplicates(coo)
        assert merged.nnz == 2
        assert merged.to_dense()[0, 1] == pytest.approx(3.0)

    def test_idempotent(self, small_coo):
        once = merge_duplicates(small_coo)
        assert merge_duplicates(once) == once

    def test_preserves_dense(self, small_coo):
        assert np.array_equal(
            merge_duplicates(small_coo).to_dense(), small_coo.to_dense()
        )

    def test_empty(self):
        coo = COOMatrix(2, 2, [], [])
        assert merge_duplicates(coo).nnz == 0


class TestSymmetrize:
    def test_result_is_symmetric(self, small_coo):
        sym = symmetrize(small_coo)
        assert is_symmetric(sym)
        dense = sym.to_dense()
        assert np.array_equal(dense, dense.T)

    def test_values_are_a_plus_at(self, small_coo):
        dense = small_coo.to_dense()
        assert np.array_equal(symmetrize(small_coo).to_dense(), dense + dense.T)

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            symmetrize(COOMatrix(2, 3, [0], [2]))


class TestIsSymmetric:
    def test_true_case(self):
        coo = COOMatrix(2, 2, [0, 1], [1, 0])
        assert is_symmetric(coo)

    def test_false_case(self):
        assert not is_symmetric(COOMatrix(2, 2, [0], [1]))

    def test_rectangular_is_never_symmetric(self):
        assert not is_symmetric(COOMatrix(2, 3, [0], [0]))

    def test_value_asymmetry_detected(self):
        coo = COOMatrix(2, 2, [0, 1], [1, 0], [1.0, 2.0])
        assert not is_symmetric(coo)

    def test_values_compared_with_allclose_tolerance(self):
        # Mirrored values within a relative 1e-12 count as symmetric;
        # a relative 1e-3 difference does not.
        close = COOMatrix(2, 2, [0, 1], [1, 0], [1.0, 1.0 + 1e-12])
        assert is_symmetric(close)
        far = COOMatrix(2, 2, [0, 1], [1, 0], [1.0, 1.0 + 1e-3])
        assert not is_symmetric(far)

    def test_duplicates_summed_before_comparing(self):
        # (0,1) holds 1 + 2 = 3, which (1,0) matches; a second (1,0)
        # entry of 4 breaks the match.
        coo = COOMatrix(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 3.0])
        assert is_symmetric(coo)
        coo = COOMatrix(2, 2, [0, 0, 1, 1], [1, 1, 0, 0], [1.0, 2.0, 3.0, 4.0])
        assert not is_symmetric(coo)
