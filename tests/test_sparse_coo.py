"""Unit tests for the COO container."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.sparse.coo import COOMatrix, row_major_order


class TestConstruction:
    def test_basic_properties(self, small_coo):
        assert small_coo.shape == (4, 4)
        assert small_coo.nnz == 6
        assert small_coo.is_square

    def test_default_values_are_ones(self):
        coo = COOMatrix(3, 3, [0, 1], [1, 2])
        assert np.array_equal(coo.values, [1.0, 1.0])

    def test_rectangular(self):
        coo = COOMatrix(2, 5, [0, 1], [4, 0])
        assert coo.shape == (2, 5)
        assert not coo.is_square

    def test_empty_matrix(self):
        coo = COOMatrix(0, 0, [], [])
        assert coo.nnz == 0
        assert coo.shape == (0, 0)

    def test_indices_cast_to_int64(self):
        coo = COOMatrix(3, 3, np.asarray([0], dtype=np.int32), np.asarray([1], dtype=np.int16))
        assert coo.rows.dtype == np.int64
        assert coo.cols.dtype == np.int64

    def test_negative_dimension_rejected(self):
        with pytest.raises(ShapeError):
            COOMatrix(-1, 3, [], [])

    def test_row_out_of_bounds_rejected(self):
        with pytest.raises(FormatError):
            COOMatrix(2, 2, [2], [0])

    def test_negative_col_rejected(self):
        with pytest.raises(FormatError):
            COOMatrix(2, 2, [0], [-1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            COOMatrix(2, 2, [0, 1], [0])

    def test_values_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            COOMatrix(2, 2, [0], [0], values=[1.0, 2.0])

    def test_float_indices_rejected(self):
        with pytest.raises(FormatError):
            COOMatrix(2, 2, [0.5], [0])

    def test_two_dimensional_rows_rejected(self):
        with pytest.raises(ShapeError):
            COOMatrix(2, 2, [[0]], [[0]])


class TestBehaviour:
    def test_to_dense_sums_duplicates(self, small_coo):
        dense = small_coo.to_dense()
        assert dense[3, 3] == pytest.approx(11.0)  # 5 + 6
        assert dense[0, 1] == pytest.approx(1.0)

    def test_triples_roundtrip(self, small_coo):
        triples = list(small_coo.triples())
        assert len(triples) == small_coo.nnz
        assert triples[0] == (0, 1, 1.0)

    def test_copy_is_independent(self, small_coo):
        clone = small_coo.copy()
        clone.values[0] = 99.0
        assert small_coo.values[0] == pytest.approx(1.0)

    def test_equality_is_order_insensitive(self):
        a = COOMatrix(3, 3, [0, 1], [1, 2], [1.0, 2.0])
        b = COOMatrix(3, 3, [1, 0], [2, 1], [2.0, 1.0])
        assert a == b

    def test_inequality_on_values(self):
        a = COOMatrix(3, 3, [0], [1], [1.0])
        b = COOMatrix(3, 3, [0], [1], [2.0])
        assert a != b

    def test_inequality_on_shape(self):
        a = COOMatrix(3, 3, [0], [1])
        b = COOMatrix(4, 4, [0], [1])
        assert a != b

    def test_not_hashable(self, small_coo):
        with pytest.raises(TypeError):
            hash(small_coo)

    def test_repr_mentions_shape_and_nnz(self, small_coo):
        assert "shape=(4, 4)" in repr(small_coo)
        assert "nnz=6" in repr(small_coo)


class TestRowMajorOrder:
    def test_matches_lexsort_with_duplicates(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            n_rows, n_cols = (int(d) for d in rng.integers(1, 12, size=2))
            rows = rng.integers(0, n_rows, n)
            cols = rng.integers(0, n_cols, n)
            order = row_major_order(rows, cols, n_cols)
            assert order.dtype == np.intp
            assert np.array_equal(order, np.lexsort((cols, rows)))

    def test_empty_and_single_entry(self):
        empty = np.empty(0, dtype=np.int64)
        assert row_major_order(empty, empty, 3).size == 0
        one = np.array([2])
        assert np.array_equal(row_major_order(one, one, 3), [0])

    @pytest.mark.parametrize(
        "n_entries, n_cols",
        [
            (2, 2**31),  # packed keys use exactly 63 bits
            (3, 2**31),  # one more position bit: 64, so the lexsort fallback
            (5, 2**40),  # a 2**40 x 2**40 declared shape
        ],
    )
    def test_both_sides_of_the_63_bit_boundary(self, n_entries, n_cols):
        top = n_cols - 1
        rows = np.array([top, 0, top, 1, 0][:n_entries])
        cols = np.array([top, 5, top, 0, 5][:n_entries])
        assert np.array_equal(
            row_major_order(rows, cols, n_cols), np.lexsort((cols, rows))
        )
